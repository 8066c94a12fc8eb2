#pragma once
// Internal wire protocol, serving engine and query round shared by the
// parallel read path (io/reader) and the in situ DataService
// (io/data_service): both run their collectives through query_round().
//
// Coalescing: a client groups every leaf it needs from the same aggregator
// into ONE request message carrying the leaf-id list plus the query, so the
// message count drops from O(overlapped leaves) to O(aggregators). The
// response packs one serialized ParticleSet payload per requested leaf, in
// request order, and echoes the client-chosen `seq` so clients can key
// responses to requests deterministically regardless of completion order.
//
// LeafServer fans the per-leaf query evaluations of incoming requests out
// to a ThreadPool while the owning rank's comm loop keeps progressing
// probes and the round barrier (the paper's overlap of serving with
// communication, §IV-B). Workers only fill byte buffers; every vmpi call
// stays on the comm thread, which vmpi requires.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/bat_query.hpp"
#include "io/leaf_cache.hpp"
#include "io/reader.hpp"
#include "obs/query_trace.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/comm.hpp"

namespace bat::io_detail {

struct LeafRequest {
    /// Client-chosen id echoed by the response (index into the client's
    /// outstanding-request table).
    std::uint32_t seq = 0;
    std::vector<std::int32_t> leaves;
    BatQuery query;
    /// Originating query identity, carried on the wire so the serving rank
    /// attributes its leaf evaluations (spans, cache notes, pool time) to
    /// the query that asked, not to the rank doing the work.
    obs::QueryContext ctx;
};

vmpi::Bytes encode_request(const LeafRequest& req);
LeafRequest decode_request(std::span<const std::byte> bytes);

/// parts[i] is the serialized ParticleSet payload for the request's i-th
/// leaf. An empty part means the server failed on that leaf (the error is
/// rethrown server-side; clients skip empty parts).
vmpi::Bytes encode_response(std::uint32_t seq, std::span<const vmpi::Bytes> parts);

struct ResponseView {
    std::uint32_t seq = 0;
    std::vector<std::span<const std::byte>> parts;  // views into the payload
};
ResponseView decode_response(std::span<const std::byte> bytes);

/// The seq of a response payload without decoding the parts.
std::uint32_t peek_response_seq(std::span<const std::byte> bytes);

/// Sink appending query results to `out`, one bulk append per window:
/// fast-path windows through ParticleSet::append_rows, tested windows
/// through ParticleSet::append_gather. The reader and the DataService
/// serve and query their local leaves through it.
QuerySink particle_sink(ParticleSet& out);

/// Merge response payloads into `out` in the given order with one resize
/// and ParticleSet::deserialize_into per part — no intermediate sets.
void merge_responses(ParticleSet& out, std::span<const vmpi::Bytes> payloads);

/// Serves coalesced leaf requests arriving on `request_tag`, answering on
/// `response_tag`. Each progress() call drains every iprobe-able request,
/// fans its leaf evaluations to `pool` (nullptr or zero workers = evaluate
/// inline, the serial path), and isends any response whose last part has
/// finished. Responses leave in per-destination request order only as a
/// side effect of job scan order; correctness rests on seq keying, not
/// ordering.
class LeafServer {
public:
    /// serve_leaf runs on pool workers: it must not touch the Comm and must
    /// be safe to call concurrently for different leaves.
    using ServeLeafFn = std::function<vmpi::Bytes(std::int32_t, const BatQuery&)>;

    LeafServer(vmpi::Comm& comm, int request_tag, int response_tag, ThreadPool* pool,
               ServeLeafFn serve_leaf);

    /// Drain requests, send finished responses. Returns true if any message
    /// moved (the caller's loop yields otherwise).
    bool progress();

    /// Run one queued pool task on the calling (comm) thread. Called by the
    /// serve loop when progress() moved nothing: instead of yielding its
    /// timeslice the comm thread helps compute leaf responses, which keeps
    /// the pooled path from losing to serial serving on starved machines.
    /// Returns false when serving inline or the pool queue was empty.
    bool help();

    /// No response is still being computed or waiting to be sent.
    bool idle() const { return jobs_.empty(); }

    /// Wait out remaining worker tasks, send the last responses, and
    /// rethrow the first serve_leaf error, if any. Call after the round
    /// barrier completes (at which point no new request can arrive).
    void finish();

    std::uint64_t requests_served() const { return requests_served_; }
    std::uint64_t leaves_served() const { return leaves_served_; }
    std::uint64_t bytes_shipped() const { return bytes_shipped_; }

private:
    struct Job {
        int src = -1;
        std::uint32_t seq = 0;
        std::vector<std::int32_t> leaves;
        BatQuery query;
        obs::QueryContext ctx;
        std::vector<vmpi::Bytes> parts;
        std::atomic<std::size_t> remaining{0};
    };

    void start_job(int src, const vmpi::Bytes& payload);
    bool send_ready();

    vmpi::Comm& comm_;
    int request_tag_;
    int response_tag_;
    ThreadPool* pool_;
    ServeLeafFn serve_leaf_;
    std::optional<TaskGroup> group_;
    std::vector<std::unique_ptr<Job>> jobs_;
    std::uint64_t requests_served_ = 0;
    std::uint64_t leaves_served_ = 0;
    std::uint64_t bytes_shipped_ = 0;
    std::mutex err_mutex_;
    std::exception_ptr first_error_;
};

/// What a query round runs against: the caller's communicator, data set,
/// read-aggregator assignment and serving resources, and its tag pair.
struct RoundSetup {
    vmpi::Comm& comm;
    const Metadata& meta;
    const std::filesystem::path& dir;         // directory of the leaf files
    const std::vector<int>& leaf_aggregator;  // serving rank per leaf
    ThreadPool* pool;                         // nullptr = serve inline
    LeafFileCache& cache;
    int request_tag;
    int response_tag;
};

struct RoundResult {
    ParticleSet particles;
    std::uint64_t bytes_read = 0;  // file bytes this rank opened (served + local)
    std::uint64_t request_msgs = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t leaves_served = 0;
    std::uint64_t bytes_shipped = 0;
};

/// Collective: one client–server query round (paper §IV-B). `query` selects
/// leaves through the metadata (nullptr = this rank asks for nothing);
/// remote leaves are requested with one message per aggregator, or one per
/// leaf when `!coalesce`. The rank serves the other ranks' requests until a
/// nonblocking barrier confirms every rank has its responses, merges its
/// responses in request order, then queries its own leaves, so results are
/// byte-identical whatever the arrival order or pool. The round ends by
/// writing the query record for `ctx` (op `op`, wall from `start_ns`). With
/// `phases`, the stages open the read.request / read.serve / read.merge /
/// read.local phase spans into it.
RoundResult query_round(const RoundSetup& setup, const BatQuery* query, bool coalesce,
                        const obs::QueryContext& ctx, std::uint64_t start_ns,
                        const char* op, ReadPhaseTimings* phases);

}  // namespace bat::io_detail
