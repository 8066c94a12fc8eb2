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
// One copy per served point: every leaf, served or local, is planned first
// (plan_bat: the query runs once and keeps its windows, so the point count
// is known before a payload byte moves), and then each point is copied
// once, from the mapped leaf straight into its exactly sized response part
// or its slot of the round's result.
//
// LeafServer fans the per-leaf plans and part writes of incoming requests
// out to a ThreadPool while the owning rank's comm loop keeps progressing
// probes and the round barrier (the paper's overlap of serving with
// communication, §IV-B). Workers only fill byte buffers; every vmpi call
// stays on the comm thread, which vmpi requires.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
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

/// A response is a u32 seq, a u32 part count, one u64 length per part and
/// then the parts back to back; parts[i] is the serialized ParticleSet
/// payload for the request's i-th leaf, so a response has one part per
/// requested leaf. An empty part means the server failed on that leaf, and
/// a request the server cannot decode gets a response with no parts (either
/// error is rethrown server-side; clients skip empty parts).
struct ResponseView {
    std::uint32_t seq = 0;
    std::vector<std::span<const std::byte>> parts;  // views into the payload
};
ResponseView decode_response(std::span<const std::byte> bytes);

/// The seq that leads a request or response payload, without decoding the
/// rest.
std::uint32_t peek_seq(std::span<const std::byte> bytes);

/// Merge response payloads into `out` in the given order with one resize
/// and ParticleSet::deserialize_into per part — no intermediate sets.
/// payloads[i] answers a request for leaves[i] leaves and must carry that
/// many parts. The resize also makes room for `tail` more particles after
/// the merged ones (the round's local leaves); returns the slot where that
/// room starts.
std::size_t merge_responses(ParticleSet& out, std::span<const vmpi::Bytes> payloads,
                            std::span<const std::size_t> leaves, std::size_t tail = 0);

/// Serves coalesced leaf requests arriving on `request_tag`, answering on
/// `response_tag`. Each progress() call drains every iprobe-able request
/// and fans its leaf plans to `pool` (nullptr or zero workers = inline, the
/// serial path). A request that cannot be decoded is answered with no parts
/// and its error held for finish(), so its sender still reaches the
/// round's barrier. Once a request's plans are in, the comm thread sizes its
/// response exactly and fans out the part writes; a response whose last
/// part is written is isent. Responses leave in per-destination request
/// order only as a side effect of job scan order; correctness rests on seq
/// keying, not ordering.
class LeafServer {
public:
    /// Opens a requested leaf's file. Runs on pool workers: it must not
    /// touch the Comm and must be safe to call concurrently.
    using OpenLeafFn = std::function<std::shared_ptr<const BatFile>(std::int32_t)>;

    /// `attr_names` (the data set's) name the columns of every part; they
    /// must outlive the server.
    LeafServer(vmpi::Comm& comm, int request_tag, int response_tag, ThreadPool* pool,
               std::span<const std::string> attr_names, OpenLeafFn open_leaf);

    /// Drain requests, start the part writes of fully planned responses and
    /// send finished ones. Returns true if any message moved (the caller's
    /// loop yields otherwise).
    bool progress();

    /// Run one queued pool task on the calling (comm) thread. Called by the
    /// serve loop when progress() moved nothing: instead of yielding its
    /// timeslice the comm thread helps plan and write leaf parts, which
    /// keeps the pooled path from losing to serial serving on starved
    /// machines. Returns false when serving inline or the pool queue was
    /// empty.
    bool help();

    /// No response is still being computed or waiting to be sent.
    bool idle() const { return jobs_.empty(); }

    /// Wait out remaining worker tasks, send the last responses, and
    /// rethrow the first request or leaf error, if any. Call after the round barrier
    /// completes (at which point no new request can arrive).
    void finish();

    std::uint64_t requests_served() const { return requests_served_; }
    std::uint64_t leaves_served() const { return leaves_served_; }
    std::uint64_t bytes_shipped() const { return bytes_shipped_; }

private:
    struct Part {
        std::shared_ptr<const BatFile> file;  // what `plan` points into
        QueryPlan plan;
        std::size_t offset = 0;
        std::size_t size = 0;  // 0 = the leaf failed
        std::uint64_t start_ns = 0;
        bool cache_hit = false;
    };
    struct Job {
        int src = -1;
        std::uint32_t seq = 0;
        std::vector<std::int32_t> leaves;
        BatQuery query;
        obs::QueryContext ctx;
        std::vector<Part> parts;
        vmpi::Bytes response;  // sized once every part is planned
        bool writing = false;
        std::atomic<std::size_t> remaining{0};  // plan or write tasks in flight
    };

    void start_job(int src, const vmpi::Bytes& payload);
    void start_writes(Job& job);
    void spawn(Job* job, std::size_t i, bool write);
    void plan_part(Job& job, std::size_t i);
    void write_part(Job& job, std::size_t i);
    void note_error();
    bool send_ready();

    vmpi::Comm& comm_;
    int rank_;  // read once: pool workers never touch the Comm
    int request_tag_;
    int response_tag_;
    ThreadPool* pool_;
    std::span<const std::string> attr_names_;
    OpenLeafFn open_leaf_;
    std::vector<std::unique_ptr<Job>> jobs_;
    std::uint64_t requests_served_ = 0;
    std::uint64_t leaves_served_ = 0;
    std::uint64_t bytes_shipped_ = 0;
    std::mutex err_mutex_;
    std::exception_ptr first_error_;
    // Last, so it is destroyed first: when a round unwinds on an error,
    // ~TaskGroup waits out the in-flight tasks before the jobs and the
    // error slot they touch go away.
    std::optional<TaskGroup> group_;
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
/// remote leaves are requested with one message per aggregator. The rank
/// serves the other ranks' requests until a nonblocking barrier confirms
/// every rank has its responses, planning its own leaves in the loop's idle
/// spins. A failure in the loop — a malformed message, a leaf that cannot
/// be read — is held until the barrier completes and then rethrown, so the
/// other ranks still leave the round. It then sizes the result once,
/// merges its responses in request order and writes its own leaves after
/// them, so results are byte-identical whatever the arrival order or pool.
/// The round ends by writing the query record for `ctx` (op `op`, wall
/// from `start_ns`). With `phases`, the stages open the read.request /
/// read.serve / read.merge / read.local phase spans into it.
RoundResult query_round(const RoundSetup& setup, const BatQuery* query,
                        const obs::QueryContext& ctx, std::uint64_t start_ns,
                        const char* op, ReadPhaseTimings* phases);

}  // namespace bat::io_detail
