#include "io/reader.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <utility>

#include "core/bat_file.hpp"
#include "core/bat_query.hpp"
#include "io/leaf_cache.hpp"
#include "io/read_protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace bat {

namespace {

constexpr int kTagReadRequest = 2;
constexpr int kTagReadResponse = 3;

}  // namespace

ReadPhaseTimings ReadPhaseTimings::max(const ReadPhaseTimings& a,
                                       const ReadPhaseTimings& b) {
    ReadPhaseTimings m;
    m.metadata = std::max(a.metadata, b.metadata);
    m.request = std::max(a.request, b.request);
    m.serve = std::max(a.serve, b.serve);
    m.merge = std::max(a.merge, b.merge);
    m.local = std::max(a.local, b.local);
    return m;
}

std::vector<int> assign_read_aggregators(int num_leaves, int nranks) {
    BAT_CHECK(nranks > 0);
    std::vector<int> agg(static_cast<std::size_t>(num_leaves));
    if (num_leaves <= nranks) {
        // Spread the aggregators evenly through the rank space, as in the
        // write phase.
        for (int i = 0; i < num_leaves; ++i) {
            agg[static_cast<std::size_t>(i)] = static_cast<int>(
                (static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(nranks)) /
                static_cast<std::uint64_t>(num_leaves));
        }
    } else {
        // Fewer ranks than files: contiguous blocks of leaves per rank, so
        // spatially neighboring leaves (the write phase orders leaves along
        // the aggregation tree) share an aggregator and a client's requests
        // concentrate on few servers. The first `extra` ranks take one more
        // leaf each.
        const int base = num_leaves / nranks;
        const int extra = num_leaves % nranks;
        int leaf = 0;
        for (int r = 0; r < nranks; ++r) {
            const int take = base + (r < extra ? 1 : 0);
            for (int i = 0; i < take; ++i) {
                agg[static_cast<std::size_t>(leaf++)] = r;
            }
        }
    }
    return agg;
}

ReadResult read_particles(vmpi::Comm& comm, const std::filesystem::path& metadata_path,
                          const Box& my_bounds, const ReaderConfig& config) {
    ReadResult result;
    ReadPhaseTimings& timings = result.timings;
    auto& metrics = obs::MetricsRegistry::global();
    // One read_particles call is one query (see obs/query_trace.hpp): its
    // identity rides in every leaf request so remote serve work, cache
    // traffic, and pool time are attributed back to this call.
    const obs::QueryContext qctx = obs::query_begin(comm.rank());
    obs::QueryScope qscope(qctx);
    const std::uint64_t q_start_ns = obs::trace_now_ns();

    // Phase spans populate ReadPhaseTimings and, while tracing is on, the
    // per-rank trace timeline (same pattern as write_particles).

    // ---- (a) metadata + local aggregator assignment ------------------------
    obs::PhaseSpan metadata_span("read.metadata", &timings.metadata);
    const Metadata meta = Metadata::load(metadata_path);
    const std::vector<int> leaf_aggregator =
        assign_read_aggregators(static_cast<int>(meta.leaves.size()), comm.size());
    metadata_span.close();

    result.particles = ParticleSet(meta.attr_names);

    BatQuery leaf_query;
    leaf_query.box = my_bounds;
    leaf_query.inclusive_upper = !config.half_open;

    // ---- (b) find overlapped leaves; send coalesced requests ---------------
    obs::PhaseSpan request_span("read.request", &timings.request);
    const std::vector<int> my_leaves = meta.query_leaves(my_bounds);
    std::vector<int> local_leaves;  // leaves this rank serves to itself
    // One request per distinct aggregator (in first-appearance order over
    // the ascending leaf list), or one per leaf when coalescing is off.
    std::vector<std::pair<int, std::vector<std::int32_t>>> requests;
    std::map<int, std::size_t> request_of_aggregator;
    for (int leaf : my_leaves) {
        const int aggregator = leaf_aggregator[static_cast<std::size_t>(leaf)];
        if (aggregator == comm.rank()) {
            local_leaves.push_back(leaf);
            continue;
        }
        if (!config.coalesce) {
            requests.emplace_back(aggregator, std::vector<std::int32_t>{leaf});
            continue;
        }
        const auto [it, fresh] = request_of_aggregator.try_emplace(aggregator, requests.size());
        if (fresh) {
            requests.emplace_back(aggregator, std::vector<std::int32_t>{});
        }
        requests[it->second].second.push_back(leaf);
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
        io_detail::LeafRequest req;
        req.seq = static_cast<std::uint32_t>(i);
        req.leaves = requests[i].second;
        req.query = leaf_query;
        req.ctx = qctx;
        comm.isend(requests[i].first, kTagReadRequest, io_detail::encode_request(req));
    }
    metrics.counter("read.request_msgs").add(static_cast<std::int64_t>(requests.size()));
    request_span.close();
    const std::uint64_t request_done_ns = obs::trace_now_ns();

    // ---- (c) client-server loop --------------------------------------------
    obs::PhaseSpan serve_span("read.serve", &timings.serve);
    LeafFileCache& cache = config.cache != nullptr ? *config.cache : LeafFileCache::global();
    const std::filesystem::path dir = metadata_path.parent_path();
    std::atomic<std::uint64_t> bytes_read{0};
    const auto serve_leaf = [&](std::int32_t leaf, const BatQuery& query) {
        BAT_CHECK_MSG(leaf >= 0 && static_cast<std::size_t>(leaf) < meta.leaves.size(),
                      "leaf id out of range in read request");
        const auto file = cache.open(dir / meta.leaves[static_cast<std::size_t>(leaf)].file,
                                     &bytes_read);
        ParticleSet out(meta.attr_names);
        query_bat(*file, query, io_detail::particle_sink(out));
        return out.to_bytes();
    };
    io_detail::LeafServer server(comm, kTagReadRequest, kTagReadResponse, config.pool,
                                 serve_leaf);
    // Buffered raw responses, slotted by request seq: ingestion order below
    // is the request-issue order, independent of arrival order.
    std::vector<vmpi::Bytes> responses(requests.size());
    std::size_t pending = requests.size();
    vmpi::Request barrier;
    bool in_barrier = false;
    if (pending == 0) {
        barrier = comm.ibarrier();
        in_barrier = true;
    }
    for (;;) {
        bool progressed = server.progress();
        int src = -1;
        if (pending > 0 && comm.iprobe(vmpi::kAnySource, kTagReadResponse, &src)) {
            progressed = true;
            vmpi::Bytes payload = comm.recv(src, kTagReadResponse);
            const std::uint32_t seq = io_detail::peek_response_seq(payload);
            BAT_CHECK_MSG(seq < responses.size() && responses[seq].empty(),
                          "unexpected response seq " << seq);
            responses[seq] = std::move(payload);
            if (--pending == 0) {
                barrier = comm.ibarrier();
                in_barrier = true;
            }
        }
        if (in_barrier && server.idle() && barrier.test()) {
            break;
        }
        if (!progressed && !server.help()) {
            std::this_thread::yield();
        }
    }
    server.finish();
    metrics.counter("read.response_msgs")
        .add(static_cast<std::int64_t>(server.requests_served()));
    metrics.counter("read.leaves_served").add(static_cast<std::int64_t>(server.leaves_served()));
    serve_span.close();
    const std::uint64_t serve_done_ns = obs::trace_now_ns();

    // ---- zero-copy ingestion of the buffered responses ---------------------
    obs::PhaseSpan merge_span("read.merge", &timings.merge);
    io_detail::merge_responses(result.particles, responses);
    merge_span.close();
    const std::uint64_t merge_done_ns = obs::trace_now_ns();

    // ---- self-queries after exiting the server loop (§IV-B) ----------------
    obs::PhaseSpan local_span("read.local", &timings.local);
    const QuerySink sink = io_detail::particle_sink(result.particles);
    for (int leaf : local_leaves) {
        const auto file =
            cache.open(dir / meta.leaves[static_cast<std::size_t>(leaf)].file, &bytes_read);
        query_bat(*file, leaf_query, sink);
    }
    local_span.close();
    const std::uint64_t q_end_ns = obs::trace_now_ns();

    result.bytes_read = bytes_read.load(std::memory_order_relaxed);
    obs::record_rank_value("read.bytes_read", result.bytes_read);
    obs::record_rank_value("read.leaves_served", server.leaves_served());

    obs::QueryRecord qrec;
    qrec.trace_id = qctx.trace_id;
    qrec.origin_rank = qctx.origin_rank;
    qrec.seq = qctx.seq;
    qrec.op = "read.read_particles";
    qrec.start_ns = q_start_ns;
    qrec.wall_ns = q_end_ns - q_start_ns;
    // Metadata load is folded into the request stage; the four stages tile
    // the wall time exactly.
    qrec.request_ns = request_done_ns - q_start_ns;
    qrec.serve_ns = serve_done_ns - request_done_ns;
    qrec.merge_ns = merge_done_ns - serve_done_ns;
    qrec.local_ns = q_end_ns - merge_done_ns;
    qrec.leaves_local = static_cast<std::uint32_t>(local_leaves.size());
    for (const auto& [aggregator, leaves] : requests) {
        qrec.leaves_remote += static_cast<std::uint32_t>(leaves.size());
    }
    qrec.request_msgs = static_cast<std::uint32_t>(requests.size());
    for (const vmpi::Bytes& payload : responses) {
        qrec.bytes_moved += payload.size();
    }
    qrec.particles = result.particles.count();
    obs::query_finalize(qrec);
    return result;
}

}  // namespace bat
