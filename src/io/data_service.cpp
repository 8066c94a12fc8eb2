#include "io/data_service.hpp"

#include <atomic>
#include <map>
#include <thread>
#include <utility>

#include "io/leaf_cache.hpp"
#include "io/read_protocol.hpp"
#include "io/reader.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace bat {

namespace {

constexpr int kTagServiceRequest = 4;
constexpr int kTagServiceResponse = 5;

}  // namespace

DataService::DataService(vmpi::Comm& comm, const std::filesystem::path& metadata_path,
                         ThreadPool* pool, LeafFileCache* cache)
    : comm_(comm),
      dir_(metadata_path.parent_path()),
      meta_(Metadata::load(metadata_path)),
      pool_(pool),
      cache_(cache != nullptr ? cache : &LeafFileCache::global()) {
    leaf_aggregator_ =
        assign_read_aggregators(static_cast<int>(meta_.leaves.size()), comm.size());
    for (std::size_t leaf = 0; leaf < leaf_aggregator_.size(); ++leaf) {
        if (leaf_aggregator_[leaf] == comm.rank()) {
            my_leaves_.push_back(static_cast<int>(leaf));
        }
    }
}

ParticleSet DataService::query_round(const std::optional<BatQuery>& query) {
    BAT_TRACE_SCOPE_CAT("service.query_round", "service");
    // This round is one query: mint its identity, install it for the whole
    // round (local cache opens and request sends attribute to it), and ship
    // it inside every leaf request so remote serves attribute to it too.
    const obs::QueryContext qctx = obs::query_begin(comm_.rank());
    obs::QueryScope qscope(qctx);
    const std::uint64_t round_start_ns = obs::trace_now_ns();
    ParticleSet result(meta_.attr_names);

    // Coalesce: one request per distinct aggregator holding a matching
    // remote leaf; remember local ones for after the loop.
    std::vector<int> local_leaves;
    std::vector<std::pair<int, std::vector<std::int32_t>>> requests;
    std::map<int, std::size_t> request_of_aggregator;
    if (query) {
        for (int leaf : meta_.query_leaves(query->box, query->attr_filters)) {
            const int aggregator = leaf_aggregator_[static_cast<std::size_t>(leaf)];
            if (aggregator == comm_.rank()) {
                local_leaves.push_back(leaf);
                continue;
            }
            const auto [it, fresh] =
                request_of_aggregator.try_emplace(aggregator, requests.size());
            if (fresh) {
                requests.emplace_back(aggregator, std::vector<std::int32_t>{});
            }
            requests[it->second].second.push_back(leaf);
        }
        for (std::size_t i = 0; i < requests.size(); ++i) {
            io_detail::LeafRequest req;
            req.seq = static_cast<std::uint32_t>(i);
            req.leaves = requests[i].second;
            req.query = *query;
            req.ctx = qctx;
            comm_.isend(requests[i].first, kTagServiceRequest,
                        io_detail::encode_request(req));
        }
    }
    const std::uint64_t request_done_ns = obs::trace_now_ns();

    // Serve + collect until the round's barrier completes. Leaf evaluations
    // run on pool workers (when configured); the comm loop keeps probing.
    std::atomic<std::uint64_t> bytes_read{0};
    const auto serve_leaf = [&](std::int32_t leaf, const BatQuery& leaf_query) {
        BAT_CHECK_MSG(leaf >= 0 && static_cast<std::size_t>(leaf) < meta_.leaves.size(),
                      "leaf id out of range in service request");
        const auto file = cache_->open(
            dir_ / meta_.leaves[static_cast<std::size_t>(leaf)].file, &bytes_read);
        ParticleSet out(meta_.attr_names);
        query_bat(*file, leaf_query, io_detail::particle_sink(out));
        return out.to_bytes();
    };
    io_detail::LeafServer server(comm_, kTagServiceRequest, kTagServiceResponse, pool_,
                                 serve_leaf);
    std::vector<vmpi::Bytes> responses(requests.size());
    std::size_t pending = requests.size();
    vmpi::Request barrier;
    bool in_barrier = false;
    if (pending == 0) {
        barrier = comm_.ibarrier();
        in_barrier = true;
    }
    for (;;) {
        bool progressed = server.progress();
        int src = -1;
        if (pending > 0 && comm_.iprobe(vmpi::kAnySource, kTagServiceResponse, &src)) {
            progressed = true;
            vmpi::Bytes payload = comm_.recv(src, kTagServiceResponse);
            const std::uint32_t seq = io_detail::peek_response_seq(payload);
            BAT_CHECK_MSG(seq < responses.size() && responses[seq].empty(),
                          "unexpected service response seq " << seq);
            responses[seq] = std::move(payload);
            if (--pending == 0) {
                barrier = comm_.ibarrier();
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
    const std::uint64_t serve_done_ns = obs::trace_now_ns();

    // Zero-copy ingestion in request order, then local leaves after exiting
    // the server loop (paper §IV-B) — arrival order cannot change the
    // result.
    io_detail::merge_responses(result, responses);
    const std::uint64_t merge_done_ns = obs::trace_now_ns();
    const QuerySink sink = io_detail::particle_sink(result);
    for (int leaf : local_leaves) {
        const auto file = cache_->open(
            dir_ / meta_.leaves[static_cast<std::size_t>(leaf)].file, &bytes_read);
        query_bat(*file, *query, sink);
    }
    const std::uint64_t round_end_ns = obs::trace_now_ns();

    obs::record_rank_value("service.particles_served", result.count());
    obs::record_rank_value("service.bytes_shipped", server.bytes_shipped());
    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter("service.rounds").add(1);
    metrics.counter("service.particles_served").add(static_cast<std::int64_t>(result.count()));
    metrics.counter("service.bytes_shipped")
        .add(static_cast<std::int64_t>(server.bytes_shipped()));
    metrics.counter("service.request_msgs").add(static_cast<std::int64_t>(requests.size()));
    metrics.histogram("service.round_us")
        .record(static_cast<double>(round_end_ns - round_start_ns) / 1e3);

    obs::QueryRecord qrec;
    qrec.trace_id = qctx.trace_id;
    qrec.origin_rank = qctx.origin_rank;
    qrec.seq = qctx.seq;
    qrec.op = "service.query_round";
    qrec.start_ns = round_start_ns;
    qrec.wall_ns = round_end_ns - round_start_ns;
    qrec.request_ns = request_done_ns - round_start_ns;
    qrec.serve_ns = serve_done_ns - request_done_ns;
    qrec.merge_ns = merge_done_ns - serve_done_ns;
    qrec.local_ns = round_end_ns - merge_done_ns;
    qrec.leaves_local = static_cast<std::uint32_t>(local_leaves.size());
    for (const auto& [aggregator, leaves] : requests) {
        qrec.leaves_remote += static_cast<std::uint32_t>(leaves.size());
    }
    qrec.request_msgs = static_cast<std::uint32_t>(requests.size());
    for (const vmpi::Bytes& payload : responses) {
        qrec.bytes_moved += payload.size();
    }
    qrec.particles = result.count();
    obs::query_finalize(qrec);
    return result;
}

}  // namespace bat
