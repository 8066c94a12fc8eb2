#include "io/data_service.hpp"

#include <utility>

#include "io/leaf_cache.hpp"
#include "io/read_protocol.hpp"
#include "io/reader.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"

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
    const io_detail::RoundSetup setup{comm_, meta_, dir_, leaf_aggregator_, pool_,
                                      *cache_, kTagServiceRequest, kTagServiceResponse};
    io_detail::RoundResult round =
        io_detail::query_round(setup, query ? &*query : nullptr, qctx, round_start_ns,
                               "service.query_round", /*phases=*/nullptr);
    const std::uint64_t round_end_ns = obs::trace_now_ns();

    const std::uint64_t particles = round.particles.count();
    obs::record_rank_value("service.particles_served", particles);
    obs::record_rank_value("service.bytes_shipped", round.bytes_shipped);
    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter("service.rounds").add(1);
    metrics.counter("service.particles_served").add(static_cast<std::int64_t>(particles));
    metrics.counter("service.bytes_shipped")
        .add(static_cast<std::int64_t>(round.bytes_shipped));
    metrics.counter("service.request_msgs").add(static_cast<std::int64_t>(round.request_msgs));
    metrics.histogram("service.round_us")
        .record(static_cast<double>(round_end_ns - round_start_ns) / 1e3);
    return std::move(round.particles);
}

}  // namespace bat
