#include "io/reader.hpp"

#include <algorithm>
#include <utility>

#include "io/leaf_cache.hpp"
#include "io/read_protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

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
    // One read_particles call is one query (see obs/query_trace.hpp): its
    // identity rides in every leaf request so remote serve work, cache
    // traffic, and pool time are attributed back to this call. It is minted
    // before the metadata load so the record's request stage includes it.
    const obs::QueryContext qctx = obs::query_begin(comm.rank());
    obs::QueryScope qscope(qctx);
    const std::uint64_t q_start_ns = obs::trace_now_ns();
    ReadResult result;

    // ---- (a) metadata + local aggregator assignment ------------------------
    obs::PhaseSpan metadata_span("read.metadata", &result.timings.metadata);
    const Metadata meta = Metadata::load(metadata_path);
    const std::vector<int> leaf_aggregator =
        assign_read_aggregators(static_cast<int>(meta.leaves.size()), comm.size());
    metadata_span.close();

    // ---- (b) + (c) the query round, timed into the read phases -------------
    BatQuery query;
    query.box = my_bounds;
    query.inclusive_upper = false;
    const std::filesystem::path dir = metadata_path.parent_path();
    LeafFileCache& cache = config.cache != nullptr ? *config.cache : LeafFileCache::global();
    const io_detail::RoundSetup setup{comm, meta, dir, leaf_aggregator, config.pool,
                                      cache, kTagReadRequest, kTagReadResponse};
    io_detail::RoundResult round =
        io_detail::query_round(setup, &query, qctx, q_start_ns, "read.read_particles",
                               &result.timings);
    result.particles = std::move(round.particles);
    result.bytes_read = round.bytes_read;

    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter("read.request_msgs").add(static_cast<std::int64_t>(round.request_msgs));
    metrics.counter("read.response_msgs")
        .add(static_cast<std::int64_t>(round.requests_served));
    metrics.counter("read.leaves_served").add(static_cast<std::int64_t>(round.leaves_served));
    obs::record_rank_value("read.bytes_read", result.bytes_read);
    obs::record_rank_value("read.leaves_served", round.leaves_served);
    return result;
}

}  // namespace bat
