// Tests for per-query tracing and cost attribution (obs/query_trace.hpp):
// histogram percentile accuracy against exact quantiles, context propagation
// through the coalesced read protocol and pool work-helping (every served
// leaf attributed exactly once), accounting identities against the global
// metrics counters, and JSONL schema round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "io/data_service.hpp"
#include "io/reader.hpp"
#include "io/writer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/runtime.hpp"
#include "test_helpers.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kDomain({0, 0, 0}, {2, 2, 2});

struct Written {
    testing::TempDir dir;
    ParticleSet global;
    std::filesystem::path meta_path;

    explicit Written(std::size_t n = 16'000) {
        global = make_uniform_particles(kDomain, n, 2, 13);
        const GridDecomp decomp = grid_decomp_3d(8, kDomain);
        const auto per_rank = partition_particles(global, decomp);
        std::vector<Box> bounds;
        for (int r = 0; r < 8; ++r) {
            bounds.push_back(decomp.rank_box(r));
        }
        WriterConfig config;
        config.tree.target_file_size = 32 << 10;
        config.directory = dir.path();
        config.basename = "qtrace";
        meta_path = write_particles_serial(per_rank, bounds, config).metadata_path;
    }
};

/// RAII arming of the query-trace rings around one test body.
struct TraceArmed {
    TraceArmed() {
        obs::reset_query_trace();
        obs::set_query_trace_enabled(true);
    }
    ~TraceArmed() {
        obs::set_query_trace_enabled(false);
        obs::reset_query_trace();
    }
};

std::uint64_t counter_value(const char* name) {
    return obs::MetricsRegistry::global().counter(name).value();
}

std::uint64_t histogram_count(const std::string& name) {
    return static_cast<std::uint64_t>(
        obs::MetricsRegistry::global()
            .histogram(name, obs::MetricsRegistry::hdr_us_bounds())
            .stats()
            .count());
}

/// Exact nearest-rank quantile of a sorted sample.
double exact_quantile(const std::vector<double>& sorted, double q) {
    const auto n = static_cast<double>(sorted.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---- histogram percentiles -------------------------------------------------

TEST(QueryTraceTest, PercentileMatchesExactQuantiles) {
    obs::Histogram hist(obs::MetricsRegistry::hdr_us_bounds());
    // Deterministic log-uniform samples spanning 1us..1s — five orders of
    // magnitude, so every octave band of the HDR bounds gets exercised.
    std::uint64_t lcg = 0x243F6A8885A308D3ull;
    std::vector<double> values;
    for (int i = 0; i < 20'000; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const double u = static_cast<double>(lcg >> 11) /
                         static_cast<double>(1ull << 53);
        const double v = std::exp(u * std::log(1e6));
        values.push_back(v);
        hist.record(v);
    }
    std::sort(values.begin(), values.end());
    // The HDR bounds split each octave into 4 sub-buckets, so interpolation
    // error is bounded by the sub-octave resolution (~12% relative).
    for (const double q : {0.10, 0.50, 0.90, 0.99}) {
        const double exact = exact_quantile(values, q);
        EXPECT_NEAR(hist.percentile(q), exact, 0.13 * exact) << "q=" << q;
    }
    // Percentiles are clamped to the observed range and ordered.
    EXPECT_GE(hist.percentile(0.0), values.front());
    EXPECT_LE(hist.percentile(1.0), values.back());
    EXPECT_LE(hist.percentile(0.5), hist.percentile(0.9));
    EXPECT_LE(hist.percentile(0.9), hist.percentile(0.99));
}

TEST(QueryTraceTest, PercentileEdgeCases) {
    obs::Histogram empty(obs::MetricsRegistry::hdr_us_bounds());
    EXPECT_EQ(empty.percentile(0.5), 0.0);

    obs::Histogram one(obs::MetricsRegistry::hdr_us_bounds());
    one.record(42.0);
    // A single sample: every percentile collapses to it via the [min, max]
    // clamp, regardless of which bucket it fell into.
    EXPECT_DOUBLE_EQ(one.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.99), 42.0);

    obs::Histogram beyond(obs::MetricsRegistry::hdr_us_bounds());
    beyond.record(1e12);  // overflow bucket (past the last edge)
    EXPECT_DOUBLE_EQ(beyond.percentile(0.99), 1e12);
}

// ---- context minting and scoping -------------------------------------------

TEST(QueryTraceTest, MintedContextsAreUniqueAndEncodeOrigin) {
    const obs::QueryContext a = obs::query_begin(3);
    const obs::QueryContext b = obs::query_begin(3);
    const obs::QueryContext c = obs::query_begin(0);
    EXPECT_TRUE(a.valid());
    EXPECT_NE(a.trace_id, b.trace_id);
    EXPECT_NE(b.trace_id, c.trace_id);
    EXPECT_EQ(a.trace_id >> 40, 4u);  // origin_rank + 1 in the high bits
    EXPECT_EQ(c.trace_id >> 40, 1u);
    EXPECT_EQ(a.origin_rank, 3);
    EXPECT_LT(a.seq, b.seq);
}

TEST(QueryTraceTest, QueryScopeNestsAndRestores) {
    EXPECT_FALSE(obs::current_query().valid());
    const obs::QueryContext outer = obs::query_begin(1);
    {
        obs::QueryScope s1(outer);
        EXPECT_EQ(obs::current_query().trace_id, outer.trace_id);
        const obs::QueryContext inner = obs::query_begin(2);
        {
            obs::QueryScope s2(inner);
            EXPECT_EQ(obs::current_query().trace_id, inner.trace_id);
        }
        EXPECT_EQ(obs::current_query().trace_id, outer.trace_id);
    }
    EXPECT_FALSE(obs::current_query().valid());
}

// ---- end-to-end attribution ------------------------------------------------

TEST(QueryTraceTest, DataServiceRoundAttributesEveryLeaf) {
    Written w;
    TraceArmed armed;
    const int nranks = 6;
    const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);
    const std::uint64_t shipped0 = counter_value("service.bytes_shipped");
    const std::uint64_t hits0 = counter_value("read.leaf_cache_hit");
    const std::uint64_t misses0 = counter_value("read.leaf_cache_miss");
    const std::uint64_t hist0 = histogram_count("query.service.query_round.us");
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        DataService service(comm, w.meta_path);
        BatQuery query;
        query.box = decomp.rank_read_box(comm.rank());
        query.inclusive_upper = false;
        service.query_round(query);
    });

    // Exactly one record per concurrent query, each with a distinct trace id
    // minted at its origin.
    const std::vector<obs::QueryRecord> records = obs::query_records();
    ASSERT_EQ(records.size(), static_cast<std::size_t>(nranks));
    std::set<std::uint64_t> ids;
    std::set<std::int32_t> origins;
    std::uint64_t bytes_moved = 0;
    std::uint64_t leaves_total = 0;
    std::uint64_t leaves_remote = 0;
    std::uint64_t noted_cache = 0;
    for (const obs::QueryRecord& r : records) {
        EXPECT_STREQ(r.op, "service.query_round");
        EXPECT_TRUE(ids.insert(r.trace_id).second);
        origins.insert(r.origin_rank);
        EXPECT_EQ(r.trace_id >> 40,
                  static_cast<std::uint64_t>(r.origin_rank) + 1);
        // The four stages tile the wall time exactly — they are deltas of
        // consecutive timestamps over the whole round.
        EXPECT_EQ(r.request_ns + r.serve_ns + r.merge_ns + r.local_ns, r.wall_ns);
        bytes_moved += r.bytes_moved;
        leaves_total += r.leaves_local + r.leaves_remote;
        leaves_remote += r.leaves_remote;
        noted_cache += r.cache_hits + r.cache_misses;
    }
    EXPECT_EQ(origins.size(), static_cast<std::size_t>(nranks));

    // Accounting identities against the process-wide metrics: per-query
    // bytes sum to the server-side shipped total, and per-query leaf counts
    // sum to the leaf-cache lookups (one open per evaluated leaf).
    EXPECT_EQ(bytes_moved, counter_value("service.bytes_shipped") - shipped0);
    const std::uint64_t cache_delta = counter_value("read.leaf_cache_hit") - hits0 +
                                      counter_value("read.leaf_cache_miss") - misses0;
    EXPECT_EQ(leaves_total, cache_delta);
    // Cost-slot attribution sees the same lookups: serving ranks record
    // before the response ships, so nothing straggles past finalize.
    EXPECT_EQ(noted_cache, cache_delta);

    // Every remotely served leaf produced exactly one span, attributed to
    // the right query, with no duplicates under pool work-helping.
    const std::vector<obs::QueryServeSpan> spans = obs::query_serve_spans();
    EXPECT_EQ(spans.size(), leaves_remote);
    std::map<std::uint64_t, std::set<std::int32_t>> leaves_by_query;
    for (const obs::QueryServeSpan& sp : spans) {
        ASSERT_TRUE(ids.count(sp.trace_id)) << "span for unknown query";
        EXPECT_TRUE(leaves_by_query[sp.trace_id].insert(sp.leaf).second)
            << "leaf " << sp.leaf << " double-counted";
        EXPECT_GE(sp.serve_rank, 0);
        EXPECT_LT(sp.serve_rank, nranks);
        EXPECT_GT(sp.bytes, 0u);
    }
    for (const obs::QueryRecord& r : records) {
        EXPECT_EQ(leaves_by_query[r.trace_id].size(), r.leaves_remote)
            << "query " << r.trace_id;
    }
    EXPECT_EQ(obs::query_dropped(), 0u);
    // Wall latencies reached the always-on percentile histogram.
    EXPECT_EQ(histogram_count("query.service.query_round.us") - hist0,
              static_cast<std::uint64_t>(nranks));
}

TEST(QueryTraceTest, ReadParticlesEmitsRecords) {
    Written w;
    TraceArmed armed;
    const int nranks = 4;
    const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);
    const std::uint64_t hist0 = histogram_count("query.read.read_particles.us");
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        read_particles(comm, w.meta_path, decomp.rank_read_box(comm.rank()));
    });
    const std::vector<obs::QueryRecord> records = obs::query_records();
    ASSERT_EQ(records.size(), static_cast<std::size_t>(nranks));
    std::uint64_t leaves_remote = 0;
    std::uint64_t particles = 0;
    for (const obs::QueryRecord& r : records) {
        EXPECT_STREQ(r.op, "read.read_particles");
        EXPECT_EQ(r.request_ns + r.serve_ns + r.merge_ns + r.local_ns, r.wall_ns);
        EXPECT_GT(r.leaves_local + r.leaves_remote, 0u);
        leaves_remote += r.leaves_remote;
        particles += r.particles;
    }
    EXPECT_EQ(particles, w.global.count());
    EXPECT_EQ(obs::query_serve_spans().size(), leaves_remote);
    EXPECT_EQ(histogram_count("query.read.read_particles.us") - hist0,
              static_cast<std::uint64_t>(nranks));
}

// ---- JSONL export ----------------------------------------------------------

TEST(QueryTraceTest, JsonlSchemaRoundTrips) {
    TraceArmed armed;
    const std::uint64_t id = (5ull << 40) | 7;

    obs::QueryServeSpan sp;
    sp.trace_id = id;
    sp.origin_rank = 4;
    sp.query_seq = 7;
    sp.serve_rank = 2;
    sp.leaf = 11;
    sp.start_ns = 1'000'000;
    sp.dur_ns = 250'000;
    sp.bytes = 4096;
    sp.cache_hit = true;
    obs::query_record_serve_span(sp);
    sp.leaf = 12;
    sp.cache_hit = false;
    obs::query_record_serve_span(sp);

    obs::QueryRecord r;
    r.trace_id = id;
    r.origin_rank = 4;
    r.seq = 7;
    r.op = "service.query_round";
    r.start_ns = 900'000;
    r.wall_ns = 5'000'000;
    r.request_ns = 1'000'000;
    r.serve_ns = 2'000'000;
    r.merge_ns = 1'500'000;
    r.local_ns = 500'000;
    r.leaves_local = 3;
    r.leaves_remote = 2;
    r.request_msgs = 1;
    r.bytes_moved = 8192;
    r.particles = 1234;
    r.cache_hits = 4;
    r.cache_misses = 1;
    r.pool_task_ns = 750'000;
    r.fastpath_windows = 6;
    obs::query_finalize(r);

    // A span whose query never finalizes must surface as an orphan line.
    obs::QueryServeSpan stray = sp;
    stray.trace_id = (3ull << 40) | 9;
    stray.origin_rank = 2;
    obs::query_record_serve_span(stray);

    std::istringstream lines(obs::query_log_jsonl());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    {
        const obs::json::Value doc = obs::json::parse(line);
        ASSERT_TRUE(doc.is_object());
        EXPECT_EQ(doc.find("schema")->string(), "bat-query-v1");
        EXPECT_EQ(doc.find("trace_id")->number(), static_cast<double>(id));
        EXPECT_EQ(doc.find("origin_rank")->number(), 4);
        EXPECT_EQ(doc.find("seq")->number(), 7);
        EXPECT_EQ(doc.find("op")->string(), "service.query_round");
        EXPECT_DOUBLE_EQ(doc.find("start_us")->number(), 900.0);
        EXPECT_DOUBLE_EQ(doc.find("wall_us")->number(), 5000.0);
        const obs::json::Value* stages = doc.find("stages");
        ASSERT_NE(stages, nullptr);
        EXPECT_DOUBLE_EQ(stages->find("request_us")->number(), 1000.0);
        EXPECT_DOUBLE_EQ(stages->find("serve_us")->number(), 2000.0);
        EXPECT_DOUBLE_EQ(stages->find("merge_us")->number(), 1500.0);
        EXPECT_DOUBLE_EQ(stages->find("local_us")->number(), 500.0);
        EXPECT_EQ(doc.find("leaves_local")->number(), 3);
        EXPECT_EQ(doc.find("leaves_remote")->number(), 2);
        EXPECT_EQ(doc.find("request_msgs")->number(), 1);
        EXPECT_EQ(doc.find("bytes_moved")->number(), 8192);
        EXPECT_EQ(doc.find("particles")->number(), 1234);
        EXPECT_EQ(doc.find("cache_hits")->number(), 4);
        EXPECT_EQ(doc.find("cache_misses")->number(), 1);
        EXPECT_DOUBLE_EQ(doc.find("pool_task_us")->number(), 750.0);
        EXPECT_EQ(doc.find("fastpath_windows")->number(), 6);
        const obs::json::Value* spans = doc.find("serve_spans");
        ASSERT_NE(spans, nullptr);
        ASSERT_TRUE(spans->is_array());
        ASSERT_EQ(spans->array().size(), 2u);
        const obs::json::Value& s0 = spans->array()[0];
        EXPECT_EQ(s0.find("rank")->number(), 2);
        EXPECT_EQ(s0.find("leaf")->number(), 11);
        EXPECT_DOUBLE_EQ(s0.find("start_us")->number(), 1000.0);
        EXPECT_DOUBLE_EQ(s0.find("dur_us")->number(), 250.0);
        EXPECT_EQ(s0.find("bytes")->number(), 4096);
        EXPECT_TRUE(s0.find("cache_hit")->is_bool());
        EXPECT_TRUE(s0.find("cache_hit")->boolean());
        EXPECT_FALSE(spans->array()[1].find("cache_hit")->boolean());
    }
    ASSERT_TRUE(std::getline(lines, line));
    {
        const obs::json::Value doc = obs::json::parse(line);
        EXPECT_EQ(doc.find("schema")->string(), "bat-query-orphan-v1");
        EXPECT_EQ(doc.find("trace_id")->number(),
                  static_cast<double>(stray.trace_id));
        ASSERT_NE(doc.find("span"), nullptr);
        EXPECT_EQ(doc.find("span")->find("leaf")->number(), 12);
    }
    EXPECT_FALSE(std::getline(lines, line));
}

// The query log appends one JSONL line per finalized record.
TEST(QueryTraceTest, WriteQueryLogAppends) {
    testing::TempDir dir;
    TraceArmed armed;
    for (std::uint64_t i = 1; i <= 2; ++i) {
        obs::QueryRecord r;
        r.trace_id = (1ull << 40) | i;
        r.origin_rank = 0;
        r.op = "read.read_particles";
        r.wall_ns = 1'000'000;
        r.request_ns = 1'000'000;
        obs::query_finalize(r);
    }
    const auto path = dir.path() / "queries.jsonl";
    ASSERT_TRUE(obs::write_document(path, obs::query_log_jsonl()));
    std::ifstream in(path);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        EXPECT_NE(line.find("bat-query-v1"), std::string::npos);
        ++lines;
    }
    EXPECT_EQ(lines, 2);
}

}  // namespace
}  // namespace bat
