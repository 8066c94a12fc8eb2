// Tests for the observability layer (docs/OBSERVABILITY.md): span tracer +
// Chrome-trace export/validation, the JSON parser and writer, the metrics
// registry, the obs runtime's thread registry, and the traced 8-rank
// write+query round trip that CI feeds through `bat_obs validate`.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "io/data_service.hpp"
#include "io/reader.hpp"
#include "io/writer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/runtime.hpp"
#include "obs/trace.hpp"
#include "simio/pipeline_model.hpp"
#include "simio/machine.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

using obs::json::Value;

const Box kDomain({0, 0, 0}, {2, 2, 2});

/// Fresh tracing state for a test (each gtest test runs in its own process
/// under ctest, but the full binary can also run every test in sequence).
void fresh_trace(bool enabled) {
    obs::set_trace_enabled(false);
    obs::reset_trace();
    obs::set_trace_enabled(enabled);
}

struct Span {
    std::string cat;
    int count = 0;
    double total_us = 0;
};

/// Matched B/E pairs per name (validation is done separately; this helper
/// assumes a valid trace).
std::map<std::string, Span> spans_by_name(const Value& root) {
    std::map<std::string, Span> out;
    std::map<std::pair<long, long>, std::vector<std::pair<std::string, double>>> stacks;
    const Value* events = root.find("traceEvents");
    if (events == nullptr) {
        return out;
    }
    for (const Value& ev : events->array()) {
        const Value* ph = ev.find("ph");
        const Value* name = ev.find("name");
        const Value* ts = ev.find("ts");
        const Value* pid = ev.find("pid");
        const Value* tid = ev.find("tid");
        if (ph == nullptr || name == nullptr || ts == nullptr || pid == nullptr ||
            tid == nullptr) {
            continue;
        }
        const std::pair<long, long> track{static_cast<long>(pid->number()),
                                          static_cast<long>(tid->number())};
        if (ph->string() == "B") {
            stacks[track].emplace_back(name->string(), ts->number());
        } else if (ph->string() == "E") {
            auto& stack = stacks[track];
            if (stack.empty()) {
                ADD_FAILURE() << "unbalanced end event " << name->string();
                continue;
            }
            Span& s = out[name->string()];
            if (const Value* cat = ev.find("cat"); cat != nullptr) {
                s.cat = cat->string();
            }
            s.count += 1;
            s.total_us += ts->number() - stack.back().second;
            stack.pop_back();
        }
    }
    return out;
}

Value parse_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return obs::json::parse(os.str());
}

// ---- JSON parser ----------------------------------------------------------

TEST(ObsJsonTest, ParsesScalarsArraysObjects) {
    const Value v = obs::json::parse(
        R"({"i": 42, "f": -2.5e2, "t": true, "n": null, "s": "a\"b\\c\nd",)"
        R"( "arr": [1, [2], {"k": 3}]})");
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.find("i")->number(), 42.0);
    EXPECT_EQ(v.find("f")->number(), -250.0);
    EXPECT_TRUE(v.find("t")->boolean());
    EXPECT_TRUE(v.find("n")->is_null());
    EXPECT_EQ(v.find("s")->string(), "a\"b\\c\nd");
    const Value& arr = *v.find("arr");
    ASSERT_EQ(arr.array().size(), 3u);
    EXPECT_EQ(arr.array()[1].array()[0].number(), 2.0);
    EXPECT_EQ(arr.array()[2].find("k")->number(), 3.0);
}

TEST(ObsJsonTest, ParsesEscapeSequences) {
    EXPECT_EQ(obs::json::parse(R"("Aé\n")").string(), "A\xc3\xa9\n");
    EXPECT_EQ(obs::json::parse(R"("Aé\t")").string(), "A\xc3\xa9\t");
}

TEST(ObsJsonTest, RejectsMalformedInput) {
    EXPECT_THROW(obs::json::parse("{"), Error);
    EXPECT_THROW(obs::json::parse("[1,]"), Error);
    EXPECT_THROW(obs::json::parse("{\"a\": 1} trailing"), Error);
    EXPECT_THROW(obs::json::parse("nulll"), Error);
    EXPECT_THROW(obs::json::parse(""), Error);
}

// ---- tracer ---------------------------------------------------------------

TEST(ObsTraceTest, DisabledScopeEmitsNothing) {
    fresh_trace(false);
    for (int i = 0; i < 100; ++i) {
        BAT_TRACE_SCOPE("quiet");
    }
    const Value root = obs::json::parse(obs::chrome_trace_json());
    const obs::TraceCheck check = obs::validate_chrome_trace(root);
    EXPECT_TRUE(check.ok) << check.error;
    EXPECT_EQ(check.num_events, 0);
    EXPECT_EQ(obs::dropped_events(), 0u);
}

TEST(ObsTraceTest, NestedSpansExportBalanced) {
    fresh_trace(true);
    {
        BAT_TRACE_SCOPE("outer");
        {
            BAT_TRACE_SCOPE_CAT("inner", "test");
        }
        obs::emit_instant("tick", "test");
    }
    obs::set_trace_enabled(false);
    const Value root = obs::json::parse(obs::chrome_trace_json());
    const obs::TraceCheck check = obs::validate_chrome_trace(root);
    ASSERT_TRUE(check.ok) << check.error;
    EXPECT_EQ(check.num_spans, 2);
    EXPECT_EQ(check.num_events, 5);  // 2B + 2E + 1 instant
    const std::map<std::string, Span> spans = spans_by_name(root);
    EXPECT_EQ(spans.at("inner").cat, "test");
    EXPECT_LE(spans.at("inner").total_us, spans.at("outer").total_us);
}

TEST(ObsTraceTest, FlowEventsPairUp) {
    fresh_trace(true);
    const std::uint64_t flow = obs::next_flow_id();
    obs::emit_begin("send", "t");
    obs::emit_flow_start("t", flow);
    obs::emit_end("send", "t");
    obs::emit_begin("recv", "t");
    obs::emit_flow_end("t", flow);
    obs::emit_end("recv", "t");
    obs::set_trace_enabled(false);
    const Value root = obs::json::parse(obs::chrome_trace_json());
    const obs::TraceCheck check = obs::validate_chrome_trace(root);
    ASSERT_TRUE(check.ok) << check.error;
    EXPECT_EQ(check.num_flows, 1);
}

TEST(ObsTraceTest, ValidateRejectsUnbalancedTrace) {
    const Value missing_end = obs::json::parse(
        R"({"traceEvents":[{"name":"a","cat":"x","ph":"B","ts":1,"pid":1,"tid":1}]})");
    EXPECT_FALSE(obs::validate_chrome_trace(missing_end).ok);

    const Value wrong_name = obs::json::parse(
        R"({"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},)"
        R"({"name":"b","ph":"E","ts":2,"pid":1,"tid":1}]})");
    EXPECT_FALSE(obs::validate_chrome_trace(wrong_name).ok);

    const Value orphan_flow = obs::json::parse(
        R"({"traceEvents":[{"name":"m","ph":"f","ts":1,"pid":1,"tid":1,"id":7}]})");
    EXPECT_FALSE(obs::validate_chrome_trace(orphan_flow).ok);
}

TEST(ObsTraceTest, RingOverflowCountsDropped) {
    fresh_trace(true);
    const std::size_t emitted = obs::kTraceRingEvents + 1000;
    for (std::size_t i = 0; i < emitted; ++i) {
        obs::emit_instant("spin", "test");
    }
    obs::set_trace_enabled(false);
    EXPECT_EQ(obs::dropped_events(), 1000u);
    const Value root = obs::json::parse(obs::chrome_trace_json());
    EXPECT_EQ(root.find("otherData")->find("dropped_events")->number(), 1000.0);
    // reset_trace starts a fresh window: nothing is dropped or exported.
    obs::reset_trace();
    EXPECT_EQ(obs::dropped_events(), 0u);
    EXPECT_EQ(obs::validate_chrome_trace(obs::json::parse(obs::chrome_trace_json())).num_events,
              0);
}

TEST(ObsTraceTest, SuccessiveRunsKeepEveryThreadsEvents) {
    // Each run's rank thread reuses the previous one's record; together the
    // runs emit more than one ring's worth, and none of it may be lost.
    fresh_trace(true);
    constexpr int kRuns = 3;
    constexpr int kSpansPerRun = 25'000;  // 50,000 events per rank thread
    for (int run = 0; run < kRuns; ++run) {
        vmpi::Runtime::run(1, [](vmpi::Comm&) {
            for (int i = 0; i < kSpansPerRun; ++i) {
                BAT_TRACE_SCOPE("test.event");
            }
        });
    }
    obs::set_trace_enabled(false);
    static_assert(kRuns * 2 * kSpansPerRun > obs::kTraceRingEvents);
    EXPECT_EQ(obs::dropped_events(), 0u);
    const obs::TraceCheck check =
        obs::validate_chrome_trace(obs::json::parse(obs::chrome_trace_json()));
    ASSERT_TRUE(check.ok) << check.error;
    EXPECT_GE(check.num_spans, kRuns * kSpansPerRun);
    obs::reset_trace();
    EXPECT_EQ(obs::validate_chrome_trace(obs::json::parse(obs::chrome_trace_json())).num_events,
              0);
}

TEST(ObsTraceTest, PhaseSpanAccumulatesWithTracingOff) {
    fresh_trace(false);
    double acc = 0;
    {
        obs::PhaseSpan span("work", &acc);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(acc, 0.005);
    {
        obs::PhaseSpan span("work", &acc);  // close() is idempotent
        span.close();
        span.close();
    }
    const Value root = obs::json::parse(obs::chrome_trace_json());
    EXPECT_EQ(obs::validate_chrome_trace(root).num_events, 0);
}

// ---- metrics --------------------------------------------------------------

TEST(ObsMetricsTest, HistogramEdgesAreInclusive) {
    obs::Histogram h({1.0, 2.0, 4.0});
    h.record(2.0);   // == edge -> bucket 1
    h.record(2.1);   // -> bucket 2
    h.record(0.5);   // -> bucket 0
    h.record(99.0);  // -> overflow
    const auto counts = h.bucket_counts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
}

TEST(ObsMetricsTest, PercentileEdgeCases) {
    // Empty histogram: every quantile is 0 by contract.
    obs::Histogram empty({1.0, 10.0});
    EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(1.0), 0.0);

    // Single sample: every quantile collapses to that sample (interpolation
    // is clamped to the observed [min, max]).
    obs::Histogram one({1.0, 10.0, 100.0});
    one.record(7.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(one.percentile(1.0), 7.0);

    // All samples past the last edge land in the overflow bucket, whose
    // missing upper edge is the observed max — estimates must stay inside
    // [min, max], not run off to infinity.
    obs::Histogram over({1.0, 2.0});
    over.record(50.0);
    over.record(70.0);
    over.record(90.0);
    EXPECT_GE(over.percentile(0.5), 50.0);
    EXPECT_LE(over.percentile(0.5), 90.0);
    EXPECT_DOUBLE_EQ(over.percentile(1.0), 90.0);

    // p0 / p100 pin to the observed extremes even when the samples occupy
    // a bucket interior, and out-of-range q clamps instead of misbehaving.
    obs::Histogram h({1.0, 10.0, 100.0});
    h.record(3.0);
    h.record(5.0);
    h.record(42.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
    // Monotone in q.
    double prev = h.percentile(0.0);
    for (double q = 0.1; q <= 1.0; q += 0.1) {
        const double v = h.percentile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(ObsMetricsTest, JsonExportCarriesEveryKind) {
    obs::MetricsRegistry reg;
    reg.counter("requests").add(17);
    reg.gauge("load").set(0.625);
    reg.histogram("lat", {1, 2, 4}).record(1.5);
    reg.histogram("lat", {1, 2, 4}).record(3.0);
    const Value v = obs::json::parse(reg.to_json());
    EXPECT_EQ(v.find("counters")->find("requests")->number(), 17.0);
    EXPECT_EQ(v.find("gauges")->find("load")->number(), 0.625);
    const Value* lat = v.find("histograms")->find("lat");
    EXPECT_EQ(lat->find("count")->number(), 2.0);
    ASSERT_EQ(lat->find("buckets")->array().size(), 4u);
    EXPECT_EQ(lat->find("buckets")->array()[3].find("le")->string(), "inf");
}

TEST(ObsJsonTest, WriterEscapesAndSeparates) {
    std::string out;
    obs::json::Writer w(out);
    w.begin_object().field("s", "a\"b\\c\n\x01").field("i", -3).field("u", 7u);
    w.field("f", 2.5).field("b", true).key("arr").begin_array().value(1).value("x");
    w.begin_object().end_object().end_array().key("raw").raw("[null]").end_object();
    const Value v = obs::json::parse(out);
    EXPECT_EQ(v.find("s")->string(), "a\"b\\c\n\x01");
    EXPECT_EQ(v.find("i")->number(), -3.0);
    EXPECT_EQ(v.find("u")->number(), 7.0);
    EXPECT_EQ(v.find("f")->number(), 2.5);
    EXPECT_TRUE(v.find("b")->boolean());
    ASSERT_EQ(v.find("arr")->array().size(), 3u);
    EXPECT_TRUE(v.find("raw")->array()[0].is_null());
}

// ---- runtime: one thread registry ------------------------------------------

TEST(ObsRuntimeTest, RecordsNeverExceedPeakLiveThreads) {
    // Under the BAT_OBS re-exec below every component is armed from the
    // environment; run alone, arm the per-thread ones by hand so every rank
    // thread takes a record either way.
    const bool env_armed = !obs::bundle_dir().empty();
    if (!env_armed) {
        obs::set_trace_enabled(true);
        obs::start_profiler();
    }
    for (int run = 0; run < 500; ++run) {
        vmpi::Runtime::run(4, [](vmpi::Comm& comm) {
            BAT_TRACE_SCOPE("test.run");
            comm.barrier();
        });
        const obs::ThreadRegistryStats stats = obs::thread_registry_stats();
        ASSERT_LE(stats.records, stats.peak_live) << "after run " << run;
    }
    // Finished rank threads hand their records back: 2000 rank threads
    // over the test, a handful of records.
    const obs::ThreadRegistryStats stats = obs::thread_registry_stats();
    EXPECT_GE(stats.records, 1u);
    EXPECT_LE(stats.records, 8u);
    if (!env_armed) {
        obs::stop_profiler();
        fresh_trace(false);
    }
}

TEST(ObsRuntimeTest, EnvArmedRunWritesOneBundle) {
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    ASSERT_GT(n, 0);
    exe[n] = '\0';
    const testing::TempDir dir;
    std::ostringstream cmd;
    cmd << "BAT_OBS=trace,report,query,prof,watchdog BAT_OBS_DIR='" << dir.path().string()
        << "' timeout 600 '" << exe
        << "' --gtest_filter=ObsRuntimeTest.RecordsNeverExceedPeakLiveThreads"
        << " >/dev/null 2>&1";
    const int status = std::system(cmd.str().c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    std::vector<std::filesystem::path> bundles;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
        bundles.push_back(entry.path());
    }
    ASSERT_EQ(bundles.size(), 1u);
    EXPECT_EQ(bundles[0].filename().string().rfind("bat-obs-", 0), 0u);
    const Value manifest = parse_file(bundles[0] / "manifest.json");
    EXPECT_EQ(manifest.find("schema")->string(), "bat-obs-v1");
    EXPECT_EQ(manifest.find("components")->array().size(), 5u);
    const Value* docs = manifest.find("documents");
    for (const char* doc : {"metrics", "trace", "report", "query"}) {
        ASSERT_NE(docs->find(doc), nullptr) << doc;
        EXPECT_TRUE(std::filesystem::exists(bundles[0] / docs->find(doc)->string())) << doc;
    }
    const obs::TraceCheck check =
        obs::validate_chrome_trace(parse_file(bundles[0] / "trace.json"));
    EXPECT_TRUE(check.ok) << check.error;
    EXPECT_EQ(parse_file(bundles[0] / "report.json").find("schema")->string(),
              "bat-report-v1");
    if (obs::profiler_supported()) {
        EXPECT_EQ(parse_file(bundles[0] / "prof.json").find("schema")->string(),
                  "bat-prof-v1");
    }
}

// ---- simio virtual tracks -------------------------------------------------

TEST(ObsSimioTest, ModeledPhasesMatchTraceSpans) {
    fresh_trace(true);
    const GridDecomp decomp = grid_decomp_3d(16, kDomain);
    const std::vector<std::uint64_t> counts(16, 2000);
    const std::vector<RankInfo> infos = make_rank_infos(decomp, counts);
    simio::TwoPhaseParams params;
    params.machine = simio::stampede2_like();
    params.tree.target_file_size = 1 << 20;
    params.tree.bytes_per_particle = 124;
    const simio::SimResult result = simio::simulate_write(infos, params);
    obs::set_trace_enabled(false);

    const Value root = obs::json::parse(obs::chrome_trace_json());
    const obs::TraceCheck check = obs::validate_chrome_trace(root);
    ASSERT_TRUE(check.ok) << check.error;
    const std::map<std::string, Span> spans = spans_by_name(root);
    for (const char* phase : {"gather", "tree_build", "scatter", "transfer",
                              "bat_build", "file_write", "metadata"}) {
        ASSERT_TRUE(spans.count(phase)) << phase;
        EXPECT_EQ(spans.at(phase).cat, "simio");
        EXPECT_NEAR(spans.at(phase).total_us / 1e6, result.phase_seconds(phase),
                    1e-6 + 0.001 * result.phase_seconds(phase))
            << phase;
    }
}

// ---- the traced end-to-end pipeline (CI validates it with bat_obs) -------

TEST(TraceRoundTrip, EightRankWriteAndQueryProducesValidTrace) {
    fresh_trace(true);
    obs::MetricsRegistry::global().clear();

    const testing::TempDir dir;
    const int nranks = 8;
    const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);
    const ParticleSet global = make_uniform_particles(kDomain, 24'000, 3, 7);
    const std::vector<ParticleSet> per_rank = partition_particles(global, decomp);
    ThreadPool pool(2);

    std::filesystem::path meta_path;
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        const int r = comm.rank();
        WriterConfig config;
        config.directory = dir.path();
        config.basename = "traced";
        config.tree.target_file_size = 64 << 10;
        config.pool = &pool;
        const WriteResult wr = write_particles(
            comm, per_rank[static_cast<std::size_t>(r)], decomp.rank_box(r), config);
        if (r == 0) {
            meta_path = wr.metadata_path;
        }
        // A guaranteed pool task, so pool.task spans appear even if the
        // builder chose not to parallelize at this size.
        TaskGroup group(pool);
        group.run([] {});
        group.wait();

        read_particles(comm, wr.metadata_path, decomp.rank_read_box(r));

        DataService service(comm, wr.metadata_path);
        BatQuery query;
        query.box = decomp.rank_read_box(r);
        query.inclusive_upper = false;
        service.query_round(query);
    });
    obs::set_trace_enabled(false);

    // Export through the file path (what the BAT_OBS exit hook does).
    const auto trace_path = dir.path() / "trace.json";
    const auto metrics_path = dir.path() / "metrics.json";
    obs::write_document(trace_path, obs::chrome_trace_json());
    obs::write_document(metrics_path, obs::MetricsRegistry::global().to_json());

    EXPECT_EQ(obs::dropped_events(), 0u);
    const Value root = parse_file(trace_path);
    const obs::TraceCheck check = obs::validate_chrome_trace(root);
    ASSERT_TRUE(check.ok) << check.error;
    EXPECT_EQ(check.num_ranks, nranks);
    EXPECT_GT(check.num_flows, 0);
    EXPECT_GT(check.num_spans, 0);

    const std::map<std::string, Span> spans = spans_by_name(root);
    for (const char* required :
         {"write.gather", "write.tree_build", "write.scatter", "write.transfer",
          "write.bat_build", "write.file_write", "write.serialize", "write.metadata",
          "read.metadata", "read.request", "read.serve", "read.merge", "read.local",
          "service.query_round", "vmpi.send", "vmpi.recv", "vmpi.gatherv", "vmpi.scatterv",
          "pool.task"}) {
        EXPECT_TRUE(spans.count(required)) << "missing span: " << required;
    }
    // One write phase set per rank.
    EXPECT_EQ(spans.at("write.gather").count, nranks);
    EXPECT_EQ(spans.at("service.query_round").count, nranks);

    // The metrics export parses and carries the pipeline's counters.
    const Value metrics = parse_file(metrics_path);
    EXPECT_GT(metrics.find("counters")->find("write.bytes_written")->number(), 0.0);
    // Transfer-phase accounting: every particle payload reaching an
    // aggregator (wire or self fast path) is counted, and wire messages
    // land in the size histogram.
    EXPECT_GT(metrics.find("counters")->find("write.transfer_bytes")->number(), 0.0);
    const Value* msg_hist = metrics.find("histograms")->find("write.transfer_msg_bytes");
    ASSERT_NE(msg_hist, nullptr);
    EXPECT_GE(msg_hist->find("count")->number(), 1.0);
    EXPECT_EQ(metrics.find("counters")->find("service.rounds")->number(),
              static_cast<double>(nranks));
    EXPECT_EQ(metrics.find("counters")->find("service.particles_served")->number(),
              static_cast<double>(global.count()));
    const Value* pool_hist = metrics.find("histograms")->find("pool.run_us");
    ASSERT_NE(pool_hist, nullptr);
    EXPECT_GE(pool_hist->find("count")->number(), 8.0);
}

}  // namespace
}  // namespace bat
