// Tests for the sampling CPU profiler (obs/prof.hpp): sample capture and
// span/query attribution, pool-origin propagation under work-helping, the
// bat-prof-v1 export and diff, BAT_OBS arming via re-exec, and interaction
// with the rest of the obs layer (flight records, span-tracking lifetime).
//
// Sampling is statistical, so assertions are deliberately lenient: tests
// burn enough CPU for dozens of expected samples and require only a few.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <ctime>
#include <set>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bat_builder.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"
#include "workloads/uniform.hpp"

using namespace bat;
using obs::json::Value;

namespace {

/// Burn roughly `cpu_ms` of CPU time (not wall time: the profiler's
/// per-thread timers tick on the CPU clock, so a descheduled thread on a
/// loaded CI box must keep spinning until it has actually consumed its
/// budget).
void burn_cpu(double cpu_ms) {
    const std::clock_t start = std::clock();
    const std::clock_t budget =
        static_cast<std::clock_t>(cpu_ms * CLOCKS_PER_SEC / 1000.0);
    volatile double sink = 0;
    while (std::clock() - start < budget) {
        for (int i = 0; i < 4096; ++i) {
            sink = sink + static_cast<double>(i) * 1e-9;
        }
    }
    (void)sink;
}

/// Fresh profiler state at a high sampling rate so short bursts of CPU
/// yield plenty of samples (1000 Hz is the clamp ceiling: 1 ms interval).
obs::ProfOptions fast_options() {
    obs::ProfOptions opts;
    opts.hz = 1000.0;
    opts.drain_interval = std::chrono::milliseconds(20);
    return opts;
}

std::uint64_t samples_for_stack(const std::vector<obs::ProfStackCount>& stacks,
                                const std::string& frame) {
    std::uint64_t total = 0;
    for (const obs::ProfStackCount& sc : stacks) {
        for (const std::string& f : sc.frames) {
            if (f == frame) {
                total += sc.samples;
                break;
            }
        }
    }
    return total;
}

}  // namespace

TEST(ProfTest, UnsupportedPlatformDegradesToNoops) {
    if (obs::profiler_supported()) {
        GTEST_SKIP() << "platform has per-thread CPU timers";
    }
    EXPECT_FALSE(obs::start_profiler());
    EXPECT_FALSE(obs::profiler_running());
    obs::attach_thread("main");
    EXPECT_EQ(obs::prof_totals().samples, 0u);
}

TEST(ProfTest, StartStopCollectsAttributedSamples) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    ASSERT_TRUE(obs::start_profiler(fast_options()));
    obs::reset_profiler();
    EXPECT_TRUE(obs::profiler_running());
    EXPECT_TRUE(obs::span_tracking_enabled());

    {
        obs::SpanScope outer("test.outer", "test");
        obs::SpanScope inner("test.inner", "test");
        burn_cpu(80);
    }
    obs::stop_profiler();
    EXPECT_FALSE(obs::profiler_running());

    const obs::ProfTotals totals = obs::prof_totals();
    // ~80 expected at 1000 Hz; require a handful.
    EXPECT_GE(totals.samples, 3u);
    EXPECT_GE(totals.attributed, 3u);
    EXPECT_EQ(totals.dropped, 0u);
    EXPECT_GT(totals.wall_seconds, 0.0);

    const auto stacks = obs::prof_stack_counts();
    EXPECT_GE(samples_for_stack(stacks, "test.inner"), 1u);
    // The span stack is ordered outermost-first in every aggregate.
    for (const obs::ProfStackCount& sc : stacks) {
        for (std::size_t i = 0; i + 1 < sc.frames.size(); ++i) {
            if (sc.frames[i] == "test.inner") {
                EXPECT_NE(sc.frames[i + 1], "test.outer");
            }
        }
    }
}

TEST(ProfTest, ReadOwnSpanStackReportsOpenSpans) {
    // Any span-stack reader arms tracking; a long-interval watchdog is one.
    obs::WatchdogOptions dog;
    dog.interval = std::chrono::seconds(60);
    obs::start_watchdog(dog);
    ASSERT_TRUE(obs::span_tracking_enabled());

    const char* frames[8] = {};
    EXPECT_EQ(obs::read_span_chain(frames, 8), 0);
    {
        obs::SpanScope a("unit.a", "test");
        {
            obs::SpanScope b("unit.b", "test");
            const int depth = obs::read_span_chain(frames, 8);
            ASSERT_EQ(depth, 2);
            EXPECT_STREQ(frames[0], "unit.a");
            EXPECT_STREQ(frames[1], "unit.b");
            // A caller with a smaller buffer gets a clamped prefix.
            const char* one[1] = {};
            EXPECT_EQ(obs::read_span_chain(one, 1), 1);
            EXPECT_STREQ(one[0], "unit.a");

            // Inside a task the chain is the task's origin plus the spans
            // the task opens; this thread's own frames are hidden.
            obs::SpanChain origin;
            origin.frames[0] = "origin.phase";
            origin.depth = 1;
            const obs::TaskScope task(origin);
            obs::SpanScope inner("unit.task", "test");
            ASSERT_EQ(obs::read_span_chain(frames, 8), 2);
            EXPECT_STREQ(frames[0], "origin.phase");
            EXPECT_STREQ(frames[1], "unit.task");
        }
        EXPECT_EQ(obs::read_span_chain(frames, 8), 1);
    }
    EXPECT_EQ(obs::read_span_chain(frames, 8), 0);
    obs::stop_watchdog();
}

TEST(ProfTest, QuerySamplesRollUpByTraceId) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    ASSERT_TRUE(obs::start_profiler(fast_options()));
    obs::reset_profiler();

    const obs::QueryContext ctx = obs::query_begin(3);
    {
        obs::QueryScope scope(ctx);
        obs::SpanScope span("test.query_burn", "test");
        burn_cpu(80);
    }
    obs::stop_profiler();

    // The bat-prof-v1 "queries" rollup carries the query's samples.
    double hits = 0;
    const Value doc = obs::json::parse(obs::profile_json());
    for (const Value& q : doc.find("queries")->array()) {
        if (q.find("trace_id")->number() == static_cast<double>(ctx.trace_id)) {
            hits = q.find("samples")->number();
        }
    }
    EXPECT_GE(hits, 1.0);
}

TEST(ProfTest, PoolWorkerSamplesCarryOriginSpan) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    ASSERT_TRUE(obs::start_profiler(fast_options()));
    obs::reset_profiler();

    // Explicit worker count: default_concurrency() is 0 on a single-core
    // box, which would run everything inline on the main thread and test
    // nothing about origin propagation.
    ThreadPool pool(2);
    {
        obs::SpanScope origin("test.pool_origin", "test");
        TaskGroup group(pool);
        for (int i = 0; i < 4; ++i) {
            group.run([] { burn_cpu(40); });
        }
        group.wait();
    }
    obs::stop_profiler();

    // Samples taken on pool workers (and on main while work-helping in
    // wait()) must attribute to the enqueuing span.
    const auto stacks = obs::prof_stack_counts();
    EXPECT_GE(samples_for_stack(stacks, "test.pool_origin"), 1u);
}

TEST(ProfTest, WorkHelpingSamplesNestUnderWriterChain) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    ASSERT_TRUE(obs::start_profiler(fast_options()));
    obs::reset_profiler();

    // A pool-backed build: workers run bat.* tasks, and the writer thread
    // helps with them inside its own bat.* phases while it waits.
    ThreadPool pool(2);
    const ParticleSet particles =
        make_uniform_particles(Box({0, 0, 0}, {1, 1, 1}), 200'000, 2, 5);
    for (int i = 0; i < 2; ++i) {
        obs::SpanScope writer("test.writer", "test");
        obs::PhaseSpan phase("write.bat_build", nullptr);
        build_bat(particles, BatConfig{}, &pool);
    }
    obs::stop_profiler();

    std::uint64_t bat_samples = 0;
    for (const obs::ProfStackCount& sc : obs::prof_stack_counts()) {
        std::string joined;
        for (const std::string& f : sc.frames) {
            joined += joined.empty() ? f : ";" + f;
        }
        std::set<std::string> seen;
        for (const std::string& f : sc.frames) {
            EXPECT_TRUE(seen.insert(f).second) << "label repeats in " << joined;
        }
        const auto bat = std::find_if(sc.frames.begin(), sc.frames.end(), [](const auto& f) {
            return f.rfind("bat.", 0) == 0;
        });
        if (bat == sc.frames.end()) {
            continue;
        }
        bat_samples += sc.samples;
        ASSERT_GE(bat - sc.frames.begin(), 2) << joined;
        EXPECT_EQ(sc.frames[0], "test.writer") << joined;
        EXPECT_EQ(sc.frames[1], "write.bat_build") << joined;
    }
    EXPECT_GE(bat_samples, 1u);
}

TEST(ProfTest, PoolCreatedBeforeStartIsSampled) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    // Workers spawned (and idle) before the profiler starts attach on their
    // next task.
    ThreadPool pool(2);
    {
        TaskGroup warm(pool);
        warm.run([] {});
        warm.wait();
    }
    ASSERT_TRUE(obs::start_profiler(fast_options()));
    obs::reset_profiler();
    constexpr int kTasks = 4;
    std::atomic<int> done{0};
    {
        TaskGroup group(pool);
        for (int i = 0; i < kTasks; ++i) {
            group.run([&done] {
                burn_cpu(40);
                done.fetch_add(1);
            });
        }
        // Leave every task to the workers instead of helping in wait().
        while (done.load() < kTasks) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        group.wait();
    }
    obs::stop_profiler();

    const Value doc = obs::json::parse(obs::profile_json());
    const Value* pool_kind = doc.find("kinds")->find("pool");
    ASSERT_NE(pool_kind, nullptr);
    EXPECT_GE(pool_kind->find("samples")->number(), 1.0);
}

TEST(ProfTest, ProfileJsonMatchesSchemaAndFeedsDiff) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    ASSERT_TRUE(obs::start_profiler(fast_options()));
    obs::reset_profiler();
    {
        obs::SpanScope span("test.json_burn", "test");
        burn_cpu(60);
    }
    obs::stop_profiler();

    const Value doc = obs::json::parse(obs::profile_json());
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->string(), "bat-prof-v1");
    EXPECT_EQ(doc.find("pid")->number(), static_cast<double>(::getpid()));
    EXPECT_DOUBLE_EQ(doc.find("hz")->number(), 1000.0);
    ASSERT_NE(doc.find("stacks"), nullptr);
    ASSERT_TRUE(doc.find("stacks")->is_array());
    EXPECT_GE(doc.find("samples")->number(), 1.0);

    bool found = false;
    for (const Value& s : doc.find("stacks")->array()) {
        std::string joined;
        for (const Value& f : s.find("frames")->array()) {
            if (!joined.empty()) {
                joined += ';';
            }
            joined += f.string();
        }
        if (joined.find("test.json_burn") != std::string::npos) {
            found = true;
            EXPECT_GE(s.find("samples")->number(), 1.0);
        }
    }
    EXPECT_TRUE(found);

    // A profile diffed against itself is all-zero deltas; against a doc
    // whose weight moved to one stack, that stack is flagged.
    const obs::ProfDiff self = obs::prof_diff(doc, doc, 5.0);
    EXPECT_TRUE(self.flagged.empty());

    const Value before = obs::json::parse(
        "{\"schema\":\"bat-prof-v1\",\"attributed\":100,\"stacks\":["
        "{\"rank\":0,\"frames\":[\"a\"],\"samples\":50},"
        "{\"rank\":0,\"frames\":[\"b\"],\"samples\":50}]}");
    const Value after = obs::json::parse(
        "{\"schema\":\"bat-prof-v1\",\"attributed\":100,\"stacks\":["
        "{\"rank\":0,\"frames\":[\"a\"],\"samples\":20},"
        "{\"rank\":1,\"frames\":[\"b\"],\"samples\":30},"
        "{\"rank\":0,\"frames\":[\"b\"],\"samples\":50}]}");
    const obs::ProfDiff diff = obs::prof_diff(before, after, 5.0);
    EXPECT_EQ(diff.before_samples, 100u);
    EXPECT_EQ(diff.after_samples, 100u);
    ASSERT_EQ(diff.flagged.size(), 2u);  // a: -30 pts, b (rank-merged): +30 pts
    EXPECT_EQ(diff.entries.front().stack, diff.flagged.front().stack);
}

TEST(ProfTest, FlightRecordIncludesProfProviderWhileRunning) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    ASSERT_TRUE(obs::start_profiler(fast_options()));
    {
        obs::SpanScope span("test.flight_burn", "test");
        burn_cpu(30);
    }
    const Value record = obs::json::parse(obs::flight_record_json("unit-test"));
    bool found = false;
    const Value* subsystems = record.find("subsystems");
    ASSERT_NE(subsystems, nullptr);
    for (const Value& sub : subsystems->array()) {
        if (sub.find("name") != nullptr && sub.find("name")->string() == "prof") {
            found = true;
        }
    }
    EXPECT_TRUE(found);
    obs::stop_profiler();

    // After stop, the provider is gone from fresh flight records.
    const Value after = obs::json::parse(obs::flight_record_json("unit-test"));
    for (const Value& sub : after.find("subsystems")->array()) {
        if (sub.find("name") != nullptr) {
            EXPECT_NE(sub.find("name")->string(), "prof");
        }
    }
}

TEST(ProfTest, ResetDropsAggregatesButKeepsRunning) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    ASSERT_TRUE(obs::start_profiler(fast_options()));
    {
        obs::SpanScope span("test.reset_burn", "test");
        burn_cpu(50);
    }
    obs::reset_profiler();
    EXPECT_TRUE(obs::profiler_running());
    obs::stop_profiler();
    // Only whatever trickled in between reset and stop remains — strictly
    // fewer than the 50 ms burn produced, typically zero.
    EXPECT_LT(obs::prof_totals().samples, 10u);
}

TEST(ProfTest, StopKeepsSpanTrackingForArmedHealthLayer) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    // Symmetric with stop_watchdog: whichever obs layer stops last turns
    // span tracking off, and neither turns it off under the other.
    obs::WatchdogOptions dog;
    dog.interval = std::chrono::seconds(60);
    obs::start_watchdog(dog);
    ASSERT_TRUE(obs::start_profiler(fast_options()));
    EXPECT_TRUE(obs::span_tracking_enabled());

    obs::stop_watchdog();
    EXPECT_TRUE(obs::span_tracking_enabled()) << "profiler still sampling";
    obs::stop_profiler();
    // Flight records (armed whenever BAT_OBS is set) keep reading stacks.
    EXPECT_EQ(obs::span_tracking_enabled(), (obs::components() & obs::kFlight) != 0);
}

// Child body for the env re-exec test below: burns CPU inside a span on the
// main thread, which BAT_OBS=prof samples from process start. Trivial when
// run normally — no profiler is started.
TEST(ProfTest, RegisterAndBurn) {
    obs::attach_thread("main");
    obs::SpanScope span("test.env_burn", "test");
    burn_cpu(100);
}

TEST(ProfEnvTest, EnvArmedProcessWritesProfileWithPidExpansion) {
    if (!obs::profiler_supported()) {
        GTEST_SKIP() << "no per-thread CPU timers on this platform";
    }
    // Re-exec this binary with BAT_OBS=prof: a fresh process must sample
    // from start-up, run a CPU-burning test, and write a valid bat-prof-v1
    // document at exit into its pid-named bundle.
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    ASSERT_GT(n, 0);
    exe[n] = '\0';

    const bat::testing::TempDir dir;
    std::ostringstream cmd;
    cmd << "BAT_OBS=prof BAT_OBS_DIR='" << dir.path().string() << "' timeout 60 '" << exe
        << "' --gtest_filter=ProfTest.RegisterAndBurn"
        << " >/dev/null 2>&1";
    const int status = std::system(cmd.str().c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // One bat-obs-<pid> bundle from the child (we don't know its pid; glob).
    std::vector<std::filesystem::path> written;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
        written.push_back(entry.path());
    }
    ASSERT_EQ(written.size(), 1u);
    EXPECT_EQ(written.front().filename().string().find("bat-obs-"), 0u);
    EXPECT_NE(written.front().filename().string(), "bat-obs-" + std::to_string(::getpid()));

    std::ifstream in(written.front() / "prof.json");
    std::stringstream buf;
    buf << in.rdbuf();
    const Value doc = obs::json::parse(buf.str());
    EXPECT_EQ(doc.find("schema")->string(), "bat-prof-v1");
    EXPECT_DOUBLE_EQ(doc.find("hz")->number(), 97.0);
    EXPECT_GE(doc.find("samples")->number(), 1.0);
}
