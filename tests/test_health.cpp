// Tests for the run-health layer (docs/OBSERVABILITY.md): progress epochs,
// the stall watchdog, flight-recorder dumps, and bat-report-v1 run reports.
//
// The two stall tests run with tracing OFF: a flight-record dump reads the
// tails of the trace rings, which is only race-free when no thread is
// concurrently appending events. (Production crash dumps have the same
// property trivially — the process is dying.)

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/reader.hpp"
#include "io/writer.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/comm.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

using obs::json::Value;
using namespace std::chrono_literals;

const Box kDomain({0, 0, 0}, {2, 2, 2});

Value parse_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return obs::json::parse(os.str());
}

/// Quiesce health + trace state. Each gtest test runs in its own process
/// under ctest, but the full binary can also run every test in sequence.
void fresh_health() {
    obs::stop_watchdog();
    obs::set_trace_enabled(false);
    obs::reset_trace();
    obs::reset_run_report();
    obs::MetricsRegistry::global().clear();
}

bool contains_rank(const std::vector<int>& ranks, int r) {
    return std::find(ranks.begin(), ranks.end(), r) != ranks.end();
}

/// stuck_ranks of a flight record as ints.
std::vector<int> flight_stuck_ranks(const Value& record) {
    std::vector<int> out;
    const Value* stuck = record.find("stuck_ranks");
    if (stuck != nullptr && stuck->is_array()) {
        for (const Value& v : stuck->array()) {
            out.push_back(static_cast<int>(v.number()));
        }
    }
    return out;
}

// ---- unit pieces ----------------------------------------------------------

TEST(HealthUnitTest, ExpandOutputPathSubstitutesPid) {
    const std::string pid = std::to_string(::getpid());
    EXPECT_EQ(obs::expand_output_path("plain.json"), "plain.json");
    EXPECT_EQ(obs::expand_output_path("flight_%p.json"), "flight_" + pid + ".json");
    EXPECT_EQ(obs::expand_output_path("%p/%p"), pid + "/" + pid);
    EXPECT_EQ(obs::expand_output_path(""), "");
    EXPECT_EQ(obs::expand_output_path("%p"), pid);
    // A lone '%' or unknown escape passes through untouched.
    EXPECT_EQ(obs::expand_output_path("50%_%q.json"), "50%_%q.json");
    EXPECT_EQ(obs::expand_output_path("trailing%"), "trailing%");
}

TEST(HealthUnitTest, DiagProvidersAppearInFlightRecordsUntilUnregistered) {
    const std::uint64_t id = obs::register_diag_provider(
        "unit_probe", [] { return std::string("{\"answer\":42}"); });

    const Value record = obs::json::parse(obs::flight_record_json("unit-test"));
    ASSERT_NE(record.find("schema"), nullptr);
    EXPECT_EQ(record.find("schema")->string(), "bat-flight-v1");
    EXPECT_EQ(record.find("reason")->string(), "unit-test");

    const Value* subsystems = record.find("subsystems");
    ASSERT_NE(subsystems, nullptr);
    ASSERT_TRUE(subsystems->is_array());
    bool found = false;
    for (const Value& sub : subsystems->array()) {
        if (sub.find("name")->string() != "unit_probe") {
            continue;
        }
        found = true;
        const Value* state = sub.find("state");
        ASSERT_NE(state, nullptr);
        EXPECT_EQ(state->find("answer")->number(), 42.0);
    }
    EXPECT_TRUE(found);

    obs::unregister_diag_provider(id);
    const Value after = obs::json::parse(obs::flight_record_json("unit-test"));
    for (const Value& sub : after.find("subsystems")->array()) {
        EXPECT_NE(sub.find("name")->string(), "unit_probe");
    }
}

TEST(HealthUnitTest, DumpFlightRecordWritesParseableJsonWithPidExpansion) {
    const testing::TempDir dir;
    ASSERT_TRUE(obs::dump_flight_record("explicit-test", dir.path() / "flight_%p.json"));

    const auto expanded =
        dir.path() / ("flight_" + std::to_string(::getpid()) + ".json");
    ASSERT_TRUE(std::filesystem::exists(expanded));
    const Value record = parse_file(expanded);
    EXPECT_EQ(record.find("schema")->string(), "bat-flight-v1");
    EXPECT_EQ(record.find("reason")->string(), "explicit-test");
    for (const char* section : {"ranks", "threads", "subsystems", "trace_tail"}) {
        const Value* v = record.find(section);
        ASSERT_NE(v, nullptr) << section;
        EXPECT_TRUE(v->is_array()) << section;
    }
    EXPECT_NE(record.find("metrics"), nullptr);
}

TEST(HealthUnitTest, RunReportAccountsMessagesAndRankValues) {
    fresh_health();
    obs::note_send(0, 128);
    obs::note_recv(1, 96);
    obs::note_collective(0);
    obs::note_leaves_served(1, 3);
    obs::note_pool_task();
    obs::record_rank_value("unit.bytes", 1000);

    const Value report = obs::json::parse(obs::run_report_json());
    EXPECT_EQ(report.find("schema")->string(), "bat-report-v1");
    EXPECT_GT(report.find("run")->find("wall_seconds")->number(), 0.0);

    const Value* msgs = report.find("messages");
    ASSERT_NE(msgs, nullptr);
    EXPECT_EQ(msgs->find("sends")->number(), 1.0);
    EXPECT_EQ(msgs->find("send_bytes")->number(), 128.0);
    EXPECT_EQ(msgs->find("recvs")->number(), 1.0);
    EXPECT_EQ(msgs->find("recv_bytes")->number(), 96.0);
    EXPECT_EQ(msgs->find("collectives")->number(), 1.0);
    EXPECT_EQ(msgs->find("leaves_served")->number(), 3.0);
    EXPECT_EQ(report.find("pool")->find("tasks")->number(), 1.0);

    const Value* io = report.find("io")->find("unit.bytes");
    ASSERT_NE(io, nullptr);
    EXPECT_EQ(io->find("total")->number(), 1000.0);

    // reset drops every accumulator.
    obs::reset_run_report();
    const Value empty = obs::json::parse(obs::run_report_json());
    EXPECT_EQ(empty.find("messages")->find("sends")->number(), 0.0);
    EXPECT_EQ(empty.find("io")->find("unit.bytes"), nullptr);
}

TEST(HealthEnvTest, EnvArmedWatchdogAndReportExitCleanly) {
    // Regression: env arming used to start the watchdog from inside a
    // call_once body that the start path re-entered, deadlocking the first
    // health call of any env-armed process. Re-exec this binary with
    // BAT_OBS arming the watchdog and the report: a fresh process must
    // start the watchdog, run, and exit cleanly with the exit hook writing
    // the run report into its bundle.
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    ASSERT_GT(n, 0);
    exe[n] = '\0';

    const testing::TempDir dir;
    std::ostringstream cmd;
    cmd << "BAT_OBS=watchdog,report BAT_OBS_DIR='" << dir.path().string()
        << "' timeout 30 '" << exe
        << "' --gtest_filter=HealthUnitTest.RunReportAccountsMessagesAndRankValues"
        << " >/dev/null 2>&1";
    const int status = std::system(cmd.str().c_str());
    ASSERT_TRUE(WIFEXITED(status));
    // 124 is timeout(1)'s exit code: the env-armed process hung.
    EXPECT_EQ(WEXITSTATUS(status), 0);

    std::vector<std::filesystem::path> bundles;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
        bundles.push_back(entry.path());
    }
    ASSERT_EQ(bundles.size(), 1u);
    EXPECT_EQ(parse_file(bundles[0] / "report.json").find("schema")->string(),
              "bat-report-v1");
    EXPECT_TRUE(std::filesystem::exists(bundles[0] / "manifest.json"));
}

TEST(WatchdogTest, StartStopIsIdempotent) {
    fresh_health();
    EXPECT_FALSE(obs::watchdog_running());

    obs::WatchdogOptions opts;
    opts.interval = 50ms;
    obs::start_watchdog(opts);
    EXPECT_TRUE(obs::watchdog_running());
    EXPECT_TRUE(obs::span_tracking_enabled());
    EXPECT_TRUE(obs::health_armed());
    obs::start_watchdog(opts);  // restart while running
    EXPECT_TRUE(obs::watchdog_running());

    obs::stop_watchdog();
    EXPECT_FALSE(obs::watchdog_running());
    obs::stop_watchdog();  // no-op
    EXPECT_FALSE(obs::watchdog_running());
    EXPECT_EQ(obs::watchdog_trips(), 0u);
}

// ---- stall detection ------------------------------------------------------

TEST(WatchdogTest, NeverMatchedRecvIsDiagnosedWithStuckRankAndFlightRecord) {
    fresh_health();
    const testing::TempDir dir;
    const auto flight_path = dir.path() / "flight.json";

    std::mutex mu;
    std::vector<obs::StallReport> reports;
    obs::WatchdogOptions opts;
    opts.interval = 100ms;
    opts.stale_intervals = 2;
    opts.flight_record_path = flight_path;
    opts.on_stall = [&](const obs::StallReport& r) {
        const std::lock_guard<std::mutex> lock(mu);
        reports.push_back(r);
    };
    obs::start_watchdog(opts);

    vmpi::Runtime::run(4, [](vmpi::Comm& comm) {
        if (comm.rank() == 1) {
            // Blocks until rank 0 finally sends; the watchdog must fire in
            // the interim and name this rank with its pending irecv.
            vmpi::Bytes buf;
            comm.irecv(0, 9, buf).wait();
        } else if (comm.rank() == 0) {
            std::this_thread::sleep_for(1200ms);
            const std::array<std::byte, 4> payload{};
            comm.send(1, 9, payload);
        }
        // Ranks 2 and 3 return immediately: only genuinely active ranks may
        // be reported stuck.
    });
    obs::stop_watchdog();

    // One stall, one diagnosis (re-armed only by progress).
    EXPECT_EQ(obs::watchdog_trips(), 1u);
    const std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(reports.size(), 1u);
    const obs::StallReport& report = reports.front();
    EXPECT_EQ(report.stuck_ranks, (std::vector<int>{0, 1}));
    EXPECT_NE(report.text.find("rank 1 stuck"), std::string::npos) << report.text;
    EXPECT_NE(report.text.find("irecv(src=0, tag=9)"), std::string::npos)
        << report.text;

    ASSERT_TRUE(std::filesystem::exists(flight_path));
    const Value record = parse_file(flight_path);
    EXPECT_EQ(record.find("schema")->string(), "bat-flight-v1");
    EXPECT_EQ(record.find("reason")->string(), "watchdog");
    EXPECT_TRUE(contains_rank(flight_stuck_ranks(record), 1));

    const Value* ranks = record.find("ranks");
    ASSERT_NE(ranks, nullptr);
    bool saw_rank1 = false;
    for (const Value& r : ranks->array()) {
        if (static_cast<int>(r.find("rank")->number()) != 1) {
            continue;
        }
        saw_rank1 = true;
        EXPECT_NE(r.find("blocked_on")->string().find("irecv"), std::string::npos);
    }
    EXPECT_TRUE(saw_rank1);
}

TEST(WatchdogTest, StalledReadRoundNamesLateRankAndOpenSpans) {
    fresh_health();
    const testing::TempDir dir;
    const auto flight_path = dir.path() / "flight.json";

    const int nranks = 4;
    const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);
    const ParticleSet global = make_uniform_particles(kDomain, 8'000, 2, 11);
    const std::vector<ParticleSet> per_rank = partition_particles(global, decomp);

    std::mutex mu;
    std::vector<obs::StallReport> reports;
    obs::WatchdogOptions opts;
    opts.interval = 100ms;
    opts.stale_intervals = 2;
    opts.flight_record_path = flight_path;
    opts.on_stall = [&](const obs::StallReport& r) {
        const std::lock_guard<std::mutex> lock(mu);
        reports.push_back(r);
    };
    obs::start_watchdog(opts);

    std::atomic<std::uint64_t> particles_read{0};
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        const int r = comm.rank();
        WriterConfig config;
        config.directory = dir.path();
        config.basename = "stall";
        config.tree.target_file_size = 16 << 10;
        const WriteResult wr = write_particles(
            comm, per_rank[static_cast<std::size_t>(r)], decomp.rank_box(r), config);
        if (r == 3) {
            // The late rank: the other three enter the read round and spin
            // in read.serve waiting for rank 3's requests and barrier.
            std::this_thread::sleep_for(2000ms);
        }
        const ReadResult rr =
            read_particles(comm, wr.metadata_path, decomp.rank_read_box(r));
        particles_read += rr.particles.count();
    });
    obs::stop_watchdog();

    EXPECT_GE(obs::watchdog_trips(), 1u);
    const std::lock_guard<std::mutex> lock(mu);
    ASSERT_GE(reports.size(), 1u);
    // The read-round stall: rank 3 stuck with the others parked in
    // read.serve (their open span stacks name the phase).
    bool diagnosed = false;
    for (const obs::StallReport& report : reports) {
        if (contains_rank(report.stuck_ranks, 3) &&
            report.text.find("read.serve") != std::string::npos) {
            diagnosed = true;
        }
    }
    EXPECT_TRUE(diagnosed) << reports.front().text;

    // The stall resolved once rank 3 joined: every rank finished its read.
    EXPECT_GT(particles_read.load(), 0u);

    ASSERT_TRUE(std::filesystem::exists(flight_path));
    const Value record = parse_file(flight_path);
    EXPECT_EQ(record.find("schema")->string(), "bat-flight-v1");
    EXPECT_FALSE(flight_stuck_ranks(record).empty());
    bool has_vmpi = false;
    for (const Value& sub : record.find("subsystems")->array()) {
        if (sub.find("name")->string() == "vmpi") {
            has_vmpi = true;
            EXPECT_NE(sub.find("state")->find("pending"), nullptr);
        }
    }
    EXPECT_TRUE(has_vmpi);
    bool serve_span_open = false;
    for (const Value& thread : record.find("threads")->array()) {
        for (const Value& span : thread.find("spans")->array()) {
            if (span.string() == "read.serve") {
                serve_span_open = true;
            }
        }
    }
    EXPECT_TRUE(serve_span_open);
}

// ---- clean-run report -----------------------------------------------------

TEST(RunReportTest, CleanTracedRunMatchesPhaseTimingsWithinFivePercent) {
    fresh_health();
    obs::set_trace_enabled(true);

    // Armed with production-shaped settings: a clean run must never trip.
    obs::WatchdogOptions opts;
    opts.interval = 1000ms;
    opts.stale_intervals = 5;
    obs::start_watchdog(opts);

    const testing::TempDir dir;
    const int nranks = 4;
    const GridDecomp decomp = grid_decomp_3d(nranks, kDomain);
    const ParticleSet global = make_uniform_particles(kDomain, 24'000, 3, 7);
    const std::vector<ParticleSet> per_rank = partition_particles(global, decomp);
    ThreadPool pool(2);

    std::vector<WritePhaseTimings> wt(nranks);
    std::vector<ReadPhaseTimings> rt(nranks);
    std::atomic<std::uint64_t> bytes_written{0};
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        const int r = comm.rank();
        WriterConfig config;
        config.directory = dir.path();
        config.basename = "clean";
        config.tree.target_file_size = 64 << 10;
        config.pool = &pool;
        const WriteResult wr = write_particles(
            comm, per_rank[static_cast<std::size_t>(r)], decomp.rank_box(r), config);
        wt[static_cast<std::size_t>(r)] = wr.timings;
        bytes_written += wr.bytes_written;
        const ReadResult rr =
            read_particles(comm, wr.metadata_path, decomp.rank_read_box(r));
        rt[static_cast<std::size_t>(r)] = rr.timings;
    });
    obs::stop_watchdog();
    obs::set_trace_enabled(false);

    EXPECT_EQ(obs::watchdog_trips(), 0u);

    const Value report = obs::json::parse(obs::run_report_json());
    EXPECT_EQ(report.find("schema")->string(), "bat-report-v1");
    const Value* run = report.find("run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->find("ranks")->number(), static_cast<double>(nranks));
    EXPECT_GT(run->find("wall_seconds")->number(), 0.0);
    EXPECT_EQ(run->find("watchdog")->find("trips")->number(), 0.0);

    const Value* phases = report.find("phases");
    ASSERT_NE(phases, nullptr);
    // The acceptance bar: per-phase report seconds agree with the
    // WritePhaseTimings / ReadPhaseTimings structs within 5% (they come
    // from the same PhaseSpan closures, so this is exact by construction).
    const auto check_phase = [&](const std::string& name, double expected_sum) {
        const Value* phase = phases->find(name);
        ASSERT_NE(phase, nullptr) << name;
        const double seconds = phase->find("seconds")->number();
        EXPECT_NEAR(seconds, expected_sum, 0.05 * expected_sum + 1e-6) << name;
        const double min_s = phase->find("min_s")->number();
        const double mean_s = phase->find("mean_s")->number();
        const double max_s = phase->find("max_s")->number();
        EXPECT_LE(min_s, mean_s) << name;
        EXPECT_LE(mean_s, max_s) << name;
        EXPECT_GE(phase->find("calls")->number(), 1.0) << name;
    };
    double gather = 0;
    double tree_build = 0;
    double scatter = 0;
    double transfer = 0;
    double bat_build = 0;
    double file_write = 0;
    double metadata = 0;
    for (const WritePhaseTimings& t : wt) {
        gather += t.gather;
        tree_build += t.tree_build;
        scatter += t.scatter;
        transfer += t.transfer;
        bat_build += t.bat_build;
        file_write += t.file_write;
        metadata += t.metadata;
    }
    check_phase("write.gather", gather);
    check_phase("write.tree_build", tree_build);
    check_phase("write.scatter", scatter);
    check_phase("write.transfer", transfer);
    check_phase("write.bat_build", bat_build);
    check_phase("write.file_write", file_write);
    check_phase("write.metadata", metadata);

    double r_metadata = 0;
    double r_request = 0;
    double r_serve = 0;
    double r_merge = 0;
    double r_local = 0;
    for (const ReadPhaseTimings& t : rt) {
        r_metadata += t.metadata;
        r_request += t.request;
        r_serve += t.serve;
        r_merge += t.merge;
        r_local += t.local;
    }
    check_phase("read.metadata", r_metadata);
    check_phase("read.request", r_request);
    check_phase("read.serve", r_serve);
    check_phase("read.merge", r_merge);
    check_phase("read.local", r_local);

    // Traffic and volume sections reflect the pipeline.
    const Value* msgs = report.find("messages");
    ASSERT_NE(msgs, nullptr);
    EXPECT_GT(msgs->find("sends")->number(), 0.0);
    EXPECT_GT(msgs->find("recv_bytes")->number(), 0.0);
    EXPECT_GT(msgs->find("collectives")->number(), 0.0);
    const Value* io_written = report.find("io")->find("write.bytes_written");
    ASSERT_NE(io_written, nullptr);
    EXPECT_EQ(io_written->find("total")->number(),
              static_cast<double>(bytes_written.load()));
    EXPECT_EQ(io_written->find("ranks")->number(), static_cast<double>(nranks));
    ASSERT_NE(report.find("io")->find("read.bytes_read"), nullptr);

    // The file path ("%p" expanded) round-trips through the same schema.
    ASSERT_TRUE(obs::write_document(dir.path() / "report_%p.json", obs::run_report_json()));
    const auto expanded =
        dir.path() / ("report_" + std::to_string(::getpid()) + ".json");
    ASSERT_TRUE(std::filesystem::exists(expanded));
    EXPECT_EQ(parse_file(expanded).find("schema")->string(), "bat-report-v1");
}

}  // namespace
}  // namespace bat
