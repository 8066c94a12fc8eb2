// Deterministic schedule explorer for vmpi pipelines (docs/CORRECTNESS.md
// §5): sweep N seeds of the cooperative scheduler over a built-in scenario
// (or an arbitrary child command armed via BAT_SCHED_SEED), report the
// failing seeds, and replay any seed with its full decision trace.
//
// Usage:
//   vmpi_explore [--scenario NAME] [--seeds N] [--seed-base B]
//                [--preemptions N] [--deadlock-decisions N] [--timeout SEC]
//                [--flight-dir DIR] [--expect-fail] [--list]
//   vmpi_explore --replay SEED [--scenario NAME] [...]
//   vmpi_explore [--seeds N] --exec CMD [ARG...]
//
// Each seed runs in a forked child, so a wedged or crashed schedule cannot
// take the sweep down; the parent enforces --timeout per seed. Exit status:
// 0 sweep clean (or --expect-fail satisfied), 1 failures found (or
// --expect-fail found none), 2 usage/environment error.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/data_service.hpp"
#include "io/leaf_cache.hpp"
#include "io/reader.hpp"
#include "io/series.hpp"
#include "obs/health.hpp"
#include "sched/sched.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/comm.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

namespace {

using bat::sched::RunResult;

// ---- built-in scenarios ----------------------------------------------------

const bat::Box kDomain({0, 0, 0}, {4, 4, 4});

/// Writer → reader → DataService round: the pipeline the CI sweep guards.
/// The writer is a two-step series whose second step reuses the write plan,
/// so the sweep covers both the replan and the reuse collective. Small
/// sizes keep one seed in the tens of milliseconds; the schedule freedom
/// comes from 2 ranks + 2 pool workers, not from data volume.
void scenario_round() {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("vmpi_explore_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    struct DirCleanup {
        std::filesystem::path dir;
        ~DirCleanup() {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    } cleanup{dir};

    const int nranks = 2;
    const bat::GridDecomp decomp = bat::grid_decomp_3d(nranks, kDomain);
    bat::ParticleSet global = bat::make_uniform_particles(kDomain, 2'000, 2, 7);
    const std::vector<bat::ParticleSet> step0 = bat::partition_particles(global, decomp);
    // Step 1 grows each rank by ~10%, under kMaxRankDrift: rank 0 keeps the
    // plan's aggregation and scatters this step's counts.
    global.append(bat::make_uniform_particles(kDomain, 200, 2, 8));
    const std::vector<bat::ParticleSet> step1 = bat::partition_particles(global, decomp);

    bat::ThreadPool pool(2);
    bat::LeafFileCache cache(16);

    std::filesystem::path meta_path;
    bat::vmpi::Runtime::run(nranks, [&](bat::vmpi::Comm& comm) {
        bat::WriterConfig config;
        config.strategy = bat::AggStrategy::adaptive;
        config.tree.target_file_size = 64 << 10;
        config.directory = dir;
        config.basename = "ts";
        config.pool = &pool;
        bat::SeriesWriter writer(config);
        const auto r = static_cast<std::size_t>(comm.rank());
        const bat::Box box = decomp.rank_box(comm.rank());
        (void)writer.write_timestep(comm, 0, step0[r], box);
        const bat::WriteResult result = writer.write_timestep(comm, 1, step1[r], box);
        BAT_CHECK_MSG(result.reused_plan, "step 1 did not reuse the write plan");
        meta_path = result.metadata_path;
    });

    bat::vmpi::Runtime::run(nranks, [&](bat::vmpi::Comm& comm) {
        bat::ReaderConfig rc;
        rc.pool = &pool;
        rc.cache = &cache;
        (void)bat::read_particles(comm, meta_path, decomp.rank_read_box(comm.rank()), rc);
    });

    bat::vmpi::Runtime::run(nranks, [&](bat::vmpi::Comm& comm) {
        bat::DataService service(comm, meta_path, &pool, &cache);
        bat::BatQuery query;
        query.box = decomp.rank_read_box(comm.rank());
        (void)service.query_round(query);
        (void)service.query_round(std::nullopt);
    });
}

/// The PR 5 diag-provider race class, reduced to a fixture: one thread
/// publishes state while another samples it, with no synchronization at
/// all between them. Every schedule has the conflicting pair, so the
/// checker must flag every seed.
void scenario_diag_race() {
    int fixture_state = 0;
    bat::vmpi::Runtime::run(2, [&fixture_state](bat::vmpi::Comm& comm) {
        if (comm.rank() == 0) {
            bat::sched::note_access(&fixture_state, "fixture.diag_state",
                                    /*is_write=*/true);
            fixture_state = 1;
        } else {
            bat::sched::note_access(&fixture_state, "fixture.diag_state",
                                    /*is_write=*/false);
            static_cast<void>(fixture_state);
        }
    });
}

/// The fixed version of the same fixture: the sample happens only after a
/// message from the publisher, so the send→match edge orders the pair and
/// no seed may report a race (false-positive regression guard).
void scenario_diag_race_fixed() {
    int fixture_state = 0;
    bat::vmpi::Runtime::run(2, [&fixture_state](bat::vmpi::Comm& comm) {
        if (comm.rank() == 0) {
            bat::sched::note_access(&fixture_state, "fixture.diag_state",
                                    /*is_write=*/true);
            fixture_state = 1;
            comm.isend(1, 3, bat::vmpi::Bytes{});
        } else {
            (void)comm.recv(0, 3);
            bat::sched::note_access(&fixture_state, "fixture.diag_state",
                                    /*is_write=*/false);
            static_cast<void>(fixture_state);
        }
    });
}

/// The PR 5 watchdog arming deadlock class: rank 0 checks for the "arm"
/// message with a single stale probe instead of a blocking receive. On
/// schedules where the probe runs before rank 1's send, rank 0 never acks
/// and rank 1 waits forever — a deadlock only *some* seeds reach.
void scenario_stale_arm_deadlock() {
    bat::vmpi::Runtime::run(2, [](bat::vmpi::Comm& comm) {
        constexpr int kArmTag = 7;
        constexpr int kAckTag = 8;
        if (comm.rank() == 0) {
            if (comm.iprobe(1, kArmTag)) {
                (void)comm.recv(1, kArmTag);
                comm.isend(1, kAckTag, bat::vmpi::Bytes{});
            }
            // else: the stale check missed the arm request — the bug.
        } else {
            comm.isend(0, kArmTag, bat::vmpi::Bytes{});
            (void)comm.recv(0, kAckTag);
        }
    });
}

struct ScenarioEntry {
    const char* name;
    void (*fn)();
    const char* what;
};

constexpr ScenarioEntry kScenarios[] = {
    {"round", scenario_round, "writer -> reader -> DataService round (CI default)"},
    {"diag-race", scenario_diag_race, "unsynchronized state fixture; every seed must report a race"},
    {"diag-race-fixed", scenario_diag_race_fixed, "message-synchronized fixture; no seed may report a race"},
    {"stale-arm-deadlock", scenario_stale_arm_deadlock, "stale probe fixture; some seeds deadlock"},
};

const ScenarioEntry* find_scenario(const std::string& name) {
    for (const ScenarioEntry& s : kScenarios) {
        if (name == s.name) {
            return &s;
        }
    }
    return nullptr;
}

// ---- per-seed execution ----------------------------------------------------

enum class Status : std::uint32_t {
    ok = 0,
    race = 2,
    deadlock = 3,
    error = 4,
    timeout = 5,
};

const char* status_name(Status s) {
    switch (s) {
        case Status::ok: return "ok";
        case Status::race: return "RACE";
        case Status::deadlock: return "DEADLOCK";
        case Status::error: return "ERROR";
        case Status::timeout: return "TIMEOUT";
    }
    return "?";
}

struct SeedResult {
    std::uint64_t seed = 0;
    Status status = Status::error;
    std::uint64_t trace_hash = 0;
    std::uint64_t decisions = 0;
    bool failed() const { return status != Status::ok; }
};

struct WireRecord {
    std::uint64_t hash;
    std::uint64_t decisions;
    std::uint32_t status;
    std::uint32_t pad;
};

struct SweepConfig {
    const ScenarioEntry* scenario = &kScenarios[0];
    std::vector<std::string> exec_argv;  // non-empty: run a child command instead
    std::uint64_t seeds = 64;
    std::uint64_t seed_base = 0;
    int preemptions = -1;          // <0: library default
    std::uint64_t deadlock_decisions = 10'000;
    int timeout_sec = 120;
    std::string flight_dir;
    bool expect_fail = false;
    bool replay_trace = false;  // record + print the decision trace (child)
};

/// Child body for a built-in scenario: run under the scheduler, ship the
/// result through `fd`, exit with the Status code.
[[noreturn]] void child_run_scenario(const SweepConfig& cfg, std::uint64_t seed, int fd) {
    bat::sched::Options opts;
    opts.seed = seed;
    if (cfg.preemptions >= 0) {
        opts.preemption_bound = cfg.preemptions;
    }
    opts.deadlock_decisions = cfg.deadlock_decisions;
    opts.record_trace = cfg.replay_trace;

    const RunResult rr = bat::sched::run_scheduled(opts, [&] { cfg.scenario->fn(); });

    // Race outranks deadlock: a throw_on_race abort tears a rank out of a
    // collective, so the *same* run often wedges afterwards — the race is
    // the root cause worth reporting.
    Status status = Status::ok;
    if (!rr.races.empty()) {
        status = Status::race;
    } else if (rr.deadlock) {
        status = Status::deadlock;
    } else if (rr.error != nullptr) {
        status = Status::error;
    }
    if (status != Status::ok || cfg.replay_trace) {
        std::cerr << "  " << rr.summary() << "\n";
    }
    if (status != Status::ok && !cfg.flight_dir.empty()) {
        bat::obs::dump_flight_record(rr.summary(), cfg.flight_dir + "/flight_seed" +
                                                       std::to_string(seed) + "_%p.json");
    }
    if (cfg.replay_trace) {
        std::cout << "decision trace (seed " << seed << ", " << rr.trace.size()
                  << " entries" << (rr.trace_truncated ? ", truncated" : "") << "):\n";
        for (const bat::sched::TraceEntry& e : rr.trace) {
            std::cout << "  [" << e.step << "] t" << e.from << " -> t" << e.to << "  "
                      << e.op << "\n";
        }
        std::cout.flush();
    }
    const WireRecord rec{rr.trace_hash, rr.decisions, static_cast<std::uint32_t>(status),
                         0};
    (void)::write(fd, &rec, sizeof(rec));
    ::close(fd);
    std::cerr.flush();
    ::_exit(static_cast<int>(status));
}

/// Child body for --exec: arm the environment and exec the command.
[[noreturn]] void child_run_exec(const SweepConfig& cfg, std::uint64_t seed) {
    ::setenv("BAT_SCHED_SEED", std::to_string(seed).c_str(), 1);
    if (cfg.preemptions >= 0) {
        ::setenv("BAT_SCHED_PREEMPTIONS", std::to_string(cfg.preemptions).c_str(), 1);
    }
    ::setenv("BAT_SCHED_DEADLOCK_DECISIONS",
             std::to_string(cfg.deadlock_decisions).c_str(), 1);
    if (!cfg.flight_dir.empty()) {
        // The child's run bundle (and its flight records) lands in the dir.
        ::setenv("BAT_OBS", "", 0);
        ::setenv("BAT_OBS_DIR", cfg.flight_dir.c_str(), 1);
    }
    std::vector<char*> argv;
    argv.reserve(cfg.exec_argv.size() + 1);
    for (const std::string& a : cfg.exec_argv) {
        argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    std::cerr << "vmpi_explore: execvp(" << cfg.exec_argv[0] << "): " << std::strerror(errno)
              << "\n";
    ::_exit(127);
}

SeedResult run_seed(const SweepConfig& cfg, std::uint64_t seed) {
    SeedResult result;
    result.seed = seed;

    // Children inherit stdio buffers; flush so a child's exit cannot replay
    // the parent's pending sweep lines.
    std::cout.flush();
    std::cerr.flush();

    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
        std::cerr << "vmpi_explore: pipe: " << std::strerror(errno) << "\n";
        return result;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::cerr << "vmpi_explore: fork: " << std::strerror(errno) << "\n";
        ::close(fds[0]);
        ::close(fds[1]);
        return result;
    }
    if (pid == 0) {
        ::close(fds[0]);
        if (!cfg.exec_argv.empty()) {
            ::close(fds[1]);
            child_run_exec(cfg, seed);
        }
        child_run_scenario(cfg, seed, fds[1]);
    }
    ::close(fds[1]);

    // Reap with a deadline: a wedged schedule must not stall the sweep.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(cfg.timeout_sec);
    int wstatus = 0;
    bool reaped = false;
    bool killed = false;
    for (;;) {
        const pid_t w = ::waitpid(pid, &wstatus, WNOHANG);
        if (w == pid) {
            reaped = true;
            break;
        }
        if (w < 0) {
            break;
        }
        if (!killed && std::chrono::steady_clock::now() > deadline) {
            ::kill(pid, SIGKILL);
            killed = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    WireRecord rec{};
    const ssize_t got = ::read(fds[0], &rec, sizeof(rec));
    ::close(fds[0]);

    if (killed) {
        result.status = Status::timeout;
        return result;
    }
    if (got == static_cast<ssize_t>(sizeof(rec))) {
        result.status = static_cast<Status>(rec.status);
        result.trace_hash = rec.hash;
        result.decisions = rec.decisions;
        return result;
    }
    // --exec mode (no wire record) or a crashed child: go by exit status.
    if (reaped && WIFEXITED(wstatus)) {
        result.status = WEXITSTATUS(wstatus) == 0 ? Status::ok : Status::error;
    } else {
        result.status = Status::error;
    }
    return result;
}

int usage(int code) {
    std::ostream& os = code == 0 ? std::cout : std::cerr;
    os << "usage: vmpi_explore [--scenario NAME] [--seeds N] [--seed-base B]\n"
          "                    [--preemptions N] [--deadlock-decisions N]\n"
          "                    [--timeout SEC] [--flight-dir DIR] [--expect-fail]\n"
          "       vmpi_explore --replay SEED [--scenario NAME] [...]\n"
          "       vmpi_explore [--seeds N] --exec CMD [ARG...]\n"
          "       vmpi_explore --list\n";
    return code;
}

}  // namespace

int run_cli(int argc, char** argv) {
    SweepConfig cfg;
    std::optional<std::uint64_t> replay_seed;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "vmpi_explore: " << flag << " needs a value\n";
                std::exit(usage(2));
            }
            return argv[++i];
        };
        if (arg == "--scenario") {
            const char* name = next_value("--scenario");
            cfg.scenario = find_scenario(name);
            if (cfg.scenario == nullptr) {
                std::cerr << "vmpi_explore: unknown scenario '" << name << "'\n";
                return usage(2);
            }
        } else if (arg == "--seeds") {
            cfg.seeds = std::strtoull(next_value("--seeds"), nullptr, 10);
        } else if (arg == "--seed-base") {
            cfg.seed_base = std::strtoull(next_value("--seed-base"), nullptr, 10);
        } else if (arg == "--replay") {
            replay_seed = std::strtoull(next_value("--replay"), nullptr, 10);
        } else if (arg == "--preemptions") {
            cfg.preemptions = std::atoi(next_value("--preemptions"));
        } else if (arg == "--deadlock-decisions") {
            cfg.deadlock_decisions =
                std::strtoull(next_value("--deadlock-decisions"), nullptr, 10);
        } else if (arg == "--timeout") {
            cfg.timeout_sec = std::atoi(next_value("--timeout"));
        } else if (arg == "--flight-dir") {
            cfg.flight_dir = next_value("--flight-dir");
            std::filesystem::create_directories(cfg.flight_dir);
        } else if (arg == "--expect-fail") {
            cfg.expect_fail = true;
        } else if (arg == "--exec") {
            for (++i; i < argc; ++i) {
                cfg.exec_argv.emplace_back(argv[i]);
            }
            if (cfg.exec_argv.empty()) {
                std::cerr << "vmpi_explore: --exec needs a command\n";
                return usage(2);
            }
        } else if (arg == "--list") {
            for (const ScenarioEntry& s : kScenarios) {
                std::cout << s.name << "\n    " << s.what << "\n";
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            return usage(0);
        } else {
            std::cerr << "vmpi_explore: unknown argument '" << arg << "'\n";
            return usage(2);
        }
    }

    if (replay_seed) {
        // Replay: run the seed twice with full tracing; determinism means
        // the two runs produce the identical decision stream.
        cfg.replay_trace = true;
        std::cout << "replaying seed " << *replay_seed << " (scenario "
                  << (cfg.exec_argv.empty() ? cfg.scenario->name : "--exec") << ")\n";
        const SeedResult first = run_seed(cfg, *replay_seed);
        cfg.replay_trace = false;  // second run: hash only, no trace spam
        const SeedResult second = run_seed(cfg, *replay_seed);
        std::cout << "seed " << *replay_seed << ": " << status_name(first.status) << ", "
                  << first.decisions << " decisions, trace hash " << std::hex
                  << first.trace_hash << std::dec << "\n";
        if (cfg.exec_argv.empty()) {
            if (first.trace_hash == second.trace_hash && first.status == second.status) {
                std::cout << "replay: deterministic (second run identical)\n";
            } else {
                std::cout << "replay: MISMATCH (second run " << status_name(second.status)
                          << ", hash " << std::hex << second.trace_hash << std::dec
                          << ") — nondeterminism outside the scheduler\n";
                return 1;
            }
        }
        return first.failed() ? 1 : 0;
    }

    std::cout << "vmpi_explore: " << cfg.seeds << " seeds of "
              << (cfg.exec_argv.empty() ? std::string("scenario '") + cfg.scenario->name + "'"
                                        : "command '" + cfg.exec_argv[0] + "'")
              << " starting at seed " << cfg.seed_base << "\n";

    std::vector<SeedResult> failures;
    std::uint64_t replay_mismatches = 0;
    for (std::uint64_t s = 0; s < cfg.seeds; ++s) {
        const std::uint64_t seed = cfg.seed_base + s;
        const SeedResult r = run_seed(cfg, seed);
        std::cout << "  seed " << seed << ": " << status_name(r.status);
        if (r.decisions != 0) {
            std::cout << " (" << r.decisions << " decisions, trace " << std::hex
                      << r.trace_hash << std::dec << ")";
        }
        std::cout << "\n";
        if (r.failed()) {
            failures.push_back(r);
            // Prove the failure replays: same seed again, same trace hash.
            if (cfg.exec_argv.empty() && r.status != Status::timeout) {
                const SeedResult again = run_seed(cfg, seed);
                if (again.status != r.status || again.trace_hash != r.trace_hash) {
                    ++replay_mismatches;
                    std::cout << "    replay MISMATCH: " << status_name(again.status)
                              << ", trace " << std::hex << again.trace_hash << std::dec
                              << "\n";
                } else {
                    std::cout << "    replay confirmed (identical trace)\n";
                }
            }
        }
    }

    std::cout << "vmpi_explore: " << (cfg.seeds - failures.size()) << "/" << cfg.seeds
              << " seeds clean";
    if (!failures.empty()) {
        std::cout << "; failing seeds:";
        for (const SeedResult& f : failures) {
            std::cout << " " << f.seed << "(" << status_name(f.status) << ")";
        }
    }
    std::cout << "\n";
    if (replay_mismatches != 0) {
        std::cout << "vmpi_explore: " << replay_mismatches
                  << " failing seed(s) did NOT replay deterministically\n";
        return 1;
    }
    if (cfg.expect_fail) {
        if (failures.empty()) {
            std::cout << "vmpi_explore: --expect-fail but every seed was clean\n";
            return 1;
        }
        std::cout << "vmpi_explore: --expect-fail satisfied\n";
        return 0;
    }
    return failures.empty() ? 0 : 1;
}

int main(int argc, char** argv) {
    try {
        return run_cli(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "vmpi_explore: " << e.what() << "\n";
        return 2;
    }
}
