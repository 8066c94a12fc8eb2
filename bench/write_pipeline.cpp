// End-to-end write-pipeline bench: one in-process 8-rank write_particles
// collective over a partitioned uniform workload, reporting the slowest
// rank's per-phase seconds (gather / tree_build / scatter / transfer /
// bat_build / file_write / metadata — the paper's Fig 6 categories) plus
// aggregate throughput.
//
// `write_pipeline --json [--out FILE]` emits bat-bench-v1 JSON to
// BENCH_write.json so CI and later PRs can diff transfer-phase numbers; a
// plain run prints a table. See docs/PERFORMANCE.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "io/writer.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"
#include "test_output_free.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/comm.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

using namespace bat;

namespace {

/// Deterministic CPU burn for the prof_report --diff acceptance check: with
/// BAT_BENCH_SYNTHETIC_HOT=1 each measured run spends extra CPU inside a
/// "bench.synthetic_hot" span, which a diff against an unpolluted profile
/// must flag as the grown stack.
void synthetic_hot_loop() {
    obs::SpanScope span("bench.synthetic_hot", "bench");
    volatile double sink = 0;
    for (int i = 0; i < 40'000'000; ++i) {
        sink = sink + static_cast<double>(i % 97) * 1e-9;
    }
}

bool synthetic_hot_enabled() {
    const char* env = std::getenv("BAT_BENCH_SYNTHETIC_HOT");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

struct PipelineRun {
    WritePhaseTimings slowest;  // component-wise max over ranks
    BatBuildTimings critical_bat;  // builder stages of the slowest-building rank
    BatBuildTimings bat_sum;       // builder stages summed over ranks
    std::uint64_t bytes_written = 0;
    int num_leaves = 0;
};

PipelineRun run_pipeline(const std::filesystem::path& dir,
                         const std::vector<ParticleSet>& per_rank,
                         const GridDecomp& decomp, ThreadPool* pool) {
    const int nranks = static_cast<int>(per_rank.size());
    PipelineRun run;
    std::mutex mutex;
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        WriterConfig config;
        config.directory = dir;
        config.basename = "pipeline";
        config.tree.target_file_size = 1 << 20;
        config.pool = pool;
        const int r = comm.rank();
        const WriteResult wr = write_particles(
            comm, per_rank[static_cast<std::size_t>(r)], decomp.rank_box(r), config);
        std::lock_guard<std::mutex> lock(mutex);
        if (wr.timings.bat_build >= run.slowest.bat_build) {
            run.critical_bat = wr.timings.bat;
        }
        run.slowest = WritePhaseTimings::max(run.slowest, wr.timings);
        run.bat_sum += wr.timings.bat;
        run.bytes_written += wr.bytes_written;
        run.num_leaves = wr.num_leaves;
    });
    return run;
}

}  // namespace

int main(int argc, char** argv) {
    constexpr int kRanks = 8;
    constexpr std::size_t kParticles = 1 << 20;
    constexpr int kRuns = 5;

    // Participate in sampling when armed via BAT_OBS=prof (the rank and pool
    // threads attach themselves; the synthetic hot loop runs here).
    obs::attach_thread("main");

    const auto dir = bench::scratch_dir("write_pipeline");
    const Box domain({0, 0, 0}, {4, 4, 4});
    const GridDecomp decomp = grid_decomp_3d(kRanks, domain);
    const ParticleSet global = make_uniform_particles(domain, kParticles, 4, 42);
    const std::vector<ParticleSet> per_rank = partition_particles(global, decomp);
    // --pool-threads 0 builds each rank's BAT serially on its own thread
    // (the profiler-armed CI legs: see the prof.wall rows below).
    ThreadPool pool(static_cast<std::size_t>(std::atoi(bench::flag_value(
        argc, argv, "--pool-threads",
        std::to_string(ThreadPool::default_concurrency()).c_str()))));

    std::fprintf(stderr, "[bench] %d-rank write of %zu particles, best of %d runs\n",
                 kRanks, kParticles, kRuns);
    run_pipeline(dir, per_rank, decomp, &pool);  // warm up page cache + pool
    if (obs::profiler_running()) {
        obs::reset_profiler();  // drop warmup samples: profile the measured runs
    }
    PipelineRun best;
    double best_total = 1e30;
    BatBuildTimings measured_bat;  // every rank of every measured run
    for (int i = 0; i < kRuns; ++i) {
        if (synthetic_hot_enabled()) {
            synthetic_hot_loop();
        }
        const PipelineRun run = run_pipeline(dir, per_rank, decomp, &pool);
        measured_bat += run.bat_sum;
        if (run.slowest.total() < best_total) {
            best_total = run.slowest.total();
            best = run;
        }
    }

    const WritePhaseTimings& t = best.slowest;
    const BatBuildTimings& c = best.critical_bat;
    const std::vector<std::pair<const char*, double>> phases = {
        {"write.gather", t.gather},         {"write.tree_build", t.tree_build},
        {"write.scatter", t.scatter},       {"write.transfer", t.transfer},
        {"write.bat_build", t.bat_build},   {"write.file_write", t.file_write},
        {"write.metadata", t.metadata},     {"write.total", t.total()},
        // write.bat_build broken down into the builder's internal stages,
        // taken from the rank whose write.bat_build that row is, so they
        // tile it (not added into write.total).
        {"bat.edges", c.edges},             {"bat.encode", c.encode},
        {"bat.sort", c.sort},               {"bat.treelets", c.treelets},
        {"bat.reorder", c.reorder},         {"bat.bitmaps", c.bitmaps},
    };

    if (bench::has_flag(argc, argv, "--json")) {
        const char* out = bench::flag_value(argc, argv, "--out", "BENCH_write.json");
        bench::JsonBenchWriter writer;
        const int threads = static_cast<int>(pool.num_threads()) + 1;
        for (const auto& [name, seconds] : phases) {
            writer.add(bench::JsonBenchResult{
                name, kParticles, 1e9 * seconds / static_cast<double>(kParticles),
                "ns/op",
                seconds > 0 ? static_cast<double>(best.bytes_written) / seconds : 0.0,
                threads});
        }
        // Profiler-armed runs also report sample attribution rows, gated by
        // tools/bench_check's prof family against the wall-time rows above.
        if (obs::profiler_running()) {
            const obs::ProfTotals totals = obs::prof_totals();
            if (totals.samples > 0) {
                writer.add(bench::JsonBenchResult{
                    "prof.samples", totals.samples, 0.0, "samples", 0.0, threads});
                writer.add(bench::JsonBenchResult{
                    "prof.attributed_pct", totals.samples,
                    100.0 * static_cast<double>(totals.attributed) /
                        static_cast<double>(totals.samples),
                    "pct", 0.0, threads});
                // Per-stage sample shares, normalized over the six builder
                // stages, and the wall shares of the same population: every
                // rank of every measured run (the bat.* rows above are the
                // best run's slowest-building rank). The two agree only when a
                // stage's work runs on the rank thread that times it, i.e.
                // with --pool-threads 0: pool helpers add CPU, not wall.
                const BatBuildTimings& m = measured_bat;
                const std::map<std::string, double> stage_wall = {
                    {"bat.edges", m.edges}, {"bat.encode", m.encode},
                    {"bat.sort", m.sort},   {"bat.treelets", m.treelets},
                    {"bat.reorder", m.reorder}, {"bat.bitmaps", m.bitmaps}};
                const double wall_total = m.edges + m.encode + m.sort + m.treelets +
                                          m.reorder + m.bitmaps;
                const std::vector<obs::ProfStackCount> stacks = obs::prof_stack_counts();
                std::vector<std::pair<std::string, std::uint64_t>> stage_samples;
                std::uint64_t stage_total = 0;
                for (const auto& [phase_name, seconds] : phases) {
                    if (std::strncmp(phase_name, "bat.", 4) != 0) {
                        continue;
                    }
                    std::uint64_t count = 0;
                    for (const obs::ProfStackCount& sc : stacks) {
                        for (const std::string& frame : sc.frames) {
                            if (frame == phase_name) {
                                count += sc.samples;
                                break;
                            }
                        }
                    }
                    stage_samples.emplace_back(phase_name, count);
                    stage_total += count;
                }
                for (const auto& [stage, count] : stage_samples) {
                    if (wall_total > 0) {
                        writer.add(bench::JsonBenchResult{
                            "prof.wall." + stage, kParticles * kRuns,
                            100.0 * stage_wall.at(stage) / wall_total, "pct", 0.0,
                            threads});
                    }
                    if (count == 0) {
                        continue;  // a zero-n row would fail schema validation
                    }
                    writer.add(bench::JsonBenchResult{
                        "prof.share." + stage, count,
                        100.0 * static_cast<double>(count) /
                            static_cast<double>(stage_total),
                        "pct", 0.0, threads});
                }
            }
        }
        writer.write(out);
    } else {
        bench::Table table({"phase", "seconds", "ns/particle"});
        for (const auto& [name, seconds] : phases) {
            table.add_row({name, bench::fmt(seconds, 4),
                           bench::fmt(1e9 * seconds / static_cast<double>(kParticles), 1)});
        }
        table.print();
        std::printf("leaves: %d, bytes written: %s MB\n", best.num_leaves,
                    bench::fmt_mb(best.bytes_written).c_str());
    }

    std::filesystem::remove_all(dir);
    return 0;
}
