// Incremental-series bench: 50-step slowly-evolving Coal Boiler and Dam
// Break series written twice through the in-process 8-rank pipeline — once
// as full rewrites (plain write_particles per step) and once through
// SeriesWriter's incremental path (plan reuse + delta treelets + periodic
// keyframes) — reporting steady-state bytes per step, slowest-rank
// write.total per step, and the delta-hit rate. Each workload runs three
// interleaved full/delta pairs and reports the pair with the median
// delta/full write-total ratio.
//
// "Slowly evolving" means what the paper's dump loops look like when the
// dump cadence is high relative to the simulation's motion: a base
// snapshot whose particles mostly sit still between dumps while a
// spatially localized hot region (the active jet / collapse front) keeps
// moving. Each step jitters only the particles inside a hot box around
// the population centroid; everything else — counts, bounds, attribute
// ranges — stays fixed, so unchanged treelets should hash clean and the
// incremental writer should reference them instead of rewriting.
//
// `series_pipeline --json [--out FILE]` emits bat-bench-v1 JSON to
// BENCH_series.json; tools/bench_check gates the delta-vs-full byte and
// write.total ratios (see docs/PERFORMANCE.md). A plain run prints tables.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "io/series.hpp"
#include "io/writer.hpp"
#include "test_output_free.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/comm.hpp"
#include "workloads/boiler.hpp"
#include "workloads/dambreak.hpp"
#include "workloads/decomposition.hpp"

using namespace bat;

namespace {

constexpr int kRanks = 8;
constexpr int kSteps = 50;
constexpr int kPairs = 3;  // interleaved full/delta pairs per workload

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Uniform float in [-1, 1) from a hash stream.
float signed_unit(std::uint64_t h) {
    return 2.0f * static_cast<float>(h >> 40) / static_cast<float>(1u << 24) - 1.0f;
}

/// A slowly-evolving series: a fixed base population plus a hot box around
/// the population centroid whose members get re-jittered every step. The
/// jitter is clamped to the hot box, so the cold particles pin every
/// leaf's position bounds and attribute ranges across the series.
struct SlowSeries {
    ParticleSet base;
    Box hot_box;
    std::vector<std::uint32_t> hot;  // indices of particles inside hot_box
    GridDecomp decomp;

    /// Materialize the per-rank particle sets of step `s` (step 0 == base).
    std::vector<ParticleSet> step(int s, std::uint64_t seed) const {
        ParticleSet global = base;
        if (s > 0) {
            const Vec3 lo = hot_box.lower;
            const Vec3 hi = hot_box.upper;
            const Vec3 amp{0.04f * (hi.x - lo.x), 0.04f * (hi.y - lo.y),
                           0.04f * (hi.z - lo.z)};
            auto clamp = [](float v, float a, float b) {
                return v < a ? a : (v > b ? b : v);
            };
            for (const std::uint32_t i : hot) {
                const std::uint64_t h =
                    splitmix64(seed ^ (static_cast<std::uint64_t>(s) << 32 | i));
                Vec3 p = global.position(i);
                p.x = clamp(p.x + amp.x * signed_unit(h), lo.x, hi.x);
                p.y = clamp(p.y + amp.y * signed_unit(splitmix64(h)), lo.y, hi.y);
                p.z = clamp(p.z + amp.z * signed_unit(splitmix64(h + 1)), lo.z, hi.z);
                global.set_position(i, p);
            }
        }
        return partition_particles(global, decomp);
    }
};

SlowSeries make_slow_series(ParticleSet base, int nranks, bool decomp_2d,
                            float hot_half_extent) {
    SlowSeries series;
    series.base = std::move(base);
    const Box bounds = series.base.bounds();
    // Hot box: centered on the population centroid (inside the dense
    // region for both workloads), 2*hot_half_extent of the data extent per
    // axis. The dam break's population is a thin layer along the floor, so
    // its box must be tighter than the boiler's to keep the moving front
    // spatially localized relative to the occupied volume.
    Vec3 centroid{0, 0, 0};
    const std::size_t n = series.base.count();
    for (std::size_t i = 0; i < n; ++i) {
        const Vec3 p = series.base.position(i);
        centroid.x += p.x;
        centroid.y += p.y;
        centroid.z += p.z;
    }
    const float inv = n > 0 ? 1.0f / static_cast<float>(n) : 0.0f;
    centroid = {centroid.x * inv, centroid.y * inv, centroid.z * inv};
    const Vec3 half{hot_half_extent * (bounds.upper.x - bounds.lower.x),
                    hot_half_extent * (bounds.upper.y - bounds.lower.y),
                    hot_half_extent * (bounds.upper.z - bounds.lower.z)};
    series.hot_box = Box({centroid.x - half.x, centroid.y - half.y, centroid.z - half.z},
                         {centroid.x + half.x, centroid.y + half.y, centroid.z + half.z});
    for (std::size_t i = 0; i < n; ++i) {
        if (series.hot_box.contains(series.base.position(i))) {
            series.hot.push_back(static_cast<std::uint32_t>(i));
        }
    }
    series.decomp = decomp_2d ? grid_decomp_2d(nranks, bounds)
                              : grid_decomp_3d(nranks, bounds);
    return series;
}

struct StepStats {
    std::uint64_t bytes = 0;          // sum over ranks
    double total_s = 0;               // slowest rank's write total
    std::uint64_t treelets_clean = 0;
    std::uint64_t treelets_written = 0;
};

struct SeriesRun {
    std::vector<StepStats> steps;
};

/// One pass over the series. `incremental` selects SeriesWriter (plan
/// reuse + delta treelets) versus a plain per-step write_particles (the
/// full-rewrite baseline).
SeriesRun run_series(const std::filesystem::path& dir, const SlowSeries& series,
                     const std::string& name, bool incremental, std::uint64_t seed,
                     ThreadPool* pool) {
    SeriesRun run;
    run.steps.resize(kSteps);
    std::mutex mutex;
    // Step data is materialized by rank 0 between barriers; the per-rank
    // sets only need to live for the duration of one collective write.
    std::vector<ParticleSet> per_rank;
    vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
        WriterConfig config;
        config.directory = dir;
        config.basename = name;
        config.tree.target_file_size = 1 << 20;
        config.pool = pool;
        SeriesWriter writer(config);
        const int r = comm.rank();
        for (int s = 0; s < kSteps; ++s) {
            comm.barrier();
            if (r == 0) {
                per_rank = series.step(s, seed);
            }
            comm.barrier();
            WriteResult wr;
            if (incremental) {
                wr = writer.write_timestep(comm, s, per_rank[static_cast<std::size_t>(r)],
                                           series.decomp.rank_box(r));
            } else {
                WriterConfig step_config = config;
                step_config.basename = name + "_full_t" + std::to_string(s);
                wr = write_particles(comm, per_rank[static_cast<std::size_t>(r)],
                                     series.decomp.rank_box(r), step_config);
            }
            std::lock_guard<std::mutex> lock(mutex);
            StepStats& st = run.steps[static_cast<std::size_t>(s)];
            st.bytes += wr.bytes_written;
            st.total_s = std::max(st.total_s, wr.timings.total());
            st.treelets_clean += wr.delta_treelets_clean;
            st.treelets_written += wr.delta_treelets_written;
        }
        if (incremental) {
            writer.finalize(comm);
        }
    });
    return run;
}

struct SeriesSummary {
    double steady_bytes_full = 0;   // mean bytes per steady-state step
    double steady_bytes_delta = 0;
    double total_full_s = 0;        // mean slowest-rank write total per step
    double total_delta_s = 0;
    std::uint64_t treelets_clean = 0;
    std::uint64_t treelets_written = 0;
    std::uint64_t particles = 0;
    int steady_steps = 0;
};

/// Steady-state steps: everything but the first step and the periodic
/// keyframes, i.e. the steps the incremental writer may write as deltas.
bool is_steady(int s) {
    return s > 0 && s % kKeyframeInterval != 0;
}

SeriesSummary summarize(const SeriesRun& full, const SeriesRun& delta,
                        std::uint64_t particles) {
    SeriesSummary sum;
    sum.particles = particles;
    for (int s = 0; s < kSteps; ++s) {
        const StepStats& f = full.steps[static_cast<std::size_t>(s)];
        const StepStats& d = delta.steps[static_cast<std::size_t>(s)];
        if (!is_steady(s)) {
            continue;
        }
        sum.steady_bytes_full += static_cast<double>(f.bytes);
        sum.steady_bytes_delta += static_cast<double>(d.bytes);
        sum.total_full_s += f.total_s;
        sum.total_delta_s += d.total_s;
        sum.treelets_clean += d.treelets_clean;
        sum.treelets_written += d.treelets_written;
        ++sum.steady_steps;
    }
    const double n = sum.steady_steps > 0 ? sum.steady_steps : 1;
    sum.steady_bytes_full /= n;
    sum.steady_bytes_delta /= n;
    sum.total_full_s /= n;
    sum.total_delta_s /= n;
    return sum;
}

SeriesSummary bench_workload(const char* tag, ParticleSet base, bool decomp_2d,
                             float hot_half_extent, std::uint64_t seed,
                             ThreadPool* pool) {
    const auto dir = bench::scratch_dir(std::string("series_pipeline_") + tag);
    SlowSeries series = make_slow_series(std::move(base), kRanks, decomp_2d,
                                         hot_half_extent);
    std::fprintf(stderr,
                 "[bench] %s: %zu particles, %zu hot (%.1f%%), %d steps x %d ranks\n",
                 tag, series.base.count(), series.hot.size(),
                 100.0 * static_cast<double>(series.hot.size()) /
                     static_cast<double>(series.base.count()),
                 kSteps, kRanks);
    // One full/delta pair is at the mercy of whatever else the host runs
    // during either pass, so run kPairs interleaved pairs and report the
    // pair with the median write-total ratio.
    std::vector<SeriesSummary> pairs;
    for (int p = 0; p < kPairs; ++p) {
        // Each pair starts from an empty directory: the delta pass must not
        // find the previous pair's files.
        std::filesystem::create_directories(dir);
        const SeriesRun full = run_series(dir, series, std::string(tag) + "_full",
                                          /*incremental=*/false, seed, pool);
        const SeriesRun delta = run_series(dir, series, std::string(tag) + "_delta",
                                           /*incremental=*/true, seed, pool);
        pairs.push_back(summarize(full, delta, series.base.count()));
        std::filesystem::remove_all(dir);
    }
    auto ratio = [](const SeriesSummary& s) { return s.total_delta_s / s.total_full_s; };
    std::nth_element(pairs.begin(), pairs.begin() + kPairs / 2, pairs.end(),
                     [&](const SeriesSummary& a, const SeriesSummary& b) {
                         return ratio(a) < ratio(b);
                     });
    return pairs[kPairs / 2];
}

void add_rows(bench::JsonBenchWriter* writer, const char* tag, const SeriesSummary& s,
              int threads) {
    const std::string prefix = std::string("series.") + tag + ".";
    auto count_row = [&](const char* name, std::uint64_t n, const char* unit) {
        writer->add(bench::JsonBenchResult{prefix + name, n, 0.0, unit, 0.0, threads});
    };
    auto total_row = [&](const char* name, double seconds, double bytes) {
        writer->add(bench::JsonBenchResult{
            prefix + name, s.particles,
            1e9 * seconds / static_cast<double>(s.particles), "ns/op",
            seconds > 0 ? bytes / seconds : 0.0, threads});
    };
    count_row("steady_bytes_full", static_cast<std::uint64_t>(s.steady_bytes_full),
              "bytes");
    count_row("steady_bytes_delta", static_cast<std::uint64_t>(s.steady_bytes_delta),
              "bytes");
    total_row("write_total_full", s.total_full_s, s.steady_bytes_full);
    total_row("write_total_delta", s.total_delta_s, s.steady_bytes_delta);
    // Treelet rows: `n` is every treelet judged, the value rides in ns_op,
    // so a run with zero clean treelets still reads as a valid row (the
    // schema wants n > 0) and fails the clean-treelet gate by name.
    const std::uint64_t judged = s.treelets_clean + s.treelets_written;
    auto treelet_row = [&](const char* name, double value, const char* unit) {
        writer->add(bench::JsonBenchResult{prefix + name, judged, value, unit, 0.0, threads});
    };
    treelet_row("treelets_clean", static_cast<double>(s.treelets_clean), "treelets");
    treelet_row("treelets_written", static_cast<double>(s.treelets_written), "treelets");
    treelet_row("delta_hit_pct",
                judged > 0 ? 100.0 * static_cast<double>(s.treelets_clean) /
                                 static_cast<double>(judged)
                           : 0.0,
                "pct");
}

void print_summary(const char* tag, const SeriesSummary& s) {
    bench::Table table({"metric", "full", "delta", "ratio"});
    table.add_row({"steady bytes/step (MB)", bench::fmt(s.steady_bytes_full / 1e6, 2),
                   bench::fmt(s.steady_bytes_delta / 1e6, 2),
                   bench::fmt(s.steady_bytes_delta / s.steady_bytes_full, 3)});
    table.add_row({"write total/step (ms)", bench::fmt(1e3 * s.total_full_s, 2),
                   bench::fmt(1e3 * s.total_delta_s, 2),
                   bench::fmt(s.total_delta_s / s.total_full_s, 3)});
    const std::uint64_t judged = s.treelets_clean + s.treelets_written;
    std::printf("== %s: %d steady steps, treelets %llu clean / %llu written "
                "(%.1f%% hit rate)\n",
                tag, s.steady_steps,
                static_cast<unsigned long long>(s.treelets_clean),
                static_cast<unsigned long long>(s.treelets_written),
                judged > 0 ? 100.0 * static_cast<double>(s.treelets_clean) /
                                 static_cast<double>(judged)
                           : 0.0);
    table.print();
}

}  // namespace

int main(int argc, char** argv) {
    ThreadPool pool(ThreadPool::default_concurrency());
    const int threads = static_cast<int>(pool.num_threads()) + 1;

    // Base snapshots sized for single-node runs: the boiler early in its
    // injection history, the dam break mid-collapse (its count is fixed
    // over the series anyway).
    BoilerConfig boiler;
    boiler.particles_at_start = 120'000;
    boiler.particles_at_end = 1'080'000;  // keep the paper's 9x growth ratio
    DamBreakConfig dam;
    dam.num_particles = 120'000;

    const SeriesSummary boiler_sum =
        bench_workload("boiler", make_boiler_particles(boiler, boiler.t_start),
                       /*decomp_2d=*/false, /*hot_half_extent=*/0.15f, 0xb01'1e5,
                       &pool);
    const SeriesSummary dam_sum =
        bench_workload("dambreak", make_dambreak_particles(dam, dam.t_final / 2),
                       /*decomp_2d=*/true, /*hot_half_extent=*/0.07f, 0xda'3b7e,
                       &pool);

    if (bench::has_flag(argc, argv, "--json")) {
        const char* out = bench::flag_value(argc, argv, "--out", "BENCH_series.json");
        bench::JsonBenchWriter writer;
        add_rows(&writer, "boiler", boiler_sum, threads);
        add_rows(&writer, "dambreak", dam_sum, threads);
        writer.write(out);
    } else {
        print_summary("boiler", boiler_sum);
        print_summary("dambreak", dam_sum);
    }
    return 0;
}
