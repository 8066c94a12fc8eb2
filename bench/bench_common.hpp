#pragma once
// Shared helpers for the table/figure reproduction benches: machine + rank
// series, workload setup, calibration caching, and aligned table printing.
//
// Scaling note: functional benches (Tables I/II, overhead) build *real* BAT
// files, so their particle counts are scaled down from the paper's 4.6M-41.5M
// (Coal Boiler) and 2M/8M (Dam Break) by default to keep single-node run
// times reasonable. Set BAT_BENCH_SCALE=1.0 to run at paper scale. The
// performance-model benches (Figs 5-7, 9-12) always run the aggregation
// algorithms at the paper's full rank/particle counts — only count
// *estimation* uses strided sampling.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "simio/calibrate.hpp"
#include "simio/machine.hpp"
#include "simio/pipeline_model.hpp"
#include "workloads/decomposition.hpp"

namespace bat::bench {

/// Scale factor for functional (real-file) benches.
inline double bench_scale() {
    if (const char* env = std::getenv("BAT_BENCH_SCALE")) {
        return std::atof(env);
    }
    return 0.25;
}

/// The paper's weak-scaling rank series (Fig 5/6/7).
inline std::vector<int> stampede2_rank_series() {
    return {128, 384, 768, 1536, 3072, 6144, 12288, 24576};
}
inline std::vector<int> summit_rank_series() {
    return {168, 672, 1344, 2688, 5376, 10752, 21504, 43008};
}

/// The paper's per-rank uniform workload: 32k particles, 3*f32 + 14*f64.
inline constexpr std::uint64_t kUniformParticlesPerRank = 32'768;
inline constexpr std::uint64_t kUniformBpp = 12 + 14 * 8;

inline std::vector<RankInfo> uniform_rank_infos(int nranks) {
    const GridDecomp decomp = grid_decomp_3d(nranks, Box({0, 0, 0}, {1, 1, 1}));
    const std::vector<std::uint64_t> counts(static_cast<std::size_t>(nranks),
                                            kUniformParticlesPerRank);
    return make_rank_infos(decomp, counts);
}

/// Calibrate the BAT build throughput once per process (used by every
/// performance-model bench so breakdowns reflect this machine's builder).
inline const simio::Calibration& calibration() {
    static const simio::Calibration cal = [] {
        std::fprintf(stderr, "[bench] calibrating BAT build throughput...\n");
        const simio::Calibration c = simio::calibrate_bat_build();
        std::fprintf(stderr, "[bench] build throughput %.0f MB/s, layout overhead %.2f%%\n",
                      c.bat_build_bps / 1e6, 100.0 * c.layout_overhead);
        return c;
    }();
    return cal;
}

inline simio::TwoPhaseParams two_phase_params(const simio::MachineConfig& machine,
                                              AggStrategy strategy, std::uint64_t target,
                                              std::uint64_t bytes_per_particle) {
    simio::TwoPhaseParams params;
    params.machine = machine;
    params.strategy = strategy;
    params.tree.target_file_size = target;
    params.tree.bytes_per_particle = bytes_per_particle;
    params.bat_build_bps = calibration().bat_build_bps;
    params.layout_overhead = calibration().layout_overhead;
    return params;
}

/// Simple aligned table printer.
class Table {
public:
    explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

    void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

    void print() const {
        std::vector<std::size_t> widths(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            widths[c] = headers_[c].size();
        }
        for (const auto& row : rows_) {
            for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
                widths[c] = std::max(widths[c], row[c].size());
            }
        }
        auto print_row = [&](const std::vector<std::string>& row) {
            for (std::size_t c = 0; c < row.size(); ++c) {
                std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
            }
            std::printf("\n");
        };
        print_row(headers_);
        std::size_t total = 0;
        for (std::size_t w : widths) {
            total += w + 2;
        }
        std::printf("%s\n", std::string(total, '-').c_str());
        for (const auto& row : rows_) {
            print_row(row);
        }
    }

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int precision = 2) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

inline std::string fmt_mb(std::uint64_t bytes) {
    return fmt(static_cast<double>(bytes) / (1 << 20), 1);
}

// ---- machine-readable results (--json, docs/PERFORMANCE.md) ---------------
// Perf-regression harness: benches emit one JSON document per run so CI and
// later PRs can diff before/after numbers mechanically. Schema
// "bat-bench-v1": {"schema": ..., "benchmarks": [{"name", "n", "ns_op",
// "unit", "bytes_per_sec", "threads"}, ...]} — ns_op is nanoseconds per
// element (best of the measured repetitions), bytes_per_sec the payload
// throughput (0 when a kernel has no natural byte volume). `unit` names
// what ns_op measures; rows reporting a count rather than a rate (e.g.
// message tallies) say so ("msgs") and carry ns_op = 0, and tools/bench_check
// only requires a positive ns_op on "ns/op" rows. A value that can be 0
// (a share, or the series clean-treelet count) rides in ns_op over its
// population in n, since n must be positive.

struct JsonBenchResult {
    std::string name;
    std::uint64_t n = 0;
    double ns_op = 0.0;
    std::string unit = "ns/op";
    double bytes_per_sec = 0.0;
    int threads = 1;
};

class JsonBenchWriter {
public:
    void add(JsonBenchResult r) { results_.push_back(std::move(r)); }

    void write(const std::filesystem::path& path) const {
        std::FILE* f = std::fopen(path.string().c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "[bench] cannot open %s for writing\n",
                         path.string().c_str());
            std::exit(1);
        }
        std::fprintf(f, "{\n  \"schema\": \"bat-bench-v1\",\n  \"benchmarks\": [\n");
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const JsonBenchResult& r = results_[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"n\": %llu, \"ns_op\": %.3f, "
                         "\"unit\": \"%s\", \"bytes_per_sec\": %.0f, \"threads\": %d}%s\n",
                         r.name.c_str(), static_cast<unsigned long long>(r.n), r.ns_op,
                         r.unit.c_str(), r.bytes_per_sec, r.threads,
                         i + 1 < results_.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::fprintf(stderr, "[bench] wrote %zu results to %s\n", results_.size(),
                     path.string().c_str());
    }

private:
    std::vector<JsonBenchResult> results_;
};

inline bool has_flag(int argc, char** argv, const char* flag) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            return true;
        }
    }
    return false;
}

/// Value of `--flag value`, or `fallback` when absent.
inline const char* flag_value(int argc, char** argv, const char* flag,
                              const char* fallback) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            return argv[i + 1];
        }
    }
    return fallback;
}

/// Best-of-`reps` wall seconds of fn().
template <typename F>
double best_seconds(int reps, F&& fn) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double dt =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        best = std::min(best, dt);
    }
    return best;
}

}  // namespace bat::bench
