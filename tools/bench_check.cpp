// Perf-regression gate for CI: validates a bat-bench-v1 JSON document
// (from `bench/micro_kernels --json` or `bench/read_pipeline --json`) and
// applies every gate family whose rows are present:
//
//   simd — the vector kernel tiers must pay for their dispatch:
//     morton_encode_simd >= 1.5x over morton_encode_scalar and
//     bitmap_bin_simd >= 1.0x over bitmap_bin_scalar at n >= 1M (rows are
//     only emitted when a vector tier is active, so scalar-only hosts skip
//     this family);
//   bat_build — ceiling on the write pipeline's BAT build phase. When a
//     seed document (--seed FILE or BAT_BENCH_SEED_FILE) carries a
//     write.bat_build row, the gate is the same-host before/after ratio:
//     new <= 1.25x seed ns/op (BAT_BENCH_MAX_BAT_BUILD_RATIO). Without a
//     seed row it falls back to the absolute 140 ns/op ceiling at n >= 1M
//     (BAT_BENCH_MAX_BAT_BUILD_NS) — absolute ceilings are calibrated for
//     the reference host and trip spuriously on slower machines, so prefer
//     seeding with the same host's previous run;
//   bat_tiling — the write pipeline's bat.* stage rows must sum to no more
//     than its write.bat_build row: both come from the same rank, and the
//     stages run one after another inside that phase;
//   series — incremental series writes (bench/series_pipeline --json) must
//     pay off on slowly-evolving data: for every series.<workload> row
//     group, steady-state delta steps must write <= 0.40x the bytes of the
//     full-rewrite baseline (BAT_BENCH_MAX_SERIES_BYTES_RATIO), the
//     per-step write total must not exceed the baseline's
//     (BAT_BENCH_MAX_SERIES_TOTAL_RATIO, default 1.0), and at least one
//     treelet must actually have been written by reference
//     (series.<w>.treelets_clean >= 1 — a zero delta-hit count means the
//     incremental path silently degraded to full rewrites);
//   serve — threaded leaf serving must not lose to the serial comm-thread
//     path: read.serve_pool <= read.serve_serial ns/op at n >= 1M;
//   msgs — request coalescing must cut traffic: the read.msgs_coalesced
//     message count (`n`) must be below read.msgs_per_leaf;
//   querytrace — armed per-query tracing must stay cheap: the
//     read.total_querytrace ns/op (bench/obs_overhead --json) must be within
//     5% of read.total_off;
//   prof — profiler-armed runs (obs/prof.hpp) must stay honest three ways:
//     read.total_prof within 5% of read.total_off
//     (BAT_BENCH_MAX_PROF_RATIO), prof.attributed_pct >= 90% of samples
//     carrying a span-stack attribution (BAT_BENCH_MIN_PROF_ATTRIB_PCT),
//     and every prof.share.bat.* stage sample share within 15 points of the
//     matching wall share for stages with >= 10% wall share
//     (BAT_BENCH_MAX_PROF_SHARE_DELTA). The wall share comes from the
//     prof.wall.bat.* row (same ranks and runs as the samples) when the
//     document has one, else from the bat.* ns/op rows.
//
// Rows carry a `unit` (default "ns/op"); rows whose unit is a plain count
// (e.g. "msgs") are exempt from the positive-ns_op requirement, since their
// payload is `n` and a fabricated rate would gate nothing real.
//
// A bat-report-v1 document (obs/health.hpp run report, report.json in a
// BAT_OBS run bundle)
// instead goes through the `report` gate family: schema-validates the run /
// phases / messages sections, requires at least one write.* or read.* phase
// with calls >= 1, checks min <= mean <= max for every phase, and checks
// min <= p50 <= p90 <= p99 <= max for every histogram carrying percentiles.
//
// A file that matches no family fails (exit 1): a gate silently skipping is
// indistinguishable from a gate passing.
// Usage: bench_check [--seed FILE] <BENCH.json>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace {

using bat::obs::json::Value;

int fail(const std::string& msg) {
    std::fprintf(stderr, "bench_check: FAIL: %s\n", msg.c_str());
    return 1;
}

using NsByKey = std::map<std::pair<std::string, std::uint64_t>, double>;

/// ns/op of the single entry named `name`, or -1 when absent. Fails the
/// process via the returned flag when the name appears at several n.
bool find_unique(const NsByKey& ns_op, const std::string& name, std::uint64_t* n,
                 double* ns) {
    bool found = false;
    for (const auto& [key, value] : ns_op) {
        if (key.first != name) {
            continue;
        }
        if (found) {
            return false;  // ambiguous: same row name at two sizes
        }
        found = true;
        *n = key.second;
        *ns = value;
    }
    return found;
}

// ---- gate families --------------------------------------------------------
// Each returns the number of comparisons it checked (0 = rows absent, so
// the family does not apply), or -1 on failure after printing the reason.

/// build_bat's stage rows (the bat.* spans), in build order.
const char* const kBatStages[] = {"bat.edges",    "bat.encode",  "bat.sort",
                                  "bat.treelets", "bat.reorder", "bat.bitmaps"};

int gate_serve(const NsByKey& ns_op) {
    constexpr std::uint64_t kGateMin = 1u << 20;
    std::uint64_t n_serial = 0;
    std::uint64_t n_pool = 0;
    double serial_ns = 0;
    double pool_ns = 0;
    const bool has_serial = find_unique(ns_op, "read.serve_serial", &n_serial, &serial_ns);
    const bool has_pool = find_unique(ns_op, "read.serve_pool", &n_pool, &pool_ns);
    if (!has_serial && !has_pool) {
        return 0;
    }
    if (!has_serial || !has_pool) {
        fail("read.serve_serial/read.serve_pool must appear together (once each)");
        return -1;
    }
    if (n_serial != n_pool) {
        fail("read.serve_serial and read.serve_pool ran at different n");
        return -1;
    }
    if (n_serial < kGateMin) {
        fail("read.serve comparison below the 1M-particle gate size");
        return -1;
    }
    const double speedup = serial_ns / pool_ns;
    std::printf("bench_check: n=%-9llu read.serve_pool  %8.2f ns/op vs serial %8.2f "
                "(%.2fx)\n",
                static_cast<unsigned long long>(n_serial), pool_ns, serial_ns, speedup);
    if (speedup < 1.0) {
        fail("threaded leaf serving slower than serial at n=" + std::to_string(n_serial));
        return -1;
    }
    return 1;
}

int gate_msgs(const NsByKey& ns_op) {
    std::uint64_t coalesced = 0;
    std::uint64_t per_leaf = 0;
    double ignored = 0;
    const bool has_coalesced = find_unique(ns_op, "read.msgs_coalesced", &coalesced,
                                           &ignored);
    const bool has_per_leaf = find_unique(ns_op, "read.msgs_per_leaf", &per_leaf,
                                          &ignored);
    if (!has_coalesced && !has_per_leaf) {
        return 0;
    }
    if (!has_coalesced || !has_per_leaf) {
        fail("read.msgs_coalesced/read.msgs_per_leaf must appear together (once each)");
        return -1;
    }
    std::printf("bench_check: request msgs: coalesced %llu vs per-leaf %llu\n",
                static_cast<unsigned long long>(coalesced),
                static_cast<unsigned long long>(per_leaf));
    if (coalesced >= per_leaf) {
        fail("coalescing did not reduce the request message count");
        return -1;
    }
    return 1;
}

int gate_simd(const NsByKey& ns_op) {
    // The vectorized kernels must actually pay for their dispatch: the BMI2
    // Morton batch encode has to beat forced-scalar by 1.5x at >= 1M, the
    // AVX2 binning kernel must at least not lose. micro_kernels emits these
    // rows only when a vector tier is active, so a scalar-only host simply
    // reports this family inapplicable.
    struct Pair {
        const char* scalar;
        const char* simd;
        double min_speedup;
    };
    constexpr std::uint64_t kGateMin = 1u << 20;
    int gated = 0;
    for (const Pair& p : {Pair{"morton_encode_scalar", "morton_encode_simd", 1.5},
                          Pair{"bitmap_bin_scalar", "bitmap_bin_simd", 1.0}}) {
        std::uint64_t n_scalar = 0;
        std::uint64_t n_simd = 0;
        double scalar_ns = 0;
        double simd_ns = 0;
        const bool has_scalar = find_unique(ns_op, p.scalar, &n_scalar, &scalar_ns);
        const bool has_simd = find_unique(ns_op, p.simd, &n_simd, &simd_ns);
        if (!has_scalar && !has_simd) {
            continue;
        }
        if (!has_scalar || !has_simd) {
            fail(std::string(p.scalar) + "/" + p.simd +
                 " must appear together (once each)");
            return -1;
        }
        if (n_scalar != n_simd) {
            fail(std::string(p.simd) + " ran at a different n than its scalar row");
            return -1;
        }
        if (n_scalar < kGateMin) {
            fail(std::string(p.simd) + " comparison below the 1M gate size");
            return -1;
        }
        const double speedup = scalar_ns / simd_ns;
        std::printf("bench_check: n=%-9llu %-20s %8.2f ns/op vs scalar %8.2f (%.2fx, "
                    "need %.1fx)\n",
                    static_cast<unsigned long long>(n_simd), p.simd, simd_ns, scalar_ns,
                    speedup, p.min_speedup);
        if (speedup < p.min_speedup) {
            fail(std::string(p.simd) + " speedup below " +
                 std::to_string(p.min_speedup) + "x over scalar");
            return -1;
        }
        ++gated;
    }
    return gated;
}

/// Positive ratio/ceiling override from the environment, or `fallback`.
/// Returns false (after printing) when the variable is set but not positive.
bool env_positive(const char* var, double fallback, double* out) {
    *out = fallback;
    if (const char* env = std::getenv(var); env != nullptr && *env != '\0') {
        *out = std::atof(env);
        if (*out <= 0) {
            fail(std::string(var) + " is not a positive number");
            return false;
        }
    }
    return true;
}

int gate_bat_build(const NsByKey& ns_op, const NsByKey* seed) {
    constexpr std::uint64_t kGateMin = 1u << 20;
    std::uint64_t n = 0;
    double ns = 0;
    if (!find_unique(ns_op, "write.bat_build", &n, &ns)) {
        return 0;
    }
    if (n < kGateMin) {
        fail("write.bat_build below the 1M-particle gate size");
        return -1;
    }
    // Same-host before/after ratio against the seed document when it has a
    // row; absolute ceilings are calibrated for the reference host, so they
    // only apply when there is nothing honest to compare against.
    std::uint64_t seed_n = 0;
    double seed_ns = 0;
    if (seed != nullptr && find_unique(*seed, "write.bat_build", &seed_n, &seed_ns) &&
        seed_ns > 0) {
        double max_ratio = 0;
        if (!env_positive("BAT_BENCH_MAX_BAT_BUILD_RATIO", 1.25, &max_ratio)) {
            return -1;
        }
        const double ratio = ns / seed_ns;
        std::printf("bench_check: n=%-9llu write.bat_build  %8.2f ns/op vs seed %8.2f "
                    "(%.3fx, max %.2fx)\n",
                    static_cast<unsigned long long>(n), ns, seed_ns, ratio, max_ratio);
        if (ratio > max_ratio) {
            fail("write.bat_build regressed more than " + std::to_string(max_ratio) +
                 "x over the seed run");
            return -1;
        }
        return 1;
    }
    double ceiling = 0;
    if (!env_positive("BAT_BENCH_MAX_BAT_BUILD_NS", 140.0, &ceiling)) {
        return -1;
    }
    std::printf("bench_check: n=%-9llu write.bat_build  %8.2f ns/op (ceiling %.1f)\n",
                static_cast<unsigned long long>(n), ns, ceiling);
    if (ns > ceiling) {
        fail("write.bat_build above the " + std::to_string(ceiling) + " ns/op ceiling");
        return -1;
    }
    return 1;
}

int gate_bat_tiling(const NsByKey& ns_op) {
    // The bat.* stage rows come from the rank whose build is the
    // write.bat_build row, and the stages run one after another inside that
    // phase, so they must sum to no more than it.
    std::uint64_t n = 0;
    double bat_build = 0;
    if (!find_unique(ns_op, "write.bat_build", &n, &bat_build)) {
        return 0;
    }
    double sum = 0;
    int stages = 0;
    for (const char* stage : kBatStages) {
        std::uint64_t stage_n = 0;
        double ns = 0;
        if (find_unique(ns_op, stage, &stage_n, &ns)) {
            if (stage_n != n) {
                fail(std::string(stage) + " ran at a different n than write.bat_build");
                return -1;
            }
            sum += ns;
            ++stages;
        }
    }
    if (stages == 0) {
        return 0;
    }
    std::printf("bench_check: n=%-9llu bat.* sum        %8.2f ns/op vs write.bat_build "
                "%8.2f (%.3fx)\n",
                static_cast<unsigned long long>(n), sum, bat_build,
                bat_build > 0 ? sum / bat_build : 0.0);
    // Rows are printed to 0.001 ns/op; allow only that rounding.
    if (sum > bat_build + 0.0005 * (stages + 1)) {
        fail("bat.* stages sum above write.bat_build: they must come from the same rank");
        return -1;
    }
    return 1;
}

int gate_series(const NsByKey& ns_op) {
    // Incremental series writes (bench/series_pipeline): per workload row
    // group, steady-state delta steps must write well under the full-rewrite
    // baseline's bytes, must not be slower end to end, and must have
    // actually referenced prior-step treelets (non-vacuity).
    double max_bytes_ratio = 0;
    double max_total_ratio = 0;
    if (!env_positive("BAT_BENCH_MAX_SERIES_BYTES_RATIO", 0.40, &max_bytes_ratio) ||
        !env_positive("BAT_BENCH_MAX_SERIES_TOTAL_RATIO", 1.0, &max_total_ratio)) {
        return -1;
    }
    int gated = 0;
    const std::string kBytesFull = ".steady_bytes_full";
    for (const auto& [key, unused] : ns_op) {
        const std::string& name = key.first;
        if (name.rfind("series.", 0) != 0 || name.size() <= kBytesFull.size() ||
            name.compare(name.size() - kBytesFull.size(), kBytesFull.size(),
                         kBytesFull) != 0) {
            continue;
        }
        const std::string prefix = name.substr(0, name.size() - kBytesFull.size());
        auto need = [&](const char* suffix, std::uint64_t* n, double* ns) {
            if (!find_unique(ns_op, prefix + suffix, n, ns)) {
                fail(prefix + suffix + " missing (series rows must appear together)");
                return false;
            }
            return true;
        };
        std::uint64_t bytes_full = 0;
        std::uint64_t bytes_delta = 0;
        std::uint64_t n_full = 0;
        std::uint64_t n_delta = 0;
        std::uint64_t clean = 0;
        std::uint64_t written = 0;
        double ignored = 0;
        double total_full_ns = 0;
        double total_delta_ns = 0;
        if (!need(".steady_bytes_full", &bytes_full, &ignored) ||
            !need(".steady_bytes_delta", &bytes_delta, &ignored) ||
            !need(".write_total_full", &n_full, &total_full_ns) ||
            !need(".write_total_delta", &n_delta, &total_delta_ns) ||
            !need(".treelets_clean", &clean, &ignored) ||
            !need(".treelets_written", &written, &ignored)) {
            return -1;
        }
        if (bytes_full == 0 || total_full_ns <= 0) {
            fail(prefix + ": full-rewrite baseline rows are zero");
            return -1;
        }
        if (n_full != n_delta) {
            fail(prefix + ": full and delta passes ran at different n");
            return -1;
        }
        const double bytes_ratio =
            static_cast<double>(bytes_delta) / static_cast<double>(bytes_full);
        const double total_ratio = total_delta_ns / total_full_ns;
        const double hit_rate =
            clean + written > 0
                ? static_cast<double>(clean) / static_cast<double>(clean + written)
                : 0.0;
        std::printf("bench_check: %-24s steady bytes %.3fx (max %.2fx), write total "
                    "%.3fx (max %.2fx), delta hits %.1f%%\n",
                    prefix.c_str(), bytes_ratio, max_bytes_ratio, total_ratio,
                    max_total_ratio, 100.0 * hit_rate);
        if (clean == 0) {
            fail(prefix + ": no treelets written by reference — the incremental "
                          "path degraded to full rewrites");
            return -1;
        }
        if (bytes_ratio > max_bytes_ratio) {
            fail(prefix + ": steady-state delta steps write more than " +
                 std::to_string(max_bytes_ratio) + "x the full-rewrite bytes");
            return -1;
        }
        if (total_ratio > max_total_ratio) {
            fail(prefix + ": steady-state delta write total exceeds " +
                 std::to_string(max_total_ratio) + "x the full-rewrite total");
            return -1;
        }
        ++gated;
    }
    return gated;
}

int gate_querytrace(const NsByKey& ns_op) {
    constexpr double kMaxOverhead = 1.05;  // armed tracing within 5% of off
    std::uint64_t n_off = 0;
    std::uint64_t n_on = 0;
    double off_ns = 0;
    double on_ns = 0;
    const bool has_off = find_unique(ns_op, "read.total_off", &n_off, &off_ns);
    const bool has_on = find_unique(ns_op, "read.total_querytrace", &n_on, &on_ns);
    if (!has_off && !has_on) {
        return 0;
    }
    if (!has_off || !has_on) {
        fail("read.total_off/read.total_querytrace must appear together (once each)");
        return -1;
    }
    if (n_off != n_on) {
        fail("read.total_off and read.total_querytrace ran at different n");
        return -1;
    }
    const double ratio = on_ns / off_ns;
    std::printf("bench_check: n=%-9llu read.total_querytrace %8.2f ns/op vs off %8.2f "
                "(%.3fx)\n",
                static_cast<unsigned long long>(n_on), on_ns, off_ns, ratio);
    if (ratio > kMaxOverhead) {
        fail("query tracing overhead above 5% on read.total");
        return -1;
    }
    return 1;
}

// ---- prof gate family -----------------------------------------------------
// Gates profiler-armed runs three ways: end-to-end overhead vs the unarmed
// pipeline (bench/obs_overhead rows), sample-attribution coverage, and
// per-stage sample shares vs the builder's wall-time shares
// (bench/write_pipeline rows).

int gate_prof_overhead(const NsByKey& ns_op) {
    std::uint64_t n_off = 0;
    std::uint64_t n_prof = 0;
    double off_ns = 0;
    double prof_ns = 0;
    const bool has_off = find_unique(ns_op, "read.total_off", &n_off, &off_ns);
    const bool has_prof = find_unique(ns_op, "read.total_prof", &n_prof, &prof_ns);
    if (!has_prof) {
        return 0;  // not a profiler-armed obs_overhead run
    }
    if (!has_off) {
        fail("read.total_prof present without its read.total_off baseline");
        return -1;
    }
    if (n_off != n_prof) {
        fail("read.total_off and read.total_prof ran at different n");
        return -1;
    }
    double max_ratio = 0;
    if (!env_positive("BAT_BENCH_MAX_PROF_RATIO", 1.05, &max_ratio)) {
        return -1;
    }
    const double ratio = prof_ns / off_ns;
    std::printf("bench_check: n=%-9llu read.total_prof       %8.2f ns/op vs off %8.2f "
                "(%.3fx)\n",
                static_cast<unsigned long long>(n_prof), prof_ns, off_ns, ratio);
    if (ratio > max_ratio) {
        fail("profiler-armed overhead above " + std::to_string(max_ratio) +
             "x on read.total");
        return -1;
    }
    return 1;
}

int gate_prof_attrib(const NsByKey& ns_op) {
    std::uint64_t samples_n = 0;
    std::uint64_t attrib_n = 0;
    double samples_ns = 0;
    double attrib_pct = 0;
    const bool has_samples = find_unique(ns_op, "prof.samples", &samples_n, &samples_ns);
    const bool has_attrib =
        find_unique(ns_op, "prof.attributed_pct", &attrib_n, &attrib_pct);
    if (!has_samples && !has_attrib) {
        return 0;
    }
    if (!has_samples || !has_attrib) {
        fail("prof.samples/prof.attributed_pct must appear together (once each)");
        return -1;
    }
    double min_pct = 0;
    if (!env_positive("BAT_BENCH_MIN_PROF_ATTRIB_PCT", 90.0, &min_pct)) {
        return -1;
    }
    std::printf("bench_check: %llu profiler samples, %.1f%% span-attributed\n",
                static_cast<unsigned long long>(samples_n), attrib_pct);
    if (attrib_pct < min_pct) {
        fail("profiler span attribution below " + std::to_string(min_pct) + "%");
        return -1;
    }
    return 1;
}

int gate_prof_shares(const NsByKey& ns_op) {
    // The builder's internal stages: wall shares come from the
    // prof.wall.bat.* rows when present (percent over the ranks and runs the
    // samples cover), else from the bat.* ns/op rows; sample shares from the
    // prof.share.bat.* rows; all normalized over this set. A stage with no prof.share row has 0 sampled share
    // (zero-n rows are not representable in the schema). Only stages with a
    // meaningful wall share (>= 10%) are gated: at ~100 ms of bat_build per
    // run, a 5%-wall stage collects too few 97 Hz samples to bound tightly.
    double wall_total = 0;
    std::map<std::string, double> wall;
    std::map<std::string, double> sampled;
    bool any_share_row = false;
    for (const char* stage : kBatStages) {
        std::uint64_t n = 0;
        double ns = 0;
        if (find_unique(ns_op, std::string("prof.wall.") + stage, &n, &ns) ||
            find_unique(ns_op, stage, &n, &ns)) {
            wall[stage] = ns;
            wall_total += ns;
        }
        if (find_unique(ns_op, std::string("prof.share.") + stage, &n, &ns)) {
            sampled[stage] = ns;  // ns_op carries the share in percent
            any_share_row = true;
        }
    }
    if (!any_share_row) {
        return 0;  // not a profiler-armed write_pipeline run
    }
    if (wall_total <= 0) {
        fail("prof.share.bat.* rows present without bat.* wall-time rows");
        return -1;
    }
    double max_delta = 0;
    if (!env_positive("BAT_BENCH_MAX_PROF_SHARE_DELTA", 15.0, &max_delta)) {
        return -1;
    }
    int gated = 0;
    for (const char* stage : kBatStages) {
        const double wall_share =
            wall.count(stage) != 0 ? 100.0 * wall[stage] / wall_total : 0.0;
        const double sample_share = sampled.count(stage) != 0 ? sampled[stage] : 0.0;
        const double delta = sample_share - wall_share;
        std::printf("bench_check: %-14s wall %5.1f%% sampled %5.1f%% (delta %+5.1f)%s\n",
                    stage, wall_share, sample_share, delta,
                    wall_share >= 10.0 ? "" : "  [not gated]");
        if (wall_share < 10.0) {
            continue;
        }
        if (delta > max_delta || delta < -max_delta) {
            fail(std::string(stage) + " sample share deviates from wall share by more "
                                      "than " +
                 std::to_string(max_delta) + " points");
            return -1;
        }
        ++gated;
    }
    return gated;
}

// ---- report gate family ---------------------------------------------------
// Validates a bat-report-v1 document end to end; returns 0 on success after
// printing a summary line, 1 on failure.

int gate_report(const Value& doc, const char* path) {
    const Value* run = doc.find("run");
    if (run == nullptr || !run->is_object()) {
        return fail("report missing \"run\" object");
    }
    const Value* wall = run->find("wall_seconds");
    if (wall == nullptr || !wall->is_number() || wall->number() <= 0) {
        return fail("report \"run.wall_seconds\" missing or not positive");
    }
    const Value* ranks = run->find("ranks");
    if (ranks == nullptr || !ranks->is_number() || ranks->number() < 1) {
        return fail("report \"run.ranks\" missing or < 1");
    }
    const Value* phases = doc.find("phases");
    if (phases == nullptr || !phases->is_object()) {
        return fail("report missing \"phases\" object");
    }
    int io_phases = 0;
    for (const auto& [name, phase] : phases->object()) {
        if (!phase.is_object()) {
            return fail("phase \"" + name + "\" is not an object");
        }
        const Value* calls = phase.find("calls");
        const Value* min_s = phase.find("min_s");
        const Value* mean_s = phase.find("mean_s");
        const Value* max_s = phase.find("max_s");
        if (calls == nullptr || !calls->is_number() || calls->number() < 1) {
            return fail("phase \"" + name + "\" missing \"calls\" >= 1");
        }
        if (min_s == nullptr || !min_s->is_number() || mean_s == nullptr ||
            !mean_s->is_number() || max_s == nullptr || !max_s->is_number()) {
            return fail("phase \"" + name + "\" missing min_s/mean_s/max_s");
        }
        if (!(min_s->number() <= mean_s->number() &&
              mean_s->number() <= max_s->number())) {
            return fail("phase \"" + name + "\" violates min <= mean <= max");
        }
        if (name.rfind("write.", 0) == 0 || name.rfind("read.", 0) == 0) {
            ++io_phases;
        }
    }
    if (io_phases == 0) {
        return fail("report has no write.* or read.* phase — the traced pipeline "
                    "did not run");
    }
    const Value* messages = doc.find("messages");
    if (messages == nullptr || !messages->is_object()) {
        return fail("report missing \"messages\" object");
    }
    for (const char* key : {"sends", "recvs", "send_bytes", "recv_bytes"}) {
        const Value* v = messages->find(key);
        if (v == nullptr || !v->is_number() || v->number() < 0) {
            return fail(std::string("report \"messages.") + key + "\" missing");
        }
    }
    // Percentile sanity: every histogram that reports them must satisfy
    // min <= p50 <= p90 <= p99 <= max (the estimator clamps to the observed
    // range, so a violation means broken accounting, not estimation error).
    int percentiled = 0;
    if (const Value* histograms = doc.find("histograms");
        histograms != nullptr && histograms->is_object()) {
        for (const auto& [name, h] : histograms->object()) {
            if (!h.is_object()) {
                return fail("histogram \"" + name + "\" is not an object");
            }
            const Value* count = h.find("count");
            const Value* p50 = h.find("p50");
            const Value* p90 = h.find("p90");
            const Value* p99 = h.find("p99");
            if (p50 == nullptr && p90 == nullptr && p99 == nullptr) {
                continue;  // pre-percentile report
            }
            if (p50 == nullptr || !p50->is_number() || p90 == nullptr ||
                !p90->is_number() || p99 == nullptr || !p99->is_number()) {
                return fail("histogram \"" + name + "\" has partial percentiles");
            }
            if (count == nullptr || !count->is_number() || count->number() < 1) {
                continue;  // empty histogram: percentiles are all 0
            }
            const Value* min = h.find("min");
            const Value* max = h.find("max");
            if (min == nullptr || !min->is_number() || max == nullptr ||
                !max->is_number()) {
                return fail("histogram \"" + name + "\" missing min/max");
            }
            if (!(min->number() <= p50->number() && p50->number() <= p90->number() &&
                  p90->number() <= p99->number() && p99->number() <= max->number())) {
                return fail("histogram \"" + name +
                            "\" violates min <= p50 <= p90 <= p99 <= max");
            }
            ++percentiled;
        }
    }
    std::printf("bench_check: %s: bat-report-v1 OK (%zu phases, %d io, %d histograms "
                "with percentiles, %.3f s wall)\n",
                path, phases->object().size(), io_phases, percentiled, wall->number());
    return 0;
}

/// Parse + schema-validate a bat-bench-v1 "benchmarks" array into
/// (name, n) -> ns/op. Returns false after printing the reason.
bool parse_bench_rows(const Value& doc, NsByKey* ns_op) {
    const Value* benchmarks = doc.find("benchmarks");
    if (benchmarks == nullptr || !benchmarks->is_array() || benchmarks->array().empty()) {
        fail("\"benchmarks\" missing, not an array, or empty");
        return false;
    }
    for (const Value& b : benchmarks->array()) {
        if (!b.is_object()) {
            fail("benchmark entry is not an object");
            return false;
        }
        const Value* name = b.find("name");
        const Value* n = b.find("n");
        const Value* ns = b.find("ns_op");
        const Value* bps = b.find("bytes_per_sec");
        const Value* threads = b.find("threads");
        if (name == nullptr || !name->is_string() || name->string().empty()) {
            fail("benchmark entry missing string \"name\"");
            return false;
        }
        if (n == nullptr || !n->is_number() || n->number() <= 0) {
            fail(name->string() + ": missing positive \"n\"");
            return false;
        }
        // `unit` is optional (pre-unit documents are all ns/op rows); count
        // rows carry ns_op = 0 by design, rate rows must be positive.
        const Value* unit = b.find("unit");
        if (unit != nullptr && !unit->is_string()) {
            fail(name->string() + ": \"unit\" is not a string");
            return false;
        }
        const bool is_rate = unit == nullptr || unit->string() == "ns/op";
        if (ns == nullptr || !ns->is_number() ||
            (is_rate ? ns->number() <= 0 : ns->number() < 0)) {
            fail(name->string() + (is_rate ? ": missing positive \"ns_op\""
                                           : ": negative \"ns_op\""));
            return false;
        }
        if (bps == nullptr || !bps->is_number() || bps->number() < 0) {
            fail(name->string() + ": missing \"bytes_per_sec\"");
            return false;
        }
        if (threads == nullptr || !threads->is_number() || threads->number() < 1) {
            fail(name->string() + ": missing \"threads\" >= 1");
            return false;
        }
        (*ns_op)[{name->string(), static_cast<std::uint64_t>(n->number())}] =
            ns->number();
    }
    return true;
}

/// Load a JSON document from `path`; returns false after printing.
bool load_json(const char* path, Value* doc) {
    std::ifstream in(path);
    if (!in) {
        fail(std::string("cannot open ") + path);
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        *doc = bat::obs::json::parse(text.str());
    } catch (const bat::Error& e) {
        fail(std::string(path) + ": malformed JSON: " + e.what());
        return false;
    }
    return true;
}

}  // namespace

int run(int argc, char** argv) {
    const char* path = nullptr;
    const char* seed_path = std::getenv("BAT_BENCH_SEED_FILE");
    if (seed_path != nullptr && *seed_path == '\0') {
        seed_path = nullptr;
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed_path = argv[++i];
        } else if (argv[i][0] == '-') {
            path = nullptr;
            break;
        } else if (path == nullptr) {
            path = argv[i];
        } else {
            path = nullptr;
            break;
        }
    }
    if (path == nullptr) {
        std::fprintf(stderr, "usage: bench_check [--seed FILE] <BENCH.json>\n");
        return 2;
    }

    Value doc;
    if (!load_json(path, &doc)) {
        return 1;
    }

    // Dispatch on the document schema: bat-bench-v1 benchmark rows go
    // through the perf gate families below, bat-report-v1 run reports
    // through the report validator.
    const Value* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string()) {
        return fail("missing \"schema\"");
    }
    if (schema->string() == "bat-report-v1") {
        return gate_report(doc, path);
    }
    if (schema->string() != "bat-bench-v1") {
        return fail("unexpected \"schema\" (want \"bat-bench-v1\" or \"bat-report-v1\")");
    }

    // (row name, n) -> ns/op; also validates every entry's fields.
    NsByKey ns_op;
    if (!parse_bench_rows(doc, &ns_op)) {
        return 1;
    }

    // The optional seed document (a previous same-host run) turns absolute
    // ceilings into before/after ratio gates where its rows overlap.
    NsByKey seed_ns_op;
    bool have_seed = false;
    if (seed_path != nullptr) {
        Value seed_doc;
        if (!load_json(seed_path, &seed_doc)) {
            return 1;
        }
        const Value* seed_schema = seed_doc.find("schema");
        if (seed_schema == nullptr || !seed_schema->is_string() ||
            seed_schema->string() != "bat-bench-v1") {
            return fail(std::string(seed_path) + ": seed is not a bat-bench-v1 "
                                                 "document");
        }
        if (!parse_bench_rows(seed_doc, &seed_ns_op)) {
            return 1;
        }
        have_seed = true;
    }

    int gated = 0;
    for (const auto gate :
         {gate_simd, gate_serve, gate_msgs, gate_querytrace, gate_bat_tiling, gate_series,
          gate_prof_overhead, gate_prof_attrib, gate_prof_shares}) {
        const int checked = gate(ns_op);
        if (checked < 0) {
            return 1;
        }
        gated += checked;
    }
    const int checked = gate_bat_build(ns_op, have_seed ? &seed_ns_op : nullptr);
    if (checked < 0) {
        return 1;
    }
    gated += checked;
    if (gated == 0) {
        return fail("no gateable rows (morton_encode_*, bitmap_bin_*, "
                    "write.bat_build, read.serve_*, read.msgs_*, read.total_*, "
                    "series.*, prof.*) found");
    }
    std::printf("bench_check: OK (%zu entries, %d gated comparisons)\n", ns_op.size(),
                gated);
    return 0;
}

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        return fail(e.what());
    }
}
