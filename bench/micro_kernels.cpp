// google-benchmark micro-kernels for the library's hot paths: Morton
// encode/decode, Karras radix-tree construction, BAT build stages, bitmap
// operations, particle (de)serialization, and query traversal. These give
// per-component throughput numbers to sanity-check the calibrated
// performance model and track regressions.
//
// `micro_kernels --json [--out FILE] [--threads N]` instead runs the
// perf-regression kernel suite (encode/reorder/transfer, before- and
// after-optimization variants side by side) and writes bat-bench-v1 JSON to
// BENCH_micro.json for CI and cross-PR diffing; see docs/PERFORMANCE.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "bench_common.hpp"
#include "core/bat_builder.hpp"
#include "core/bat_file.hpp"
#include "core/bat_query.hpp"
#include "core/karras.hpp"
#include "util/check.hpp"
#include "util/morton.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

void BM_MortonEncode(benchmark::State& state) {
    Pcg32 rng(1);
    std::vector<std::uint32_t> coords(3 * 1024);
    for (auto& c : coords) {
        c = rng.next_u32() & ((1u << kMortonBitsPerAxis) - 1);
    }
    for (auto _ : state) {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < coords.size(); i += 3) {
            acc ^= morton_encode(coords[i], coords[i + 1], coords[i + 2]);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MortonEncode);

void BM_MortonDecode(benchmark::State& state) {
    Pcg32 rng(2);
    std::vector<std::uint64_t> codes(1024);
    for (auto& c : codes) {
        c = rng.next_u64() & ((std::uint64_t{1} << kMortonBits) - 1);
    }
    for (auto _ : state) {
        std::uint32_t x, y, z, acc = 0;
        for (std::uint64_t c : codes) {
            morton_decode(c, x, y, z);
            acc ^= x ^ y ^ z;
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MortonDecode);

void BM_KarrasBuild(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Pcg32 rng(3);
    std::set<std::uint64_t> keys;
    while (keys.size() < n) {
        keys.insert(rng.next_u64() & ((std::uint64_t{1} << 30) - 1));
    }
    const std::vector<std::uint64_t> codes(keys.begin(), keys.end());
    for (auto _ : state) {
        const RadixTree tree = build_radix_tree(codes, 30);
        benchmark::DoNotOptimize(tree.internal.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KarrasBuild)->Arg(1024)->Arg(16384);

void BM_BatBuild(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const ParticleSet base =
        make_uniform_particles(Box({0, 0, 0}, {1, 1, 1}), n, 7, 4);
    for (auto _ : state) {
        ParticleSet copy = base;
        const BatData bat = build_bat(std::move(copy), BatConfig{});
        benchmark::DoNotOptimize(bat.treelets.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(base.payload_bytes()));
}
BENCHMARK(BM_BatBuild)->Arg(50'000)->Arg(200'000)->Unit(benchmark::kMillisecond);

void BM_BatSerialize(benchmark::State& state) {
    const BatData bat = build_bat(
        make_uniform_particles(Box({0, 0, 0}, {1, 1, 1}), 100'000, 7, 5), BatConfig{});
    for (auto _ : state) {
        const auto bytes = serialize_bat(bat);
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bat.particles.payload_bytes()));
}
BENCHMARK(BM_BatSerialize)->Unit(benchmark::kMillisecond);

void BM_BitmapForRange(benchmark::State& state) {
    for (auto _ : state) {
        std::uint32_t acc = 0;
        for (int i = 0; i < 1024; ++i) {
            acc ^= bitmap_for_range(i * 0.001, i * 0.001 + 0.05, 0.0, 1.0);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_BitmapForRange);

void BM_SpatialQuery(benchmark::State& state) {
    const auto bytes = serialize_bat(build_bat(
        make_uniform_particles(Box({0, 0, 0}, {1, 1, 1}), 200'000, 2, 6), BatConfig{}));
    const BatFile file{std::span<const std::byte>(bytes)};
    BatQuery query;
    query.box = Box({0.25f, 0.25f, 0.25f}, {0.75f, 0.75f, 0.75f});
    for (auto _ : state) {
        std::uint64_t n = 0;
        query_bat(file, query, [&n](Vec3, std::span<const double>) { ++n; });
        benchmark::DoNotOptimize(n);
    }
}
BENCHMARK(BM_SpatialQuery)->Unit(benchmark::kMillisecond);

void BM_AttributeQuery(benchmark::State& state) {
    const auto bytes = serialize_bat(build_bat(
        make_uniform_particles(Box({0, 0, 0}, {1, 1, 1}), 200'000, 2, 7), BatConfig{}));
    const BatFile file{std::span<const std::byte>(bytes)};
    const auto [lo, hi] = file.attr_range(0);
    BatQuery query;
    query.attr_filters.push_back({0, lo + 0.48 * (hi - lo), lo + 0.52 * (hi - lo)});
    for (auto _ : state) {
        std::uint64_t n = 0;
        query_bat(file, query, [&n](Vec3, std::span<const double>) { ++n; });
        benchmark::DoNotOptimize(n);
    }
}
BENCHMARK(BM_AttributeQuery)->Unit(benchmark::kMillisecond);

void BM_ProgressiveCoarseRead(benchmark::State& state) {
    const auto bytes = serialize_bat(build_bat(
        make_uniform_particles(Box({0, 0, 0}, {1, 1, 1}), 200'000, 2, 8), BatConfig{}));
    const BatFile file{std::span<const std::byte>(bytes)};
    BatQuery query;
    query.quality_hi = 0.1f;
    for (auto _ : state) {
        std::uint64_t n = 0;
        query_bat(file, query, [&n](Vec3, std::span<const double>) { ++n; });
        benchmark::DoNotOptimize(n);
    }
}
BENCHMARK(BM_ProgressiveCoarseRead)->Unit(benchmark::kMillisecond);

void BM_ParticleSerialize(benchmark::State& state) {
    const ParticleSet set =
        make_uniform_particles(Box({0, 0, 0}, {1, 1, 1}), 100'000, 14, 9);
    for (auto _ : state) {
        const auto bytes = set.to_bytes();
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(set.payload_bytes()));
}
BENCHMARK(BM_ParticleSerialize)->Unit(benchmark::kMillisecond);

// ---- perf-regression kernels (--json) -------------------------------------

/// Morton-order permutation of `codes`: iota + std::sort with an indirect
/// comparator (ties broken by index).
std::vector<std::uint32_t> std_sort_order(std::span<const std::uint64_t> codes) {
    std::vector<std::uint32_t> order(codes.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return codes[a] != codes[b] ? codes[a] < codes[b] : a < b;
    });
    return order;
}

int run_json_kernels(int argc, char** argv) {
    using bench::JsonBenchResult;
    const char* out = bench::flag_value(argc, argv, "--out", "BENCH_micro.json");
    const long long threads_arg =
        std::atoll(bench::flag_value(argc, argv, "--threads", "-1"));
    const std::size_t nthreads = threads_arg < 0 ? ThreadPool::default_concurrency()
                                                 : static_cast<std::size_t>(threads_arg);
    ThreadPool pool(nthreads);
    const int pool_threads = static_cast<int>(nthreads) + 1;  // workers + caller
    bench::JsonBenchWriter writer;
    constexpr int kReps = 3;

    auto add = [&](const char* name, std::uint64_t n, double seconds,
                   std::uint64_t bytes, int threads) {
        writer.add(JsonBenchResult{name, n, 1e9 * seconds / static_cast<double>(n),
                                   "ns/op", static_cast<double>(bytes) / seconds,
                                   threads});
        std::fprintf(stderr, "[bench] %-28s n=%-9llu %8.2f ns/op\n", name,
                     static_cast<unsigned long long>(n),
                     1e9 * seconds / static_cast<double>(n));
    };

    // Encode + reorder + transfer on a 1M-particle set (4 attrs keeps setup fast).
    const std::size_t n = std::size_t{1} << 20;
    ParticleSet set = make_uniform_particles(Box({0, 0, 0}, {1, 1, 1}), n, 4, 11);
    const Box bounds = set.bounds();
    std::vector<std::uint64_t> codes(n);
    auto encode_range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            codes[i] = morton_encode_position(set.position(i), bounds);
        }
    };
    add("encode_serial", n, bench::best_seconds(kReps, [&] { encode_range(0, n); }),
        n * 12, 1);
    add("encode_pool", n,
        bench::best_seconds(
            kReps, [&] { parallel_ranges(&pool, n, std::size_t{1} << 14, encode_range); }),
        n * 12, pool_threads);

    // SIMD kernel tiers vs forced-scalar on identical inputs. Rows are
    // emitted only when a vector tier is active: on a scalar-only host (or
    // under BAT_NO_SIMD) the comparison would gate nothing real, so the
    // bench_check simd family reports itself inapplicable instead.
    if (simd::active_level() != simd::Level::scalar) {
        std::vector<float> xs(n);
        std::vector<float> ys(n);
        std::vector<float> zs(n);
        set.deplane_positions(xs.data(), ys.data(), zs.data(), &pool);
        std::vector<std::uint64_t> batch(n);
        auto encode_batch = [&] {
            morton_encode_positions(xs.data(), ys.data(), zs.data(), n, bounds,
                                    batch.data());
        };
        simd::set_level_for_testing(simd::Level::scalar);
        add("morton_encode_scalar", n, bench::best_seconds(kReps, encode_batch),
            n * 12, 1);
        BAT_CHECK_MSG(batch == codes, "scalar batch encode diverged");
        simd::clear_level_for_testing();
        add("morton_encode_simd", n, bench::best_seconds(kReps, encode_batch),
            n * 12, 1);
        BAT_CHECK_MSG(batch == codes, "simd batch encode diverged");

        const std::span<const double> values = set.attr(0);
        const auto [vlo, vhi] = set.attr_range(0);
        const BinEdges edges = equal_width_edges(vlo, vhi);
        std::vector<std::uint8_t> bins(n);
        auto bin_batch = [&] {
            simd::bin_values_batch(values.data(), n, edges.data(), bins.data());
        };
        simd::set_level_for_testing(simd::Level::scalar);
        add("bitmap_bin_scalar", n, bench::best_seconds(kReps, bin_batch),
            n * sizeof(double), 1);
        const std::vector<std::uint8_t> scalar_bins = bins;
        simd::clear_level_for_testing();
        add("bitmap_bin_simd", n, bench::best_seconds(kReps, bin_batch),
            n * sizeof(double), 1);
        BAT_CHECK_MSG(bins == scalar_bins, "simd binning diverged from scalar");
    }

    const std::vector<std::uint32_t> order = std_sort_order(codes);
    const std::uint64_t payload = set.payload_bytes();
    add("reorder_serial", n,
        bench::best_seconds(kReps, [&] { set.reorder(order, nullptr); }), payload, 1);
    add("reorder_pool", n, bench::best_seconds(kReps, [&] { set.reorder(order, &pool); }),
        payload, pool_threads);

    // Transfer merge: the seed's intermediate-ParticleSet path vs the
    // zero-copy deserialize_into path used by the aggregators.
    const std::vector<std::byte> wire = set.to_bytes();
    ParticleSet merged(set.attr_names());
    add("transfer_intermediate", n,
        bench::best_seconds(kReps,
                            [&] {
                                ParticleSet tmp = ParticleSet::from_bytes(wire);
                                merged = ParticleSet(set.attr_names());
                                merged.append(tmp);
                            }),
        payload, 1);
    add("transfer_zero_copy", n,
        bench::best_seconds(kReps,
                            [&] {
                                merged = ParticleSet(set.attr_names());
                                merged.resize(n);
                                merged.deserialize_into(wire, 0);
                            }),
        payload, 1);
    BAT_CHECK_MSG(merged.count() == n, "transfer kernel dropped particles");

    writer.write(out);
    return 0;
}

}  // namespace
}  // namespace bat

int main(int argc, char** argv) {
    if (bat::bench::has_flag(argc, argv, "--json")) {
        return bat::run_json_kernels(argc, argv);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
