#pragma once
// Runtime-dispatched SIMD kernels for the BAT build hot path (Morton
// encode, bitmap binning, min/max scans). Three tiers:
//
//   scalar     — portable C++, the reference implementation;
//   sse42_bmi2 — scalar loops using BMI2 pdep for the Morton bit spread;
//   avx2       — AVX2 vector quantize / compare / reduce + BMI2 spread.
//
// Every tier produces bit-identical results for NaN-free inputs, and the
// binning kernels also for NaNs (the BAT determinism tests are the
// contract: a build with BAT_NO_SIMD=1 must serialize to exactly the bytes
// the default build makes). To keep min/max
// reductions order-independent even for mixed ±0.0 inputs, the min/max
// kernels canonicalize -0.0 to +0.0 (v + 0.0) in *all* tiers.
//
// Dispatch: the best tier supported by the CPU is detected once (cpuid);
// the BAT_NO_SIMD environment variable (any value but "" or "0") forces
// the scalar tier at runtime, and configuring with -DBAT_DISABLE_SIMD=ON
// removes the vector tiers at compile time (non-x86 builds always compile
// scalar-only). See docs/PERFORMANCE.md.

#include <cstddef>
#include <cstdint>

// Compile-time gate: vector tiers exist only on x86-64 builds that did not
// force them off. BAT_SIMD_X86 guards every intrinsics definition.
#if defined(__x86_64__) && !defined(BAT_DISABLE_SIMD)
#define BAT_SIMD_X86 1
#else
#define BAT_SIMD_X86 0
#endif

namespace bat::simd {

enum class Level : int {
    scalar = 0,
    sse42_bmi2 = 1,
    avx2 = 2,
};

/// Human-readable tier name ("scalar", "sse4.2+bmi2", "avx2").
const char* level_name(Level level);

/// Best tier this binary + CPU supports (compile-time gate + cpuid).
/// Ignores BAT_NO_SIMD and test overrides.
Level detected_level();

/// Tier the kernels dispatch on: detected_level(), downgraded to scalar
/// when BAT_NO_SIMD is set in the environment (checked once), or replaced
/// by a test override.
Level active_level();

/// Pure parse helper for the BAT_NO_SIMD contract, exposed for tests:
/// unset (nullptr), "" and "0" leave SIMD on; anything else disables it.
bool env_value_disables_simd(const char* value);

/// Force `level` for subsequent kernel calls (clamped to detected_level());
/// used by the equivalence tests to run every tier in one process.
void set_level_for_testing(Level level);
/// Drop the test override, restoring env-aware dispatch.
void clear_level_for_testing();

// ---- kernels ---------------------------------------------------------------
// All kernels tolerate n == 0 and unaligned pointers.

/// Number of bitmap bins the binning kernel is specialized for; must match
/// bat::kBitmapBins (static_asserted at the call site).
inline constexpr int kBinCount = 32;

/// OR of (1u << bin) over `values[0..n)`, where bin is the number of edges
/// in edges[1..kBinCount-1] that v is not below — exactly the
/// upper_bound-based bat::bin_of. A NaN is below no edge, so it lands in
/// bin kBinCount - 1 in every tier. `edges` has kBinCount + 1 monotone
/// entries.
std::uint32_t bin_bitmap_batch(const double* values, std::size_t n,
                               const double* edges);

/// Per-value bins (same definition as bin_bitmap_batch) written to
/// `bins[0..n)`; the treelet bitmap pass computes bins once per particle
/// and ORs sub-ranges per node.
void bin_values_batch(const double* values, std::size_t n, const double* edges,
                      std::uint8_t* bins);

/// Min/max of values[0..n) with -0.0 canonicalized to +0.0. n >= 1.
void minmax_f64(const double* values, std::size_t n, double* lo, double* hi);

/// Min/max of values[0..n) with -0.0 canonicalized to +0.0. n >= 1.
void minmax_f32(const float* values, std::size_t n, float* lo, float* hi);

/// Per-component min/max of `n` 3-float positions stored with a stride of
/// four floats (the BAT builder's 16-byte {x, y, z, rank} records); the
/// fourth lane is ignored. -0.0 canonicalized to +0.0. n >= 1.
void minmax_pos4(const float* base, std::size_t n, float lo[3], float hi[3]);

}  // namespace bat::simd
