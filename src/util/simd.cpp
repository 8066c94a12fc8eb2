#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#if BAT_SIMD_X86
#include <immintrin.h>
#endif

namespace bat::simd {

const char* level_name(Level level) {
    switch (level) {
        case Level::scalar: return "scalar";
        case Level::sse42_bmi2: return "sse4.2+bmi2";
        case Level::avx2: return "avx2";
    }
    return "?";
}

bool env_value_disables_simd(const char* value) {
    return value != nullptr && value[0] != '\0' &&
           !(value[0] == '0' && value[1] == '\0');
}

Level detected_level() {
#if BAT_SIMD_X86
    static const Level detected = [] {
        __builtin_cpu_init();
        // Both vector tiers lean on BMI2 pdep for the Morton bit spread, so
        // bmi2 gates both (every AVX2 CPU since Haswell also has BMI2).
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2")) {
            return Level::avx2;
        }
        if (__builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("bmi2")) {
            return Level::sse42_bmi2;
        }
        return Level::scalar;
    }();
    return detected;
#else
    return Level::scalar;
#endif
}

namespace {

/// -1 = no override; otherwise the forced Level value.
std::atomic<int> g_test_override{-1};

Level env_level() {
    static const Level level = env_value_disables_simd(std::getenv("BAT_NO_SIMD"))
                                   ? Level::scalar
                                   : detected_level();
    return level;
}

}  // namespace

Level active_level() {
    const int forced = g_test_override.load(std::memory_order_relaxed);
    if (forced >= 0) {
        return static_cast<Level>(forced);
    }
    return env_level();
}

void set_level_for_testing(Level level) {
    const int clamped = std::min(static_cast<int>(level),
                                 static_cast<int>(detected_level()));
    g_test_override.store(clamped, std::memory_order_relaxed);
}

void clear_level_for_testing() {
    g_test_override.store(-1, std::memory_order_relaxed);
}

// ---- binning ---------------------------------------------------------------
// bin(v) = #{ j in [1, kBinCount) : !(v < edges[j]) }, which is exactly what
// std::upper_bound(edges+1, edges+kBinCount, v) - (edges+1) computes over
// monotone edges (bat::bin_of). The scalar tier keeps the branchy binary
// search the seed used; the AVX2 tier counts all 31 comparisons branch-free.

namespace {

inline int bin_scalar(double v, const double* edges) {
    const double* it = std::upper_bound(edges + 1, edges + kBinCount, v);
    return static_cast<int>(it - (edges + 1));
}

std::uint32_t bin_bitmap_scalar(const double* values, std::size_t n,
                                const double* edges) {
    std::uint32_t bm = 0;
    for (std::size_t i = 0; i < n; ++i) {
        bm |= 1u << bin_scalar(values[i], edges);
    }
    return bm;
}

void bin_values_scalar(const double* values, std::size_t n, const double* edges,
                       std::uint8_t* bins) {
    for (std::size_t i = 0; i < n; ++i) {
        bins[i] = static_cast<std::uint8_t>(bin_scalar(values[i], edges));
    }
}

#if BAT_SIMD_X86

/// Bins of 8 values (two 4-lane registers) as packed u64 lane counts:
/// for each interior edge, !(v < edge) contributes one (cmp_pd mask is -1).
/// The unordered compare counts a NaN past every edge, into the top bin,
/// exactly where upper_bound puts it.
[[gnu::target("avx2")]] inline void bins8_avx2(__m256d v0, __m256d v1,
                                               const double* edges, __m256i* b0,
                                               __m256i* b1) {
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    for (int j = 1; j < kBinCount; ++j) {
        const __m256d e = _mm256_broadcast_sd(edges + j);
        acc0 = _mm256_sub_epi64(acc0,
                                _mm256_castpd_si256(_mm256_cmp_pd(v0, e, _CMP_NLT_UQ)));
        acc1 = _mm256_sub_epi64(acc1,
                                _mm256_castpd_si256(_mm256_cmp_pd(v1, e, _CMP_NLT_UQ)));
    }
    *b0 = acc0;
    *b1 = acc1;
}

[[gnu::target("avx2")]] std::uint32_t bin_bitmap_avx2(const double* values,
                                                      std::size_t n,
                                                      const double* edges) {
    __m256i or_acc = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi64x(1);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i b0, b1;
        bins8_avx2(_mm256_loadu_pd(values + i), _mm256_loadu_pd(values + i + 4),
                   edges, &b0, &b1);
        or_acc = _mm256_or_si256(or_acc, _mm256_sllv_epi64(one, b0));
        or_acc = _mm256_or_si256(or_acc, _mm256_sllv_epi64(one, b1));
    }
    const __m128i folded = _mm_or_si128(_mm256_castsi256_si128(or_acc),
                                        _mm256_extracti128_si256(or_acc, 1));
    std::uint32_t bm = static_cast<std::uint32_t>(
        _mm_cvtsi128_si64(folded) | _mm_extract_epi64(folded, 1));
    for (; i < n; ++i) {
        bm |= 1u << bin_scalar(values[i], edges);
    }
    return bm;
}

[[gnu::target("avx2")]] void bin_values_avx2(const double* values, std::size_t n,
                                             const double* edges,
                                             std::uint8_t* bins) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i b0, b1;
        bins8_avx2(_mm256_loadu_pd(values + i), _mm256_loadu_pd(values + i + 4),
                   edges, &b0, &b1);
        // Lane counts are < 32: pack the eight u64s down to bytes.
        alignas(32) std::uint64_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), b0);
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), b1);
        for (int k = 0; k < 8; ++k) {
            bins[i + static_cast<std::size_t>(k)] =
                static_cast<std::uint8_t>(lanes[k]);
        }
    }
    for (; i < n; ++i) {
        bins[i] = static_cast<std::uint8_t>(bin_scalar(values[i], edges));
    }
}

#endif  // BAT_SIMD_X86

}  // namespace

std::uint32_t bin_bitmap_batch(const double* values, std::size_t n,
                               const double* edges) {
#if BAT_SIMD_X86
    if (active_level() == Level::avx2) {
        return bin_bitmap_avx2(values, n, edges);
    }
#endif
    return bin_bitmap_scalar(values, n, edges);
}

void bin_values_batch(const double* values, std::size_t n, const double* edges,
                      std::uint8_t* bins) {
#if BAT_SIMD_X86
    if (active_level() == Level::avx2) {
        bin_values_avx2(values, n, edges, bins);
        return;
    }
#endif
    bin_values_scalar(values, n, edges, bins);
}

// ---- min/max ---------------------------------------------------------------
// Both tiers canonicalize -0.0 to +0.0 (v + 0.0) so the reduction result is
// bitwise independent of association order; with that, vector lane folding
// is exactly equivalent to the scalar left fold for NaN-free input.

namespace {

void minmax_f64_scalar(const double* values, std::size_t n, double* lo,
                       double* hi) {
    double mn = values[0] + 0.0;
    double mx = mn;
    for (std::size_t i = 1; i < n; ++i) {
        const double v = values[i] + 0.0;
        mn = v < mn ? v : mn;
        mx = v > mx ? v : mx;
    }
    *lo = mn;
    *hi = mx;
}

void minmax_f32_scalar(const float* values, std::size_t n, float* lo, float* hi) {
    float mn = values[0] + 0.f;
    float mx = mn;
    for (std::size_t i = 1; i < n; ++i) {
        const float v = values[i] + 0.f;
        mn = v < mn ? v : mn;
        mx = v > mx ? v : mx;
    }
    *lo = mn;
    *hi = mx;
}

#if BAT_SIMD_X86

[[gnu::target("avx2")]] void minmax_f64_avx2(const double* values, std::size_t n,
                                             double* lo, double* hi) {
    if (n < 8) {
        minmax_f64_scalar(values, n, lo, hi);
        return;
    }
    const __m256d zero = _mm256_setzero_pd();
    __m256d mn = _mm256_add_pd(_mm256_loadu_pd(values), zero);
    __m256d mx = mn;
    std::size_t i = 4;
    for (; i + 4 <= n; i += 4) {
        const __m256d v = _mm256_add_pd(_mm256_loadu_pd(values + i), zero);
        mn = _mm256_min_pd(mn, v);
        mx = _mm256_max_pd(mx, v);
    }
    alignas(32) double mns[4];
    alignas(32) double mxs[4];
    _mm256_store_pd(mns, mn);
    _mm256_store_pd(mxs, mx);
    double smn = mns[0];
    double smx = mxs[0];
    for (int k = 1; k < 4; ++k) {
        smn = mns[k] < smn ? mns[k] : smn;
        smx = mxs[k] > smx ? mxs[k] : smx;
    }
    for (; i < n; ++i) {
        const double v = values[i] + 0.0;
        smn = v < smn ? v : smn;
        smx = v > smx ? v : smx;
    }
    *lo = smn;
    *hi = smx;
}

[[gnu::target("avx2")]] void minmax_f32_avx2(const float* values, std::size_t n,
                                             float* lo, float* hi) {
    if (n < 16) {
        minmax_f32_scalar(values, n, lo, hi);
        return;
    }
    const __m256 zero = _mm256_setzero_ps();
    __m256 mn = _mm256_add_ps(_mm256_loadu_ps(values), zero);
    __m256 mx = mn;
    std::size_t i = 8;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_add_ps(_mm256_loadu_ps(values + i), zero);
        mn = _mm256_min_ps(mn, v);
        mx = _mm256_max_ps(mx, v);
    }
    alignas(32) float mns[8];
    alignas(32) float mxs[8];
    _mm256_store_ps(mns, mn);
    _mm256_store_ps(mxs, mx);
    float smn = mns[0];
    float smx = mxs[0];
    for (int k = 1; k < 8; ++k) {
        smn = mns[k] < smn ? mns[k] : smn;
        smx = mxs[k] > smx ? mxs[k] : smx;
    }
    for (; i < n; ++i) {
        const float v = values[i] + 0.f;
        smn = v < smn ? v : smn;
        smx = v > smx ? v : smx;
    }
    *lo = smn;
    *hi = smx;
}

#endif  // BAT_SIMD_X86

void minmax_pos4_scalar(const float* base, std::size_t n, float* lo, float* hi) {
    float mn[3];
    float mx[3];
    for (int c = 0; c < 3; ++c) {
        mn[c] = base[c] + 0.f;
        mx[c] = mn[c];
    }
    for (std::size_t i = 1; i < n; ++i) {
        const float* r = base + 4 * i;
        for (int c = 0; c < 3; ++c) {
            const float v = r[c] + 0.f;
            mn[c] = v < mn[c] ? v : mn[c];
            mx[c] = v > mx[c] ? v : mx[c];
        }
    }
    for (int c = 0; c < 3; ++c) {
        lo[c] = mn[c];
        hi[c] = mx[c];
    }
}

#if BAT_SIMD_X86

/// One record per vector; lane 3 (the rank bits) is zeroed before the fold
/// so reinterpreted integers never feed the FP units.
void minmax_pos4_sse(const float* base, std::size_t n, float* lo, float* hi) {
    const __m128 zero = _mm_setzero_ps();
    const __m128 xyz = _mm_castsi128_ps(_mm_setr_epi32(-1, -1, -1, 0));
    auto load = [&](std::size_t i) {
        return _mm_add_ps(_mm_and_ps(_mm_loadu_ps(base + 4 * i), xyz), zero);
    };
    __m128 mn0 = load(0);
    __m128 mx0 = mn0;
    __m128 mn1 = mn0;
    __m128 mx1 = mx0;
    std::size_t i = 1;
    for (; i + 2 <= n; i += 2) {
        const __m128 a = load(i);
        const __m128 b = load(i + 1);
        mn0 = _mm_min_ps(mn0, a);
        mx0 = _mm_max_ps(mx0, a);
        mn1 = _mm_min_ps(mn1, b);
        mx1 = _mm_max_ps(mx1, b);
    }
    if (i < n) {
        const __m128 a = load(i);
        mn0 = _mm_min_ps(mn0, a);
        mx0 = _mm_max_ps(mx0, a);
    }
    alignas(16) float mns[4];
    alignas(16) float mxs[4];
    _mm_store_ps(mns, _mm_min_ps(mn0, mn1));
    _mm_store_ps(mxs, _mm_max_ps(mx0, mx1));
    for (int c = 0; c < 3; ++c) {
        lo[c] = mns[c];
        hi[c] = mxs[c];
    }
}

#endif  // BAT_SIMD_X86

}  // namespace

void minmax_f64(const double* values, std::size_t n, double* lo, double* hi) {
#if BAT_SIMD_X86
    if (active_level() == Level::avx2) {
        minmax_f64_avx2(values, n, lo, hi);
        return;
    }
#endif
    minmax_f64_scalar(values, n, lo, hi);
}

void minmax_f32(const float* values, std::size_t n, float* lo, float* hi) {
#if BAT_SIMD_X86
    if (active_level() == Level::avx2) {
        minmax_f32_avx2(values, n, lo, hi);
        return;
    }
#endif
    minmax_f32_scalar(values, n, lo, hi);
}

void minmax_pos4(const float* base, std::size_t n, float lo[3], float hi[3]) {
#if BAT_SIMD_X86
    // Plain SSE2 code, but gated on the dispatch level so BAT_NO_SIMD
    // really does force the scalar reference loop.
    if (active_level() >= Level::sse42_bmi2) {
        minmax_pos4_sse(base, n, lo, hi);
        return;
    }
#endif
    minmax_pos4_scalar(base, n, lo, hi);
}

}  // namespace bat::simd
