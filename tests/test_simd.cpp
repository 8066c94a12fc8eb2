// SIMD dispatch + equivalence tests (util/simd.hpp, util/morton.cpp): every
// vector tier the host supports must produce bit-identical results to the
// scalar reference for NaN-free input — the BAT determinism contract — and
// a whole BAT built with the dispatch forced to scalar must serialize to
// exactly the bytes the default build makes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/bat_builder.hpp"
#include "core/bat_file.hpp"
#include "util/morton.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "workloads/boiler.hpp"
#include "workloads/dambreak.hpp"

namespace bat {
namespace {

/// Run `fn` once per dispatch tier the host supports, from scalar up to
/// detected_level(), with the tier forced; always restores env-aware
/// dispatch afterwards.
template <typename Fn>
void for_each_level(Fn&& fn) {
    const int top = static_cast<int>(simd::detected_level());
    for (int l = 0; l <= top; ++l) {
        const auto level = static_cast<simd::Level>(l);
        simd::set_level_for_testing(level);
        fn(level);
    }
    simd::clear_level_for_testing();
}

TEST(SimdDispatch, EnvValueParse) {
    // Unset, empty and "0" leave SIMD on; any other value disables it.
    EXPECT_FALSE(simd::env_value_disables_simd(nullptr));
    EXPECT_FALSE(simd::env_value_disables_simd(""));
    EXPECT_FALSE(simd::env_value_disables_simd("0"));
    EXPECT_TRUE(simd::env_value_disables_simd("1"));
    EXPECT_TRUE(simd::env_value_disables_simd("true"));
    EXPECT_TRUE(simd::env_value_disables_simd("off"));
    EXPECT_TRUE(simd::env_value_disables_simd(" "));
}

TEST(SimdDispatch, TestOverrideClampsToDetected) {
    simd::set_level_for_testing(simd::Level::avx2);
    EXPECT_LE(static_cast<int>(simd::active_level()),
              static_cast<int>(simd::detected_level()));
    simd::set_level_for_testing(simd::Level::scalar);
    EXPECT_EQ(simd::active_level(), simd::Level::scalar);
    simd::clear_level_for_testing();
    EXPECT_LE(static_cast<int>(simd::active_level()),
              static_cast<int>(simd::detected_level()));
}

TEST(SimdDispatch, LevelNames) {
    EXPECT_STREQ(simd::level_name(simd::Level::scalar), "scalar");
    EXPECT_STREQ(simd::level_name(simd::Level::sse42_bmi2), "sse4.2+bmi2");
    EXPECT_STREQ(simd::level_name(simd::Level::avx2), "avx2");
}

// ---- Morton batch encode --------------------------------------------------

constexpr std::uint32_t kMaxCoord = (1u << kMortonBitsPerAxis) - 1;

TEST(SimdMorton, BatchMatchesScalarOnBoundaryCoords) {
    // Cross product of adversarial per-axis values: extremes, single bits
    // at both ends, alternating patterns.
    const std::vector<std::uint32_t> interesting = {
        0u, 1u, 2u, 3u, 0x155555u, 0x0AAAAAu, 0x100000u, 0x0FFFFFu,
        kMaxCoord, kMaxCoord - 1, kMaxCoord >> 1, 0x111111u};
    std::vector<std::uint32_t> xs;
    std::vector<std::uint32_t> ys;
    std::vector<std::uint32_t> zs;
    for (std::uint32_t x : interesting) {
        for (std::uint32_t y : interesting) {
            for (std::uint32_t z : interesting) {
                xs.push_back(x);
                ys.push_back(y);
                zs.push_back(z);
            }
        }
    }
    std::vector<std::uint64_t> expect(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        expect[i] = morton_encode(xs[i], ys[i], zs[i]);
    }
    for_each_level([&](simd::Level level) {
        std::vector<std::uint64_t> got(xs.size(), ~std::uint64_t{0});
        morton_encode_batch(xs.data(), ys.data(), zs.data(), xs.size(), got.data());
        EXPECT_EQ(got, expect) << "tier " << simd::level_name(level);
    });
}

TEST(SimdMorton, BatchMatchesScalarOnRandomCoords) {
    Pcg32 rng(0xC0DE);
    const std::size_t n = 10'000;
    std::vector<std::uint32_t> xs(n);
    std::vector<std::uint32_t> ys(n);
    std::vector<std::uint32_t> zs(n);
    std::vector<std::uint64_t> expect(n);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = rng.next_u32() & kMaxCoord;
        ys[i] = rng.next_u32() & kMaxCoord;
        zs[i] = rng.next_u32() & kMaxCoord;
        expect[i] = morton_encode(xs[i], ys[i], zs[i]);
    }
    for_each_level([&](simd::Level level) {
        // Tail lengths around the 8-wide vector width must all be exact.
        for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                      std::size_t{8}, std::size_t{9}, std::size_t{64},
                                      n}) {
            std::vector<std::uint64_t> got(len, ~std::uint64_t{0});
            morton_encode_batch(xs.data(), ys.data(), zs.data(), len, got.data());
            for (std::size_t i = 0; i < len; ++i) {
                ASSERT_EQ(got[i], expect[i])
                    << "tier " << simd::level_name(level) << " i=" << i;
            }
        }
    });
}

TEST(SimdMorton, PositionsMatchScalarIncludingClampAndDegenerateAxes) {
    // Positions straddling the box (clamped), exactly on faces, and a box
    // with a zero-extent axis (every cell on that axis quantizes to 0).
    const Box box({-1.0f, 2.0f, 0.0f}, {3.0f, 2.0f, 8.0f});  // y is flat
    Pcg32 rng(0xBEEF);
    const std::size_t n = 4'097;  // odd tail
    std::vector<float> xs(n);
    std::vector<float> ys(n);
    std::vector<float> zs(n);
    for (std::size_t i = 0; i < n; ++i) {
        // 20% of points land outside the box on purpose.
        xs[i] = -2.0f + 6.0f * static_cast<float>(rng.next_double());
        ys[i] = 1.0f + 2.0f * static_cast<float>(rng.next_double());
        zs[i] = -1.0f + 10.0f * static_cast<float>(rng.next_double());
    }
    xs[0] = box.lower.x;
    ys[0] = box.lower.y;
    zs[0] = box.lower.z;
    xs[1] = box.upper.x;
    ys[1] = box.upper.y;
    zs[1] = box.upper.z;
    std::vector<std::uint64_t> expect(n);
    for (std::size_t i = 0; i < n; ++i) {
        expect[i] = morton_encode_position({xs[i], ys[i], zs[i]}, box);
    }
    for_each_level([&](simd::Level level) {
        std::vector<std::uint64_t> got(n, ~std::uint64_t{0});
        morton_encode_positions(xs.data(), ys.data(), zs.data(), n, box, got.data());
        EXPECT_EQ(got, expect) << "tier " << simd::level_name(level);
    });
}

// ---- bitmap binning -------------------------------------------------------

TEST(SimdBinning, BatchMatchesBinOfAcrossTiers) {
    Pcg32 rng(0xB1B5);
    std::vector<double> values(3'001);
    for (double& v : values) {
        v = -5.0 + 13.0 * rng.next_double();
    }
    // Values exactly on edges exercise the <= boundary; out-of-range values
    // exercise the clamp.
    values[0] = -5.0;
    values[1] = 8.0;
    values[2] = -100.0;
    values[3] = 100.0;
    for (const BinEdges& edges :
         {equal_width_edges(-5.0, 8.0), equal_depth_edges(values)}) {
        values[4] = edges[7];  // exact interior edge
        std::vector<std::uint8_t> expect(values.size());
        std::uint32_t expect_bits = 0;
        for (std::size_t i = 0; i < values.size(); ++i) {
            expect[i] = static_cast<std::uint8_t>(bin_of(values[i], edges));
            expect_bits |= 1u << expect[i];
        }
        for_each_level([&](simd::Level level) {
            for (const std::size_t len :
                 {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                  std::size_t{5}, std::size_t{8}, values.size()}) {
                std::vector<std::uint8_t> got(len, 0xFF);
                simd::bin_values_batch(values.data(), len, edges.data(), got.data());
                for (std::size_t i = 0; i < len; ++i) {
                    ASSERT_EQ(got[i], expect[i])
                        << "tier " << simd::level_name(level) << " i=" << i;
                }
            }
            EXPECT_EQ(simd::bin_bitmap_batch(values.data(), values.size(), edges.data()),
                      expect_bits)
                << "tier " << simd::level_name(level);
        });
    }
}

// ---- min/max reductions ---------------------------------------------------

TEST(SimdMinmax, F64F32Pos4MatchScalarAndCanonicalizeZeros) {
    Pcg32 rng(0x5EED);
    const std::size_t n = 1'027;
    std::vector<double> d(n);
    std::vector<float> f(n);
    std::vector<float> pos4(4 * n);
    for (std::size_t i = 0; i < n; ++i) {
        d[i] = -3.0 + 6.0 * rng.next_double();
        f[i] = static_cast<float>(d[i]);
        pos4[4 * i] = f[i];
        pos4[4 * i + 1] = -f[i];
        pos4[4 * i + 2] = f[i] * 0.5f;
        // Lane 3 holds garbage bits (the builder's rank word) and must be
        // ignored by minmax_pos4.
        std::memcpy(&pos4[4 * i + 3], &i, sizeof(float));
    }
    // Mixed signed zeros: every tier must canonicalize to +0.0.
    d[5] = -0.0;
    f[5] = -0.0f;
    pos4[4 * 5] = -0.0f;
    pos4[4 * 5 + 1] = -0.0f;
    pos4[4 * 5 + 2] = -0.0f;

    struct Ref {
        double dlo, dhi;
        float flo, fhi;
        float plo[3], phi[3];
    } ref{};
    simd::set_level_for_testing(simd::Level::scalar);
    simd::minmax_f64(d.data(), n, &ref.dlo, &ref.dhi);
    simd::minmax_f32(f.data(), n, &ref.flo, &ref.fhi);
    simd::minmax_pos4(pos4.data(), n, ref.plo, ref.phi);
    simd::clear_level_for_testing();

    for_each_level([&](simd::Level level) {
        for (const std::size_t len : {std::size_t{1}, std::size_t{2}, std::size_t{15},
                                      std::size_t{16}, std::size_t{17}, n}) {
            double dlo = 0;
            double dhi = 0;
            simd::minmax_f64(d.data(), len, &dlo, &dhi);
            float flo = 0;
            float fhi = 0;
            simd::minmax_f32(f.data(), len, &flo, &fhi);
            float plo[3];
            float phi[3];
            simd::minmax_pos4(pos4.data(), len, plo, phi);
            // Scalar-recompute the reference for this length.
            double rdlo = d[0] + 0.0;
            double rdhi = rdlo;
            float rflo = f[0] + 0.0f;
            float rfhi = rflo;
            float rplo[3];
            float rphi[3];
            for (int c = 0; c < 3; ++c) {
                rplo[c] = rphi[c] = pos4[static_cast<std::size_t>(c)] + 0.0f;
            }
            for (std::size_t i = 1; i < len; ++i) {
                rdlo = std::min(rdlo, d[i] + 0.0);
                rdhi = std::max(rdhi, d[i] + 0.0);
                rflo = std::min(rflo, f[i] + 0.0f);
                rfhi = std::max(rfhi, f[i] + 0.0f);
                for (int c = 0; c < 3; ++c) {
                    const float v = pos4[4 * i + static_cast<std::size_t>(c)] + 0.0f;
                    rplo[c] = std::min(rplo[c], v);
                    rphi[c] = std::max(rphi[c], v);
                }
            }
            // Bitwise comparison: -0.0 vs +0.0 must not slip through.
            EXPECT_EQ(std::memcmp(&dlo, &rdlo, sizeof dlo), 0)
                << "tier " << simd::level_name(level) << " len=" << len;
            EXPECT_EQ(std::memcmp(&dhi, &rdhi, sizeof dhi), 0);
            EXPECT_EQ(std::memcmp(&flo, &rflo, sizeof flo), 0);
            EXPECT_EQ(std::memcmp(&fhi, &rfhi, sizeof fhi), 0);
            EXPECT_EQ(std::memcmp(plo, rplo, sizeof rplo), 0);
            EXPECT_EQ(std::memcmp(phi, rphi, sizeof rphi), 0);
        }
    });
}

TEST(SimdMinmax, AllNegativeZerosCanonicalize) {
    const std::vector<double> zeros(37, -0.0);
    for_each_level([&](simd::Level level) {
        double lo = 1;
        double hi = 1;
        simd::minmax_f64(zeros.data(), zeros.size(), &lo, &hi);
        EXPECT_FALSE(std::signbit(lo)) << "tier " << simd::level_name(level);
        EXPECT_FALSE(std::signbit(hi)) << "tier " << simd::level_name(level);
    });
}

// ---- whole-build byte identity --------------------------------------------

/// serialize_bat bytes of a build with the dispatch forced to `level`.
std::vector<std::byte> build_bytes(const ParticleSet& particles, BinningScheme binning,
                                   simd::Level level) {
    BatConfig config;
    config.seed = 17;
    config.binning = binning;
    simd::set_level_for_testing(level);
    ParticleSet copy = particles;
    const BatData bat = build_bat(std::move(copy), config);
    simd::clear_level_for_testing();
    return serialize_bat(bat);
}

TEST(SimdByteIdentity, ForcedScalarBuildSerializesIdentically) {
    // The full determinism contract on the two paper workloads: the BAT a
    // vector tier produces must be byte-for-byte the scalar tier's BAT.
    BoilerConfig boiler;
    boiler.particles_at_start = 30'000;
    boiler.particles_at_end = 60'000;
    DamBreakConfig dam;
    dam.num_particles = 40'000;
    const ParticleSet sets[] = {
        make_boiler_particles(boiler, (boiler.t_start + boiler.t_end) / 2),
        make_dambreak_particles(dam, dam.t_final / 2),
    };
    for (const ParticleSet& particles : sets) {
        for (const BinningScheme binning :
             {BinningScheme::equal_width, BinningScheme::equal_depth}) {
            const auto scalar =
                build_bytes(particles, binning, simd::Level::scalar);
            const int top = static_cast<int>(simd::detected_level());
            for (int l = 1; l <= top; ++l) {
                const auto vec =
                    build_bytes(particles, binning, static_cast<simd::Level>(l));
                ASSERT_EQ(vec, scalar)
                    << "tier " << simd::level_name(static_cast<simd::Level>(l));
            }
        }
    }
}

TEST(SimdByteIdentity, NaNAttributeValuesSerializeIdentically) {
    // A NaN attribute value falls in the top bitmap bin in every tier, as
    // bat::bin_of's upper_bound rule puts it there: the build bytes must not
    // depend on the tier even when the data holds NaNs.
    Pcg32 rng(41);
    ParticleSet particles({"v"});
    for (std::size_t i = 0; i < 4'000; ++i) {
        const double value = i == 1 ? 0.0 : i == 2 ? 1.0 : 0.45 + 0.1 * rng.next_double();
        const double attrs[1] = {i % 500 == 7 ? std::nan("") : value};
        particles.push_back({rng.next_float(), rng.next_float(), rng.next_float()}, attrs);
    }
    const auto scalar = build_bytes(particles, BinningScheme::equal_width, simd::Level::scalar);
    const int top = static_cast<int>(simd::detected_level());
    for (int l = 1; l <= top; ++l) {
        const auto level = static_cast<simd::Level>(l);
        ASSERT_EQ(build_bytes(particles, BinningScheme::equal_width, level), scalar)
            << "tier " << simd::level_name(level);
    }
}

}  // namespace
}  // namespace bat
