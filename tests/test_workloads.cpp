// Tests for the workload generators and rank decompositions: determinism,
// bounds, schema, the paper's distribution properties (boiler growth +
// nonuniformity, dam break fixed count + migration).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/boiler.hpp"
#include "workloads/dambreak.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/mixtures.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

// ---- decomposition ---------------------------------------------------------

TEST(DecompTest, Grid3dCoversRankCount) {
    for (int n : {1, 2, 6, 7, 48, 64, 100}) {
        const GridDecomp d = grid_decomp_3d(n, Box({0, 0, 0}, {1, 1, 1}));
        EXPECT_EQ(d.nranks(), n);
    }
}

TEST(DecompTest, Grid2dKeepsNzOne) {
    for (int n : {1, 4, 12, 36}) {
        const GridDecomp d = grid_decomp_2d(n, Box({0, 0, 0}, {4, 1, 2}));
        EXPECT_EQ(d.nranks(), n);
        EXPECT_EQ(d.nz, 1);
    }
}

TEST(DecompTest, ElongatedDomainGetsMoreCellsAlongLongAxis) {
    const GridDecomp d = grid_decomp_3d(16, Box({0, 0, 0}, {16, 1, 1}));
    EXPECT_GT(d.nx, d.ny);
    EXPECT_GT(d.nx, d.nz);
}

TEST(DecompTest, RankBoxesTileTheDomain) {
    const Box domain({0, 0, 0}, {3, 2, 1});
    const GridDecomp d = grid_decomp_3d(12, domain);
    Box unioned;
    float volume = 0;
    for (int r = 0; r < d.nranks(); ++r) {
        const Box b = d.rank_box(r);
        unioned.extend(b);
        const Vec3 e = b.extent();
        volume += e.x * e.y * e.z;
    }
    EXPECT_EQ(unioned, domain);
    EXPECT_NEAR(volume, 6.0f, 1e-3f);
}

TEST(DecompTest, ReadBoxesOwnEveryFacePointExactlyOnce) {
    // Awkward float extents, so cell arithmetic rounds; the candidate
    // coordinates are every face either box formula produces plus the
    // domain's faces, combined into points on interior faces, edges,
    // corners and the upper boundary.
    for (const auto& [domain, nranks] :
         {std::pair{Box({-1.3f, 0.1f, 2.7f}, {5.9f, 3.3f, 9.1f}), 105},
          std::pair{Box({0.f, 0.f, 0.f}, {0.7f, 0.3f, 0.9f}), 60},
          std::pair{Box({0.f, 0.f, 0.f}, {1.1f, 1.3f, 1.7f}), 27}}) {
        const GridDecomp d = grid_decomp_3d(nranks, domain);
        std::vector<float> faces[3];
        for (int r = 0; r < d.nranks(); ++r) {
            for (int a = 0; a < 3; ++a) {
                for (const float f : {d.rank_box(r).lower[a], d.rank_box(r).upper[a],
                                      d.rank_read_box(r).lower[a], domain.upper[a]}) {
                    if (f >= domain.lower[a] && f <= domain.upper[a]) {
                        faces[a].push_back(f);
                    }
                }
            }
        }
        for (std::vector<float>& f : faces) {
            std::sort(f.begin(), f.end());
            f.erase(std::unique(f.begin(), f.end()), f.end());
        }
        for (const float x : faces[0]) {
            for (const float y : faces[1]) {
                for (const float z : faces[2]) {
                    const Vec3 p{x, y, z};
                    int owners = 0;
                    for (int r = 0; r < d.nranks(); ++r) {
                        const Box b = d.rank_read_box(r);
                        owners += p.x >= b.lower.x && p.x < b.upper.x && p.y >= b.lower.y &&
                                  p.y < b.upper.y && p.z >= b.lower.z && p.z < b.upper.z;
                    }
                    ASSERT_EQ(owners, 1) << "point (" << x << ", " << y << ", " << z
                                         << ") in " << nranks << "-rank grid";
                }
            }
        }
    }
}

TEST(DecompTest, OwnerMatchesRankBox) {
    const GridDecomp d = grid_decomp_3d(24, Box({0, 0, 0}, {2, 3, 1}));
    Pcg32 rng(4);
    for (int i = 0; i < 500; ++i) {
        const Vec3 p{2 * rng.next_float(), 3 * rng.next_float(), rng.next_float()};
        const int owner = d.owner(p);
        EXPECT_TRUE(d.rank_box(owner).contains(p));
    }
}

TEST(DecompTest, OwnerClampsOutOfDomain) {
    const GridDecomp d = grid_decomp_3d(8, Box({0, 0, 0}, {1, 1, 1}));
    EXPECT_GE(d.owner({-5, -5, -5}), 0);
    EXPECT_LT(d.owner({5, 5, 5}), 8);
}

TEST(DecompTest, PartitionConservesParticles) {
    const Box domain({0, 0, 0}, {2, 2, 2});
    const GridDecomp d = grid_decomp_3d(8, domain);
    const ParticleSet global = make_uniform_particles(domain, 10'000, 2, 31);
    const auto parts = partition_particles(global, d);
    std::size_t total = 0;
    for (const auto& p : parts) {
        total += p.count();
    }
    EXPECT_EQ(total, 10'000u);
    const auto counts = partition_counts(global, d);
    for (int r = 0; r < 8; ++r) {
        EXPECT_EQ(counts[static_cast<std::size_t>(r)],
                  parts[static_cast<std::size_t>(r)].count());
    }
}

TEST(DecompTest, MakeRankInfos) {
    const GridDecomp d = grid_decomp_3d(4, Box({0, 0, 0}, {1, 1, 1}));
    const std::vector<std::uint64_t> counts{1, 2, 3, 4};
    const auto infos = make_rank_infos(d, counts);
    ASSERT_EQ(infos.size(), 4u);
    for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(infos[static_cast<std::size_t>(r)].num_particles,
                  counts[static_cast<std::size_t>(r)]);
        EXPECT_EQ(infos[static_cast<std::size_t>(r)].bounds, d.rank_box(r));
    }
}

// ---- uniform ---------------------------------------------------------------

TEST(UniformTest, CountSchemaBounds) {
    const Box box({1, 1, 1}, {2, 3, 4});
    const ParticleSet set = make_uniform_particles(box, 5'000, 14, 1);
    EXPECT_EQ(set.count(), 5'000u);
    EXPECT_EQ(set.num_attrs(), 14u);
    EXPECT_EQ(set.bytes_per_particle(), 12u + 14u * 8u);  // paper: 4.06 MB / 32k
    EXPECT_TRUE(box.contains_box(set.bounds()));
}

TEST(UniformTest, Deterministic) {
    const Box box({0, 0, 0}, {1, 1, 1});
    const ParticleSet a = make_uniform_particles(box, 1'000, 3, 9);
    const ParticleSet b = make_uniform_particles(box, 1'000, 3, 9);
    for (std::size_t i = 0; i < 1'000; ++i) {
        EXPECT_EQ(a.position(i), b.position(i));
        EXPECT_EQ(a.attr(2)[i], b.attr(2)[i]);
    }
}

TEST(UniformTest, AttrsAreSpatiallyCorrelated) {
    // Particles close in space should have closer attribute values than
    // random pairs (the property bitmap filtering exploits).
    const Box box({0, 0, 0}, {1, 1, 1});
    const ParticleSet set = make_uniform_particles(box, 4'000, 1, 3);
    // Compare attr values of points in a thin slab vs the global spread.
    std::vector<double> slab;
    std::vector<double> all;
    for (std::size_t i = 0; i < set.count(); ++i) {
        all.push_back(set.attr(0)[i]);
        const Vec3 p = set.position(i);
        if (p.x < 0.1f && p.y < 0.1f && p.z < 0.1f) {
            slab.push_back(set.attr(0)[i]);
        }
    }
    ASSERT_GT(slab.size(), 2u);
    EXPECT_LT(stddev(slab), 0.5 * stddev(all));
}

// ---- boiler ----------------------------------------------------------------

TEST(BoilerTest, ParticleCountGrowsLinearly) {
    BoilerConfig config;
    EXPECT_EQ(config.particles_at(config.t_start), config.particles_at_start);
    EXPECT_EQ(config.particles_at(config.t_end), config.particles_at_end);
    const auto mid = config.particles_at((config.t_start + config.t_end) / 2);
    const auto expected = (config.particles_at_start + config.particles_at_end) / 2;
    EXPECT_NEAR(static_cast<double>(mid), static_cast<double>(expected),
                static_cast<double>(expected) * 0.01);
    // 9x growth over the series, as in the paper (4.6M -> 41.5M).
    EXPECT_NEAR(static_cast<double>(config.particles_at_end) /
                    static_cast<double>(config.particles_at_start),
                41.5 / 4.6, 0.5);
}

TEST(BoilerTest, GeneratesInsideDomainWithSchema) {
    BoilerConfig config;
    config.particles_at_start = 2'000;
    config.particles_at_end = 18'000;
    const ParticleSet set = make_boiler_particles(config, 1500);
    EXPECT_EQ(set.num_attrs(), 7u);  // paper: 7 double attributes
    EXPECT_TRUE(config.domain.contains_box(set.bounds()));
    EXPECT_EQ(set.count(), config.particles_at(1500));
}

TEST(BoilerTest, DistributionIsNonuniform) {
    BoilerConfig config;
    config.particles_at_start = 5'000;
    config.particles_at_end = 45'000;
    const ParticleSet set = make_boiler_particles(config, 2500);
    const GridDecomp d = grid_decomp_3d(64, config.domain);
    const auto counts = partition_counts(set, d);
    const auto max_count = *std::max_element(counts.begin(), counts.end());
    const double mean_count =
        static_cast<double>(set.count()) / static_cast<double>(d.nranks());
    EXPECT_GT(static_cast<double>(max_count), 3.0 * mean_count)
        << "boiler should be strongly clustered";
}

TEST(BoilerTest, DistributionEvolvesOverTime) {
    BoilerConfig config;
    config.particles_at_start = 4'000;
    config.particles_at_end = 36'000;
    const BoilerCounts early = boiler_rank_counts(config, 1000, 32);
    const BoilerCounts late = boiler_rank_counts(config, 4000, 32);
    EXPECT_LT(std::accumulate(early.rank_counts.begin(), early.rank_counts.end(), 0ull),
              std::accumulate(late.rank_counts.begin(), late.rank_counts.end(), 0ull));
    EXPECT_FALSE(early.data_bounds.empty());
}

TEST(BoilerTest, Deterministic) {
    BoilerConfig config;
    config.particles_at_start = 1'000;
    config.particles_at_end = 9'000;
    const ParticleSet a = make_boiler_particles(config, 2000);
    const ParticleSet b = make_boiler_particles(config, 2000);
    ASSERT_EQ(a.count(), b.count());
    for (std::size_t i = 0; i < a.count(); i += 97) {
        EXPECT_EQ(a.position(i), b.position(i));
        EXPECT_EQ(a.attr(0)[i], b.attr(0)[i]);
    }
}

// ---- dam break -------------------------------------------------------------

TEST(DamBreakTest, FixedParticleCount) {
    DamBreakConfig config;
    config.num_particles = 8'000;
    for (int t : {0, 1000, 2500, 4001}) {
        const ParticleSet set = make_dambreak_particles(config, t);
        EXPECT_EQ(set.count(), 8'000u);
        EXPECT_EQ(set.num_attrs(), 4u);  // paper: 4 double attributes
        EXPECT_TRUE(config.domain.contains_box(set.bounds()));
    }
}

TEST(DamBreakTest, StartsAsColumn) {
    DamBreakConfig config;
    config.num_particles = 5'000;
    const ParticleSet set = make_dambreak_particles(config, 0);
    const Box b = set.bounds();
    EXPECT_LE(b.upper.x, config.column_width * 1.05f);
    EXPECT_LE(b.upper.z, config.column_height * 1.05f);
}

TEST(DamBreakTest, CollapsesAndSpreads) {
    DamBreakConfig config;
    config.num_particles = 5'000;
    const Box early = make_dambreak_particles(config, 0).bounds();
    const Box late = make_dambreak_particles(config, 3000).bounds();
    EXPECT_GT(late.upper.x, 2.f * early.upper.x);  // front ran along the floor
    // Column height collapsed: the bulk of particles sit much lower.
    const ParticleSet late_set = make_dambreak_particles(config, 4001);
    double mean_z = 0;
    for (std::size_t i = 0; i < late_set.count(); ++i) {
        mean_z += late_set.position(i).z;
    }
    mean_z /= static_cast<double>(late_set.count());
    EXPECT_LT(mean_z, 0.4 * config.column_height);
}

TEST(DamBreakTest, RankLoadMigratesOver2dGrid) {
    DamBreakConfig config;
    config.num_particles = 20'000;
    const auto c0 = dambreak_rank_counts(config, 0, 16);
    const auto c1 = dambreak_rank_counts(config, 3000, 16);
    EXPECT_EQ(std::accumulate(c0.begin(), c0.end(), 0ull), 20'000ull);
    EXPECT_EQ(std::accumulate(c1.begin(), c1.end(), 0ull), 20'000ull);
    // At t=0 some ranks (far from the column) are empty; later they fill.
    const int empty0 = static_cast<int>(std::count(c0.begin(), c0.end(), 0ull));
    const int empty1 = static_cast<int>(std::count(c1.begin(), c1.end(), 0ull));
    EXPECT_GT(empty0, 0);
    EXPECT_LT(empty1, empty0);
}

// ---- mixtures --------------------------------------------------------------

TEST(MixtureTest, CountAndBounds) {
    const Box domain({0, 0, 0}, {1, 1, 1});
    const auto blobs = make_random_blobs(domain, 3, 5);
    const ParticleSet set = make_mixture_particles(domain, blobs, 3'000, 2, 6);
    EXPECT_EQ(set.count(), 3'000u);
    EXPECT_TRUE(domain.contains_box(set.bounds()));
}

TEST(MixtureTest, ClustersAroundBlobCenters) {
    const Box domain({0, 0, 0}, {1, 1, 1});
    const std::vector<GaussianBlob> blobs{{{0.2f, 0.2f, 0.2f}, 0.02f, 1.0}};
    const ParticleSet set = make_mixture_particles(domain, blobs, 2'000, 1, 7);
    int near = 0;
    for (std::size_t i = 0; i < set.count(); ++i) {
        const Vec3 d = set.position(i) - Vec3{0.2f, 0.2f, 0.2f};
        if (std::abs(d.x) < 0.1f && std::abs(d.y) < 0.1f && std::abs(d.z) < 0.1f) {
            ++near;
        }
    }
    EXPECT_GT(near, 1'900);
}

TEST(MixtureTest, WeightsControlShare) {
    const Box domain({0, 0, 0}, {1, 1, 1});
    const std::vector<GaussianBlob> blobs{{{0.2f, 0.5f, 0.5f}, 0.01f, 9.0},
                                          {{0.8f, 0.5f, 0.5f}, 0.01f, 1.0}};
    const ParticleSet set = make_mixture_particles(domain, blobs, 10'000, 1, 8);
    int left = 0;
    for (std::size_t i = 0; i < set.count(); ++i) {
        left += set.position(i).x < 0.5f;
    }
    EXPECT_NEAR(left, 9'000, 300);
}

}  // namespace
}  // namespace bat
