// Tests for BAT construction (paper §III-C): shallow tree structure,
// treelet invariants, LOD sampling, particle-order integrity, and bitmap
// correctness against brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <set>

#include "core/bat_builder.hpp"
#include "core/bat_file.hpp"
#include "test_helpers.hpp"
#include "util/morton.hpp"
#include "util/rng.hpp"
#include "workloads/mixtures.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kUnit({0, 0, 0}, {1, 1, 1});

/// Walk a treelet and verify its structural invariants: node ranges and
/// counts, every particle owned by exactly one node, and the median-split
/// contract queries rely on (the left child holds floor(rest / 2) points,
/// all with p[axis] <= split; the right child's points are all >= split and
/// the smallest is the split value itself).
void check_treelet(const BatData& bat, const Treelet& treelet, const BatConfig& config) {
    ASSERT_FALSE(treelet.nodes.empty());
    std::vector<int> covered(treelet.num_particles, 0);
    auto coord = [&](std::uint32_t i, int axis) {
        return bat.particles.position(treelet.first_particle + i)[axis];
    };
    std::function<void(std::size_t, std::uint32_t, std::uint32_t, int)> walk =
        [&](std::size_t index, std::uint32_t lo, std::uint32_t hi, int depth) {
            const TreeletNode& node = treelet.nodes[index];
            EXPECT_EQ(node.start, lo);
            EXPECT_EQ(node.count, hi - lo);
            EXPECT_LE(depth, treelet.max_depth);
            if (node.is_leaf()) {
                EXPECT_EQ(node.own_count, node.count);
                // Leaves only exceed the cap when LOD sampling cannot leave
                // enough particles for two children.
                EXPECT_LE(node.count,
                          static_cast<std::uint32_t>(
                              std::max(config.max_leaf_size, config.lod_per_inner + 1)));
                for (std::uint32_t i = lo; i < hi; ++i) {
                    ++covered[i];
                }
                return;
            }
            EXPECT_EQ(node.own_count, static_cast<std::uint32_t>(config.lod_per_inner));
            for (std::uint32_t i = lo; i < lo + node.own_count; ++i) {
                ++covered[i];
            }
            const auto right = static_cast<std::size_t>(node.right_child);
            ASSERT_LT(right, treelet.nodes.size());
            const std::uint32_t inner_lo = lo + node.own_count;
            const TreeletNode& left_child = treelet.nodes[index + 1];
            ASSERT_EQ(left_child.count, (hi - inner_lo) / 2) << "node " << index;
            const std::uint32_t mid = inner_lo + left_child.count;
            ASSERT_LT(node.axis, 3);
            for (std::uint32_t i = inner_lo; i < mid; ++i) {
                ASSERT_LE(coord(i, node.axis), node.split)
                    << "node " << index << " left point " << i;
            }
            float right_min = coord(mid, node.axis);
            for (std::uint32_t i = mid; i < hi; ++i) {
                ASSERT_GE(coord(i, node.axis), node.split)
                    << "node " << index << " right point " << i;
                right_min = std::min(right_min, coord(i, node.axis));
            }
            EXPECT_EQ(right_min, node.split) << "node " << index;
            walk(index + 1, inner_lo, mid, depth + 1);
            walk(right, mid, hi, depth + 1);
        };
    walk(0, 0, treelet.num_particles, 0);
    for (std::uint32_t i = 0; i < treelet.num_particles; ++i) {
        EXPECT_EQ(covered[i], 1) << "particle " << i << " owned by " << covered[i]
                                 << " nodes";
    }
}

TEST(BatBuilderTest, EmptyInput) {
    ParticleSet set(uniform_attr_names(2));
    const BatData bat = build_bat(std::move(set), BatConfig{});
    EXPECT_EQ(bat.particles.count(), 0u);
    EXPECT_TRUE(bat.treelets.empty());
    EXPECT_TRUE(bat.shallow_nodes.empty());
}

TEST(BatBuilderTest, SingleParticle) {
    ParticleSet set(uniform_attr_names(1));
    const double v = 3.5;
    set.push_back({0.5f, 0.5f, 0.5f}, std::span(&v, 1));
    const BatData bat = build_bat(std::move(set), BatConfig{});
    EXPECT_EQ(bat.particles.count(), 1u);
    ASSERT_EQ(bat.treelets.size(), 1u);
    ASSERT_EQ(bat.shallow_nodes.size(), 1u);
    EXPECT_TRUE(bat.shallow_nodes[0].is_leaf());
    check_treelet(bat, bat.treelets[0], bat.config);
}

TEST(BatBuilderTest, PreservesParticlePopulation) {
    ParticleSet set = make_uniform_particles(kUnit, 20'000, 3, 42);
    const auto before = testing::particle_keys(set);
    const BatData bat = build_bat(std::move(set), BatConfig{});
    const auto after = testing::particle_keys(bat.particles);
    EXPECT_EQ(before, after) << "build must only reorder particles";
}

TEST(BatBuilderTest, AutoSubprefixTracksParticleCount) {
    // Small inputs must get a short subprefix (few treelets); large inputs
    // approach the configured 12-bit maximum.
    BatConfig config;
    const BatData small = build_bat(make_uniform_particles(kUnit, 2'000, 1, 1), config);
    const BatData large = build_bat(make_uniform_particles(kUnit, 200'000, 1, 1), config);
    EXPECT_LT(small.treelets.size(), 4u);
    EXPECT_GT(large.treelets.size(), small.treelets.size());
    EXPECT_LE(large.config.subprefix_bits, 12);
}

TEST(BatBuilderTest, TreeletsPartitionParticles) {
    const BatData bat = build_bat(make_uniform_particles(kUnit, 50'000, 2, 7), BatConfig{});
    std::uint64_t total = 0;
    std::uint32_t expected_first = 0;
    for (const Treelet& treelet : bat.treelets) {
        EXPECT_EQ(treelet.first_particle, expected_first);
        expected_first += treelet.num_particles;
        total += treelet.num_particles;
    }
    EXPECT_EQ(total, bat.particles.count());
}

TEST(BatBuilderTest, TreeletStructureInvariants) {
    const BatConfig config;
    const BatData bat = build_bat(make_uniform_particles(kUnit, 30'000, 2, 9), config);
    for (const Treelet& treelet : bat.treelets) {
        check_treelet(bat, treelet, config);
    }
}

TEST(BatBuilderTest, TreeletBoundsContainTheirParticles) {
    const BatData bat =
        build_bat(make_uniform_particles(kUnit, 20'000, 1, 13), BatConfig{});
    for (const Treelet& treelet : bat.treelets) {
        for (std::uint32_t i = 0; i < treelet.num_particles; ++i) {
            EXPECT_TRUE(
                treelet.bounds.contains(bat.particles.position(treelet.first_particle + i)));
        }
    }
}

TEST(BatBuilderTest, ShallowTreePreorderAndLeafLinks) {
    const BatData bat =
        build_bat(make_uniform_particles(kUnit, 40'000, 1, 21), BatConfig{});
    std::set<std::int32_t> treelet_refs;
    for (std::size_t i = 0; i < bat.shallow_nodes.size(); ++i) {
        const ShallowNode& node = bat.shallow_nodes[i];
        if (node.is_leaf()) {
            EXPECT_GE(node.treelet, 0);
            EXPECT_TRUE(treelet_refs.insert(node.treelet).second);
        } else {
            EXPECT_GT(static_cast<std::size_t>(node.right_child), i + 1);
            EXPECT_LT(static_cast<std::size_t>(node.right_child), bat.shallow_nodes.size());
        }
    }
    EXPECT_EQ(treelet_refs.size(), bat.treelets.size());
}

TEST(BatBuilderTest, ShallowLeafRegionsContainTreeletBounds) {
    const BatData bat =
        build_bat(make_uniform_particles(kUnit, 40'000, 1, 23), BatConfig{});
    for (const ShallowNode& node : bat.shallow_nodes) {
        if (node.is_leaf()) {
            const Treelet& t = bat.treelets[static_cast<std::size_t>(node.treelet)];
            // Leaf node bounds are the tight treelet bounds by construction.
            EXPECT_EQ(node.bounds, t.bounds);
        }
    }
}

TEST(BatBuilderTest, FewerSubprefixBitsGiveFewerTreelets) {
    BatConfig coarse;
    coarse.subprefix_bits = 6;
    coarse.auto_subprefix = false;
    BatConfig fine;
    fine.subprefix_bits = 15;
    fine.auto_subprefix = false;
    ParticleSet a = make_uniform_particles(kUnit, 30'000, 1, 5);
    ParticleSet b = a;
    const BatData bat_coarse = build_bat(std::move(a), coarse);
    const BatData bat_fine = build_bat(std::move(b), fine);
    EXPECT_LT(bat_coarse.treelets.size(), bat_fine.treelets.size());
}

TEST(BatBuilderTest, AttrRangesMatchData) {
    ParticleSet set = make_uniform_particles(kUnit, 5'000, 3, 31);
    std::vector<std::pair<double, double>> expected(3);
    for (std::size_t a = 0; a < 3; ++a) {
        expected[a] = set.attr_range(a);
    }
    const BatData bat = build_bat(std::move(set), BatConfig{});
    for (std::size_t a = 0; a < 3; ++a) {
        EXPECT_EQ(bat.attr_ranges[a], expected[a]);
    }
}

TEST(BatBuilderTest, DeterministicAcrossRuns) {
    ParticleSet a = make_uniform_particles(kUnit, 10'000, 2, 77);
    ParticleSet b = a;
    BatConfig config;
    config.seed = 99;
    const BatData bat_a = build_bat(std::move(a), config);
    const BatData bat_b = build_bat(std::move(b), config);
    ASSERT_EQ(bat_a.particles.count(), bat_b.particles.count());
    EXPECT_EQ(bat_a.particles.positions().size(), bat_b.particles.positions().size());
    for (std::size_t i = 0; i < bat_a.particles.count(); ++i) {
        EXPECT_EQ(bat_a.particles.position(i), bat_b.particles.position(i));
    }
    ASSERT_EQ(bat_a.treelets.size(), bat_b.treelets.size());
    for (std::size_t t = 0; t < bat_a.treelets.size(); ++t) {
        EXPECT_EQ(bat_a.treelets[t].bitmaps, bat_b.treelets[t].bitmaps);
    }
}

TEST(BatBuilderTest, ParallelBuildPreservesPopulation) {
    ParticleSet set = make_uniform_particles(kUnit, 30'000, 2, 55);
    const auto before = testing::particle_keys(set);
    ThreadPool pool(4);
    const BatData bat = build_bat(std::move(set), BatConfig{}, &pool);
    EXPECT_EQ(testing::particle_keys(bat.particles), before);
    for (const Treelet& treelet : bat.treelets) {
        check_treelet(bat, treelet, bat.config);
    }
}

TEST(BatBuilderTest, TreeletsAreAscendingSubprefixBuckets) {
    // The shallow tree is defined over Morton-code subprefixes (§III-C1):
    // each treelet is exactly one subprefix bucket, in ascending order.
    BatConfig fixed;
    fixed.subprefix_bits = 9;
    fixed.auto_subprefix = false;
    for (const BatConfig& config : {BatConfig{}, fixed}) {
        const BatData bat = build_bat(make_uniform_particles(kUnit, 50'000, 1, 41), config);
        ASSERT_GT(bat.treelets.size(), 1u);
        const int shift = kMortonBits - bat.config.subprefix_bits;
        auto prefix_of = [&](std::size_t i) {
            return morton_encode_position(bat.particles.position(i), bat.bounds) >> shift;
        };
        for (std::size_t t = 0; t < bat.treelets.size(); ++t) {
            const Treelet& treelet = bat.treelets[t];
            ASSERT_GT(treelet.num_particles, 0u);
            const std::uint64_t prefix = prefix_of(treelet.first_particle);
            for (std::size_t i = treelet.first_particle;
                 i < treelet.first_particle + treelet.num_particles; ++i) {
                ASSERT_EQ(prefix_of(i), prefix) << "treelet " << t << " particle " << i;
            }
            if (t > 0) {
                EXPECT_GT(prefix, prefix_of(bat.treelets[t - 1].first_particle));
            }
        }
    }
}

TEST(BatBuilderTest, TreeletMembershipIndependentOfInputOrder) {
    // Input order may change the particle order inside a treelet, never
    // which particles a treelet holds or its bounds.
    ParticleSet a = make_uniform_particles(kUnit, 40'000, 2, 17);
    std::vector<std::uint32_t> perm(a.count());
    std::iota(perm.begin(), perm.end(), 0u);
    Pcg32 rng(5);
    for (std::size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.next_bounded(static_cast<std::uint32_t>(i))]);
    }
    ParticleSet b = a;
    b.reorder(perm);
    BatConfig config;
    config.seed = 3;
    const BatData original = build_bat(std::move(a), config);
    const BatData shuffled = build_bat(std::move(b), config);
    auto treelet_keys = [](const BatData& bat, const Treelet& treelet) {
        std::vector<testing::ParticleKey> keys;
        for (std::size_t i = treelet.first_particle;
             i < treelet.first_particle + treelet.num_particles; ++i) {
            const Vec3 p = bat.particles.position(i);
            testing::ParticleKey key{p.x, p.y, p.z, {}};
            for (std::size_t attr = 0; attr < bat.num_attrs(); ++attr) {
                key.attrs.push_back(bat.particles.attr(attr)[i]);
            }
            keys.push_back(std::move(key));
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    };
    ASSERT_GT(original.treelets.size(), 1u);
    ASSERT_EQ(original.treelets.size(), shuffled.treelets.size());
    for (std::size_t t = 0; t < original.treelets.size(); ++t) {
        EXPECT_EQ(original.treelets[t].bounds, shuffled.treelets[t].bounds) << "treelet " << t;
        EXPECT_EQ(treelet_keys(original, original.treelets[t]),
                  treelet_keys(shuffled, shuffled.treelets[t]))
            << "treelet " << t;
    }
}

TEST(BatBuilderTest, PoolBuildByteIdenticalToSerial) {
    // Every parallel decomposition in the build (encode chunks, treelet
    // grains, reorder) must be schedule-independent: a pooled build
    // serializes to exactly the bytes the serial build makes.
    ParticleSet a = make_uniform_particles(kUnit, 60'000, 3, 123);
    ParticleSet b = a;
    BatConfig config;
    config.seed = 7;
    const BatData serial = build_bat(std::move(a), config, nullptr);
    ThreadPool pool(4);
    const BatData pooled = build_bat(std::move(b), config, &pool);
    EXPECT_EQ(serialize_bat(serial), serialize_bat(pooled));
}

// ---- bitmaps ---------------------------------------------------------------

TEST(BitmapTest, BinBoundaries) {
    EXPECT_EQ(bitmap_bin(0.0, 0.0, 1.0), 0);
    EXPECT_EQ(bitmap_bin(1.0, 0.0, 1.0), 31);
    EXPECT_EQ(bitmap_bin(0.5, 0.0, 1.0), 16);
    EXPECT_EQ(bitmap_bin(-5.0, 0.0, 1.0), 0);   // clamped below
    EXPECT_EQ(bitmap_bin(5.0, 0.0, 1.0), 31);   // clamped above
    EXPECT_EQ(bitmap_bin(3.0, 3.0, 3.0), 0);    // degenerate range
}

TEST(BitmapTest, RangeBitmapCoversInterval) {
    // Bins are half-open [lo, hi): every bin that could bin a value in
    // [0.25, 0.5] must be set; bins strictly outside must not be.
    const std::uint32_t bits = bitmap_for_range(0.25, 0.5, 0.0, 1.0);
    for (int b = 0; b < kBitmapBins; ++b) {
        const double bin_lo = b / 32.0;
        const double bin_hi = (b + 1) / 32.0;
        const bool holds_query_value = bin_hi > 0.25 && bin_lo <= 0.5;
        EXPECT_EQ((bits & (1u << b)) != 0, holds_query_value) << "bin " << b;
    }
}

TEST(BitmapTest, DisjointRangeGivesZero) {
    EXPECT_EQ(bitmap_for_range(2.0, 3.0, 0.0, 1.0), 0u);
    EXPECT_EQ(bitmap_for_range(-2.0, -1.0, 0.0, 1.0), 0u);
}

TEST(BitmapTest, DegenerateAttrRange) {
    EXPECT_EQ(bitmap_for_range(3.0, 3.0, 3.0, 3.0), 1u);
}

TEST(BitmapTest, CombineWithOrAndTestWithAnd) {
    const std::uint32_t a = bitmap_for_range(0.0, 0.2, 0.0, 1.0);
    const std::uint32_t b = bitmap_for_range(0.8, 1.0, 0.0, 1.0);
    EXPECT_EQ(a & b, 0u);
    const std::uint32_t merged = a | b;
    EXPECT_NE(merged & bitmap_for_range(0.1, 0.1, 0.0, 1.0), 0u);
    EXPECT_NE(merged & bitmap_for_range(0.9, 0.9, 0.0, 1.0), 0u);
}

// ---- bin edges (equal-width and equal-depth, §VII-A) ------------------------

TEST(BinEdgesTest, EqualWidthMatchesLegacyBinning) {
    const BinEdges edges = equal_width_edges(-2.0, 6.0);
    ASSERT_EQ(edges.size(), static_cast<std::size_t>(kBitmapBins + 1));
    EXPECT_DOUBLE_EQ(edges.front(), -2.0);
    EXPECT_DOUBLE_EQ(edges.back(), 6.0);
    Pcg32 rng(3);
    for (int i = 0; i < 500; ++i) {
        const double v = -2.0 + 8.0 * rng.next_double();
        EXPECT_EQ(bin_of(v, edges), bitmap_bin(v, -2.0, 6.0)) << v;
    }
    EXPECT_EQ(bin_of(-2.0, edges), 0);
    EXPECT_EQ(bin_of(6.0, edges), kBitmapBins - 1);
    EXPECT_EQ(bin_of(-100.0, edges), 0);
    EXPECT_EQ(bin_of(100.0, edges), kBitmapBins - 1);
}

TEST(BinEdgesTest, EqualDepthBalancesSkewedData) {
    // Heavily skewed values: x^8 in [0,1]. Equal-width packs nearly all
    // values into bin 0; equal-depth spreads them across bins.
    std::vector<double> values(20'000);
    Pcg32 rng(5);
    for (double& v : values) {
        v = std::pow(rng.next_double(), 8.0);
    }
    const BinEdges eq_width = equal_width_edges(0.0, 1.0);
    const BinEdges eq_depth = equal_depth_edges(values);
    std::vector<std::uint64_t> width_counts(kBitmapBins, 0);
    std::vector<std::uint64_t> depth_counts(kBitmapBins, 0);
    for (double v : values) {
        ++width_counts[static_cast<std::size_t>(bin_of(v, eq_width))];
        ++depth_counts[static_cast<std::size_t>(bin_of(v, eq_depth))];
    }
    const auto max_width = *std::max_element(width_counts.begin(), width_counts.end());
    const auto max_depth = *std::max_element(depth_counts.begin(), depth_counts.end());
    EXPECT_GT(max_width, values.size() / 2);  // equal-width collapses
    EXPECT_LT(max_depth, values.size() / 8);  // equal-depth spreads
}

/// The pre-multi-select equal_depth_edges: strided sample, full std::sort,
/// quantile picks. The nth_element version must stay value-identical to it.
BinEdges reference_equal_depth(std::span<const double> values,
                               std::size_t max_sample = 65536) {
    if (values.empty()) {
        return equal_width_edges(0.0, 0.0);
    }
    const std::size_t stride = values.size() > max_sample
                                   ? (values.size() + max_sample - 1) / max_sample
                                   : 1;
    std::vector<double> sample;
    for (std::size_t i = 0; i < values.size(); i += stride) {
        sample.push_back(values[i]);
    }
    std::sort(sample.begin(), sample.end());
    BinEdges edges(kBitmapBins + 1);
    for (int b = 0; b <= kBitmapBins; ++b) {
        const std::size_t idx =
            std::min(sample.size() - 1,
                     static_cast<std::size_t>(b) * sample.size() / kBitmapBins);
        edges[static_cast<std::size_t>(b)] = sample[idx];
    }
    edges.front() = sample.front();
    edges.back() = sample.back();
    for (int b = 1; b <= kBitmapBins; ++b) {
        edges[static_cast<std::size_t>(b)] =
            std::max(edges[static_cast<std::size_t>(b)],
                     edges[static_cast<std::size_t>(b - 1)]);
    }
    return edges;
}

TEST(BinEdgesTest, EqualDepthEmptyInput) {
    const BinEdges edges = equal_depth_edges({});
    ASSERT_EQ(edges.size(), static_cast<std::size_t>(kBitmapBins) + 1);
    for (double e : edges) {
        EXPECT_EQ(e, 0.0);
    }
}

TEST(BinEdgesTest, EqualDepthSingleValue) {
    const std::vector<double> one{3.25};
    const BinEdges edges = equal_depth_edges(one);
    ASSERT_EQ(edges.size(), static_cast<std::size_t>(kBitmapBins) + 1);
    for (double e : edges) {
        EXPECT_EQ(e, 3.25);
    }
    EXPECT_EQ(bin_of(3.25, edges), kBitmapBins - 1);
}

TEST(BinEdgesTest, EqualDepthConstantValues) {
    const std::vector<double> constant(10'000, -7.5);
    const BinEdges edges = equal_depth_edges(constant);
    for (double e : edges) {
        EXPECT_EQ(e, -7.5);
    }
}

TEST(BinEdgesTest, EqualDepthAdversarialDistributions) {
    // Each case must match the full-sort reference edge-for-edge: two
    // distinct values, a sorted ramp, a reversed ramp, alternating
    // extremes, one outlier in a constant sea, and heavy duplication.
    std::vector<std::vector<double>> cases;
    cases.push_back({1.0, 2.0});
    std::vector<double> ramp(1'000);
    for (std::size_t i = 0; i < ramp.size(); ++i) {
        ramp[i] = static_cast<double>(i);
    }
    cases.push_back(ramp);
    cases.emplace_back(ramp.rbegin(), ramp.rend());
    std::vector<double> alternating(999);
    for (std::size_t i = 0; i < alternating.size(); ++i) {
        alternating[i] = (i % 2 == 0) ? -1e300 : 1e300;
    }
    cases.push_back(alternating);
    std::vector<double> outlier(5'000, 2.0);
    outlier[4'321] = 1e9;
    cases.push_back(outlier);
    std::vector<double> dups(2'048);
    Pcg32 dup_rng(11);
    for (double& v : dups) {
        v = static_cast<double>(dup_rng.next_bounded(5));
    }
    cases.push_back(dups);
    for (const auto& values : cases) {
        const BinEdges got = equal_depth_edges(values);
        const BinEdges want = reference_equal_depth(values);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], want[i]) << "case size " << values.size() << " edge " << i;
        }
    }
}

TEST(BinEdgesTest, EqualDepthMatchesFullSortReference) {
    // Randomized sweep over sizes bracketing the bin count and the
    // max_sample stride cutoff (70'000 > 65'536 exercises stride > 1).
    Pcg32 rng(23);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{31},
                                std::size_t{32}, std::size_t{33}, std::size_t{1'000},
                                std::size_t{70'000}}) {
        std::vector<double> values(n);
        for (double& v : values) {
            v = -50.0 + 100.0 * rng.next_double();
        }
        const BinEdges got = equal_depth_edges(values);
        const BinEdges want = reference_equal_depth(values);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << "n=" << n << " edge " << i;
        }
        // An explicit tiny max_sample uses the same stride in both paths.
        const BinEdges got_s = equal_depth_edges(values, 100);
        const BinEdges want_s = reference_equal_depth(values, 100);
        for (std::size_t i = 0; i < got_s.size(); ++i) {
            ASSERT_EQ(got_s[i], want_s[i]) << "n=" << n << " strided edge " << i;
        }
    }
}

TEST(BinEdgesTest, EdgesAreMonotone) {
    std::vector<double> values(1'000, 5.0);  // constant data
    values[0] = 1.0;
    const BinEdges edges = equal_depth_edges(values);
    for (std::size_t i = 1; i < edges.size(); ++i) {
        EXPECT_GE(edges[i], edges[i - 1]);
    }
}

TEST(BinEdgesTest, RangeBitmapNeverMissesValues) {
    std::vector<double> values(5'000);
    Pcg32 rng(7);
    for (double& v : values) {
        v = std::pow(rng.next_double(), 4.0) * 10.0;
    }
    const BinEdges edges = equal_depth_edges(values);
    // Any value's bin must be set in any query bitmap whose range holds it.
    for (int i = 0; i < 200; ++i) {
        const double v = values[rng.next_bounded(5'000)];
        const double lo = v - rng.next_double();
        const double hi = v + rng.next_double();
        const std::uint32_t bits = bitmap_for_range(lo, hi, edges);
        EXPECT_NE(bits & (1u << bin_of(v, edges)), 0u) << v;
    }
}

TEST(BatBuilderTest, EqualDepthBuildKeepsBitmapInvariant) {
    BatConfig config;
    config.binning = BinningScheme::equal_depth;
    const BatData bat = build_bat(make_uniform_particles(kUnit, 8'000, 2, 47), config);
    ASSERT_EQ(bat.attr_edges.size(), 2u);
    for (const Treelet& treelet : bat.treelets) {
        for (std::size_t n = 0; n < treelet.nodes.size(); ++n) {
            const TreeletNode& node = treelet.nodes[n];
            for (std::size_t a = 0; a < 2; ++a) {
                std::uint32_t expected = 0;
                for (std::uint32_t i = 0; i < node.count; ++i) {
                    const double v =
                        bat.particles.attr(a)[treelet.first_particle + node.start + i];
                    expected |= 1u << bin_of(v, bat.attr_edges[a]);
                }
                EXPECT_EQ(treelet.bitmaps[n * 2 + a], expected);
            }
        }
    }
}

TEST(BatBuilderTest, NodeBitmapsNeverMissContainedValues) {
    // No-false-negative property: every particle's attribute bin must be
    // set in every ancestor node's bitmap.
    const BatData bat = build_bat(make_uniform_particles(kUnit, 8'000, 2, 3), BatConfig{});
    const std::size_t nattrs = 2;
    for (const Treelet& treelet : bat.treelets) {
        // For each node, brute-force OR over its full subtree range must be
        // a subset of the stored bitmap (equality for exact construction).
        for (std::size_t n = 0; n < treelet.nodes.size(); ++n) {
            const TreeletNode& node = treelet.nodes[n];
            for (std::size_t a = 0; a < nattrs; ++a) {
                std::uint32_t expected = 0;
                for (std::uint32_t i = 0; i < node.count; ++i) {
                    const double v =
                        bat.particles.attr(a)[treelet.first_particle + node.start + i];
                    expected |=
                        1u << bitmap_bin(v, bat.attr_ranges[a].first, bat.attr_ranges[a].second);
                }
                const std::uint32_t stored = treelet.bitmaps[n * nattrs + a];
                EXPECT_EQ(stored & expected, expected)
                    << "node " << n << " attr " << a << " misses bins";
                EXPECT_EQ(stored, expected) << "exact build should have no extra bins";
            }
        }
    }
}

TEST(BatBuilderTest, RootBitmapCoversEverything) {
    const BatData bat = build_bat(make_uniform_particles(kUnit, 8'000, 2, 19), BatConfig{});
    for (std::size_t a = 0; a < 2; ++a) {
        std::uint32_t expected = 0;
        for (std::size_t i = 0; i < bat.particles.count(); ++i) {
            expected |= 1u << bitmap_bin(bat.particles.attr(a)[i], bat.attr_ranges[a].first,
                                         bat.attr_ranges[a].second);
        }
        EXPECT_EQ(bat.root_bitmap(a), expected);
    }
}

TEST(BatBuilderTest, ClusteredDataStillValid) {
    const auto blobs = make_random_blobs(kUnit, 5, 3);
    ParticleSet set = make_mixture_particles(kUnit, blobs, 25'000, 3, 11);
    const auto before = testing::particle_keys(set);
    const BatData bat = build_bat(std::move(set), BatConfig{});
    EXPECT_EQ(testing::particle_keys(bat.particles), before);
    for (const Treelet& treelet : bat.treelets) {
        check_treelet(bat, treelet, bat.config);
    }
}

TEST(BatBuilderTest, CoincidentParticlesHandled) {
    // All particles at the same point: one treelet, leaf-chain structure.
    ParticleSet set(uniform_attr_names(1));
    const double v = 1.0;
    for (int i = 0; i < 500; ++i) {
        set.push_back({0.25f, 0.25f, 0.25f}, std::span(&v, 1));
    }
    const BatData bat = build_bat(std::move(set), BatConfig{});
    EXPECT_EQ(bat.particles.count(), 500u);
    ASSERT_EQ(bat.treelets.size(), 1u);
    check_treelet(bat, bat.treelets[0], bat.config);
}

class BatBuilderParams
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};  // (lod, leaf, n)

TEST_P(BatBuilderParams, InvariantsAcrossConfigurations) {
    const auto [lod, leaf, n] = GetParam();
    BatConfig config;
    config.lod_per_inner = lod;
    config.max_leaf_size = leaf;
    ParticleSet set = make_uniform_particles(kUnit, static_cast<std::size_t>(n), 2, 101);
    const auto before = testing::particle_keys(set);
    const BatData bat = build_bat(std::move(set), config);
    EXPECT_EQ(testing::particle_keys(bat.particles), before);
    for (const Treelet& treelet : bat.treelets) {
        check_treelet(bat, treelet, config);
    }
}

/// Musser's median-of-3 killer: a permutation of 1..n that makes a
/// quickselect pivot chosen as the median of the first, middle and last
/// keys split off only a few records per round.
std::vector<float> median_of_3_killer(std::size_t n) {
    const std::size_t k = n / 2;
    std::vector<float> keys(n, static_cast<float>(n));  // odd n: n goes last
    for (std::size_t i = 1; i <= k; ++i) {
        keys[i - 1] = static_cast<float>(i % 2 == 1 ? i : k + i - 1);
        keys[k + i - 1] = static_cast<float>(2 * i);
    }
    return keys;
}

/// Coordinate layouts that stress the median select: ties, presorted runs
/// and an adversarial pivot sequence.
enum class Layout { lattice, few_values, sorted_x, reverse_x, median_of_3_killer };

ParticleSet structured_particles(Layout layout, std::size_t n) {
    ParticleSet set(uniform_attr_names(1));
    Pcg32 rng(29);
    const std::vector<float> killer = median_of_3_killer(n);
    const float scale = 1.f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
        Vec3 p;
        switch (layout) {
            case Layout::lattice:  // dam-break column: 16 x 8 cells per z layer
                p = {static_cast<float>(i % 16) * 0.01f,
                     static_cast<float>(i / 16 % 8) * 0.01f,
                     static_cast<float>(i / 128) * 0.01f};
                break;
            case Layout::few_values:
                p = {0.5f * static_cast<float>(rng.next_bounded(3)),
                     0.5f * static_cast<float>(rng.next_bounded(3)),
                     0.5f * static_cast<float>(rng.next_bounded(3))};
                break;
            case Layout::sorted_x:
                p = {static_cast<float>(i) * scale, rng.next_float(), rng.next_float()};
                break;
            case Layout::reverse_x:
                p = {static_cast<float>(n - i) * scale, rng.next_float(), rng.next_float()};
                break;
            case Layout::median_of_3_killer:  // x = y = 0: one treelet, z splits
                p = {0.f, 0.f, killer[i] * scale};
                break;
        }
        const auto v = static_cast<double>(i);
        set.push_back(p, std::span(&v, 1));
    }
    return set;
}

TEST_P(BatBuilderParams, SplitContractOnStructuredInputs) {
    const auto [lod, leaf, n] = GetParam();
    BatConfig config;
    config.lod_per_inner = lod;
    config.max_leaf_size = leaf;
    for (const Layout layout : {Layout::lattice, Layout::few_values, Layout::sorted_x,
                                Layout::reverse_x, Layout::median_of_3_killer}) {
        SCOPED_TRACE(static_cast<int>(layout));
        ParticleSet set = structured_particles(layout, static_cast<std::size_t>(n));
        const auto before = testing::particle_keys(set);
        const BatData bat = build_bat(std::move(set), config);
        EXPECT_EQ(testing::particle_keys(bat.particles), before);
        for (const Treelet& treelet : bat.treelets) {
            check_treelet(bat, treelet, config);
        }
    }
}

TEST(BatBuilderTest, MedianOfThreeKillerBuildsInNLogN) {
    // One treelet over an adversarial z sequence. The select's round limit
    // hands a range that keeps splitting badly to std::nth_element, so the
    // build costs within a small factor of the same particles in random
    // order (~2x); without the limit it is quadratic (~9x at this size).
    constexpr std::size_t kN = std::size_t{1} << 17;
    BatConfig config;
    config.auto_subprefix = false;
    config.subprefix_bits = 1;
    const ParticleSet killer = structured_particles(Layout::median_of_3_killer, kN);
    std::vector<std::uint32_t> perm(kN);
    std::iota(perm.begin(), perm.end(), 0u);
    Pcg32 rng(11);
    for (std::size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.next_bounded(static_cast<std::uint32_t>(i))]);
    }
    ParticleSet shuffled = killer;
    shuffled.reorder(perm);
    auto best_build_seconds = [&](const ParticleSet& set) {
        double best = 1e30;
        for (int rep = 0; rep < 3; ++rep) {
            ParticleSet copy = set;
            const auto t0 = std::chrono::steady_clock::now();
            const BatData bat = build_bat(std::move(copy), config);
            best = std::min(best, std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count());
            if (rep == 0) {
                EXPECT_EQ(bat.treelets.size(), 1u);
                for (const Treelet& treelet : bat.treelets) {
                    check_treelet(bat, treelet, config);
                }
            }
        }
        return best;
    };
    const double killer_s = best_build_seconds(killer);
    const double shuffled_s = best_build_seconds(shuffled);
    EXPECT_LT(killer_s, 4 * shuffled_s) << killer_s << " s vs " << shuffled_s << " s";
}

INSTANTIATE_TEST_SUITE_P(Configs, BatBuilderParams,
                         ::testing::Values(std::tuple{8, 128, 10'000},
                                           std::tuple{4, 64, 10'000},
                                           std::tuple{16, 256, 10'000},
                                           std::tuple{1, 2, 1'000},
                                           std::tuple{8, 128, 100},
                                           std::tuple{2, 8, 5'000}));

}  // namespace
}  // namespace bat
