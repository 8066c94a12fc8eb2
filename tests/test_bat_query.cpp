// Tests for visualization queries (paper §V): spatial and attribute
// filtering vs brute force, false-positive elimination, progressive
// multiresolution consistency, and the quality remap.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/bat_query.hpp"
#include "test_helpers.hpp"
#include "workloads/mixtures.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kUnit({0, 0, 0}, {1, 1, 1});

struct Fixture {
    ParticleSet original;
    std::vector<std::byte> bytes;

    explicit Fixture(std::size_t n = 30'000, std::size_t nattrs = 3,
                     std::uint64_t seed = 42, bool clustered = false) {
        if (clustered) {
            const auto blobs = make_random_blobs(kUnit, 5, seed);
            original = make_mixture_particles(kUnit, blobs, n, nattrs, seed);
        } else {
            original = make_uniform_particles(kUnit, n, nattrs, seed);
        }
        ParticleSet copy = original;
        bytes = serialize_bat(build_bat(std::move(copy), BatConfig{}));
    }

    BatFile file() const { return BatFile{std::span<const std::byte>(bytes)}; }
};

std::vector<testing::ParticleKey> collect(const BatFile& file, const BatQuery& query,
                                          QueryStats* stats = nullptr) {
    std::vector<testing::ParticleKey> keys;
    query_bat(file, query, [&keys](Vec3 p, std::span<const double> attrs) {
        keys.push_back({p.x, p.y, p.z, {attrs.begin(), attrs.end()}});
    }, stats);
    std::sort(keys.begin(), keys.end());
    return keys;
}

/// The plan's points, written into a set sized once (write_into).
ParticleSet plan_points(const QueryPlan& plan, const std::vector<std::string>& attr_names) {
    ParticleSet out(attr_names);
    out.resize(plan.count());
    plan.write_into(out, 0);
    return out;
}

std::vector<testing::ParticleKey> reference(const ParticleSet& set, const Box& box,
                                            bool inclusive, int attr = -1, double lo = 0,
                                            double hi = 0) {
    std::vector<testing::ParticleKey> keys;
    for (std::size_t i : testing::brute_force_query(set, box, inclusive, attr, lo, hi)) {
        testing::ParticleKey k;
        const Vec3 p = set.position(i);
        k.x = p.x;
        k.y = p.y;
        k.z = p.z;
        for (std::size_t a = 0; a < set.num_attrs(); ++a) {
            k.attrs.push_back(set.attr(a)[i]);
        }
        keys.push_back(std::move(k));
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

TEST(QualityRemapTest, EndpointsExact) {
    EXPECT_DOUBLE_EQ(remap_quality(0.0, 5), 0.0);
    EXPECT_DOUBLE_EQ(remap_quality(1.0, 5), 5.0);
    EXPECT_DOUBLE_EQ(remap_quality(-0.5, 5), 0.0);
    EXPECT_DOUBLE_EQ(remap_quality(2.0, 5), 5.0);
}

TEST(QualityRemapTest, MonotoneIncreasing) {
    double prev = 0.0;
    for (int i = 1; i <= 100; ++i) {
        const double t = remap_quality(i / 100.0, 8);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(QualityRemapTest, LogScaleFrontLoadsDepth) {
    // Because point counts double per level, half quality should map to
    // nearly the full depth (log remap), not half the depth.
    EXPECT_GT(remap_quality(0.5, 10), 8.0);
}

TEST(PointsAtDepthTest, WindowIsMonotoneAndExact) {
    const std::uint32_t own = 100;
    for (int depth = 0; depth < 4; ++depth) {
        std::uint32_t prev = 0;
        for (double t = 0.0; t <= 5.01; t += 0.05) {
            const std::uint32_t n = points_at_depth(t, depth, own);
            EXPECT_GE(n, prev);
            prev = n;
        }
        EXPECT_EQ(points_at_depth(static_cast<double>(depth), depth, own), 0u);
        EXPECT_EQ(points_at_depth(depth + 1.0, depth, own), own);
    }
}

TEST(BatQueryTest, FullQueryReturnsEverything) {
    const Fixture fx;
    const BatFile file = fx.file();
    BatQuery query;  // no filters, quality 0 -> 1
    const auto got = collect(file, query);
    EXPECT_EQ(got, testing::particle_keys(fx.original));
}

TEST(BatQueryTest, SpatialQueryMatchesBruteForce) {
    const Fixture fx;
    const BatFile file = fx.file();
    const Box queries[] = {
        Box({0.2f, 0.2f, 0.2f}, {0.5f, 0.6f, 0.4f}),
        Box({0.0f, 0.0f, 0.0f}, {0.1f, 1.0f, 1.0f}),
        Box({0.9f, 0.9f, 0.9f}, {1.0f, 1.0f, 1.0f}),
        Box({0.45f, 0.45f, 0.45f}, {0.55f, 0.55f, 0.55f}),
    };
    for (const Box& box : queries) {
        BatQuery query;
        query.box = box;
        EXPECT_EQ(collect(file, query), reference(fx.original, box, true));
    }
}

TEST(BatQueryTest, HalfOpenContainment) {
    const Fixture fx(20'000, 2, 7);
    const BatFile file = fx.file();
    const Box box({0.25f, 0.25f, 0.25f}, {0.75f, 0.75f, 0.75f});
    BatQuery query;
    query.box = box;
    query.inclusive_upper = false;
    EXPECT_EQ(collect(file, query), reference(fx.original, box, false));
}

TEST(BatQueryTest, DisjointBoxReturnsNothing) {
    const Fixture fx(5'000, 1, 9);
    const BatFile file = fx.file();
    BatQuery query;
    query.box = Box({2, 2, 2}, {3, 3, 3});
    QueryStats stats;
    EXPECT_EQ(collect(file, query, &stats).size(), 0u);
    EXPECT_EQ(stats.points_tested, 0u);
}

TEST(BatQueryTest, AttributeFilterMatchesBruteForce) {
    const Fixture fx;
    const BatFile file = fx.file();
    for (std::size_t a = 0; a < 3; ++a) {
        const auto [lo, hi] = fx.original.attr_range(a);
        const double qlo = lo + 0.3 * (hi - lo);
        const double qhi = lo + 0.4 * (hi - lo);
        BatQuery query;
        query.attr_filters.push_back({static_cast<std::uint32_t>(a), qlo, qhi});
        EXPECT_EQ(collect(file, query),
                  reference(fx.original, Box({-10, -10, -10}, {10, 10, 10}), true,
                            static_cast<int>(a), qlo, qhi));
    }
}

TEST(BatQueryTest, CombinedSpatialAndAttributeFilter) {
    const Fixture fx(40'000, 3, 13, /*clustered=*/true);
    const BatFile file = fx.file();
    const Box box({0.1f, 0.1f, 0.1f}, {0.7f, 0.7f, 0.7f});
    const auto [lo, hi] = fx.original.attr_range(1);
    const double qlo = lo + 0.2 * (hi - lo);
    const double qhi = lo + 0.6 * (hi - lo);
    BatQuery query;
    query.box = box;
    query.attr_filters.push_back({1, qlo, qhi});
    EXPECT_EQ(collect(file, query), reference(fx.original, box, true, 1, qlo, qhi));
}

TEST(BatQueryTest, ConjunctionOfTwoAttributeFilters) {
    const Fixture fx;
    const BatFile file = fx.file();
    const auto [lo0, hi0] = fx.original.attr_range(0);
    const auto [lo1, hi1] = fx.original.attr_range(1);
    BatQuery query;
    query.attr_filters.push_back({0, lo0, lo0 + 0.5 * (hi0 - lo0)});
    query.attr_filters.push_back({1, lo1 + 0.5 * (hi1 - lo1), hi1});
    std::uint64_t count = 0;
    query_bat(file, query, [&](Vec3, std::span<const double> attrs) {
        EXPECT_LE(attrs[0], lo0 + 0.5 * (hi0 - lo0));
        EXPECT_GE(attrs[1], lo1 + 0.5 * (hi1 - lo1));
        ++count;
    });
    // Cross-check the count.
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < fx.original.count(); ++i) {
        if (fx.original.attr(0)[i] <= lo0 + 0.5 * (hi0 - lo0) &&
            fx.original.attr(1)[i] >= lo1 + 0.5 * (hi1 - lo1)) {
            ++expected;
        }
    }
    EXPECT_EQ(count, expected);
}

TEST(BatQueryTest, OutOfRangeFilterReturnsNothingFast) {
    const Fixture fx(5'000, 2, 15);
    const BatFile file = fx.file();
    const auto [lo, hi] = fx.original.attr_range(0);
    BatQuery query;
    query.attr_filters.push_back({0, hi + 1.0, hi + 2.0});
    QueryStats stats;
    EXPECT_EQ(query_bat(file, query, [](Vec3, std::span<const double>) {}, &stats), 0u);
    EXPECT_EQ(stats.points_tested, 0u);
}

TEST(BatQueryTest, BitmapPruningActuallyPrunes) {
    // A narrow filter on spatially correlated data must prune subtrees.
    const Fixture fx(50'000, 2, 17);
    const BatFile file = fx.file();
    const auto [lo, hi] = fx.original.attr_range(0);
    BatQuery query;
    query.attr_filters.push_back({0, lo, lo + 0.02 * (hi - lo)});
    QueryStats stats;
    query_bat(file, query, [](Vec3, std::span<const double>) {}, &stats);
    EXPECT_GT(stats.pruned_by_bitmap, 0u);
    EXPECT_LT(stats.points_tested, fx.original.count());
}

TEST(BatQueryTest, StatsCountEmittedPoints) {
    const Fixture fx(10'000, 1, 19);
    const BatFile file = fx.file();
    BatQuery query;
    QueryStats stats;
    const std::uint64_t n = query_bat(file, query, [](Vec3, std::span<const double>) {},
                                      &stats);
    EXPECT_EQ(n, 10'000u);
    EXPECT_EQ(stats.points_emitted, 10'000u);
    // A boxless query is fully contained everywhere: every point should go
    // through the fast path, none through per-point testing.
    EXPECT_EQ(stats.points_fast_path, 10'000u);
    EXPECT_EQ(stats.points_tested, 0u);
    EXPECT_GE(stats.points_tested + stats.points_fast_path, stats.points_emitted);
}

TEST(BatQueryTest, StatsAccumulateAcrossCalls) {
    // QueryStats is documented to accumulate so one struct can sum a
    // multi-leaf read; a second identical query must double every counter.
    const Fixture fx(10'000, 1, 19);
    const BatFile file = fx.file();
    BatQuery query;
    query.box = Box({0.f, 0.f, 0.f}, {2.f, 2.f, 2.f});
    QueryStats stats;
    const std::uint64_t first =
        query_bat(file, query, [](Vec3, std::span<const double>) {}, &stats);
    const QueryStats after_one = stats;
    const std::uint64_t second =
        query_bat(file, query, [](Vec3, std::span<const double>) {}, &stats);
    EXPECT_EQ(first, second);
    EXPECT_EQ(stats.points_emitted, 2 * after_one.points_emitted);
    EXPECT_EQ(stats.points_tested, 2 * after_one.points_tested);
    EXPECT_EQ(stats.points_fast_path, 2 * after_one.points_fast_path);
    EXPECT_EQ(stats.shallow_nodes_visited, 2 * after_one.shallow_nodes_visited);
    EXPECT_EQ(stats.treelet_nodes_visited, 2 * after_one.treelet_nodes_visited);
    EXPECT_EQ(stats.pruned_by_box, 2 * after_one.pruned_by_box);
    EXPECT_EQ(stats.pruned_by_bitmap, 2 * after_one.pruned_by_bitmap);
}

TEST(BatQueryTest, PlanMatchesPointCallback) {
    // The planned windows — fast-path ranges included — must hold exactly
    // the particles the per-point path emits, for covering, partial, and
    // boxless queries.
    const Fixture fx(20'000, 2, 31);
    const BatFile file = fx.file();
    struct Case {
        std::optional<Box> box;
        bool covers_all = false;
    };
    const std::vector<Case> cases = {
        {std::nullopt, true},
        {Box({-1.f, -1.f, -1.f}, {2.f, 2.f, 2.f}), true},     // covers the unit box
        {Box({0.25f, 0.25f, 0.25f}, {0.75f, 0.75f, 0.75f})},  // partial overlap
    };
    for (const Case& c : cases) {
        BatQuery query;
        query.box = c.box;
        const std::vector<testing::ParticleKey> expected = collect(file, query);

        QueryStats stats;
        const QueryPlan plan = plan_bat(file, query, &stats);
        std::vector<testing::ParticleKey> got =
            testing::particle_keys(plan_points(plan, fx.original.attr_names()));
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected);
        if (c.covers_all) {
            // Covering queries should take the fast path for everything.
            EXPECT_EQ(stats.points_fast_path, plan.count());
        }
        EXPECT_GE(stats.points_tested + stats.points_fast_path, stats.points_emitted);
    }

    // Emission order and every QueryStats field must not depend on how the
    // plan is consumed: write_into, write_wire and the per-point query_bat
    // give the same unsorted sequence. Leaves own up to 128 points and
    // inner nodes 8 LOD points, so the tested windows are both longer and
    // shorter than one 64-point block.
    bool long_window = false;
    bool short_window = false;
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        for (const TreeletNode& node : file.treelet(t).nodes) {
            long_window = long_window || node.own_count > 64;
            short_window = short_window || (node.own_count > 0 && node.own_count < 64);
        }
    }
    EXPECT_TRUE(long_window);
    EXPECT_TRUE(short_window);

    const auto [lo0, hi0] = fx.original.attr_range(0);
    const auto [lo1, hi1] = fx.original.attr_range(1);
    const AttrFilter filter0{0, lo0 + 0.3 * (hi0 - lo0), lo0 + 0.8 * (hi0 - lo0)};
    const AttrFilter filter1{1, lo1 + 0.1 * (hi1 - lo1), lo1 + 0.6 * (hi1 - lo1)};
    const Box part({0.2f, 0.15f, 0.3f}, {0.7f, 0.8f, 0.65f});
    std::vector<BatQuery> queries(6);
    queries[0].box = part;                                      // box only
    queries[1].attr_filters = {filter0};                        // filter only
    queries[2].box = part;                                      // box + filters
    queries[2].attr_filters = {filter0, filter1};
    queries[3].box = Box({0.25f, 0.25f, 0.25f}, {0.75f, 0.75f, 0.75f});  // half-open
    queries[3].inclusive_upper = false;
    queries[3].attr_filters = {filter1};
    queries[4] = queries[2];                                    // progressive window
    queries[4].quality_lo = 0.3f;
    queries[4].quality_hi = 0.8f;
    queries[5].box = part;                                      // progressive, box only
    queries[5].quality_lo = 0.25f;
    queries[5].quality_hi = 0.6f;

    const auto expect_same_stats = [](const QueryStats& a, const QueryStats& b) {
        EXPECT_EQ(a.shallow_nodes_visited, b.shallow_nodes_visited);
        EXPECT_EQ(a.treelet_nodes_visited, b.treelet_nodes_visited);
        EXPECT_EQ(a.pruned_by_box, b.pruned_by_box);
        EXPECT_EQ(a.pruned_by_bitmap, b.pruned_by_bitmap);
        EXPECT_EQ(a.points_tested, b.points_tested);
        EXPECT_EQ(a.points_emitted, b.points_emitted);
        EXPECT_EQ(a.points_fast_path, b.points_fast_path);
    };
    const std::vector<std::string>& names = fx.original.attr_names();
    for (std::size_t q = 0; q < queries.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        ParticleSet pointwise(names);
        QueryStats point_stats;
        const std::uint64_t n = query_bat(
            file, queries[q],
            [&pointwise](Vec3 p, std::span<const double> attrs) { pointwise.push_back(p, attrs); },
            &point_stats);
        EXPECT_EQ(n, pointwise.count());
        const std::vector<testing::ParticleKey> point_only =
            testing::particle_sequence(pointwise);
        EXPECT_FALSE(point_only.empty());
        EXPECT_GT(point_stats.points_tested, point_only.size());

        QueryStats plan_stats;
        const QueryPlan plan = plan_bat(file, queries[q], &plan_stats);
        EXPECT_EQ(plan.count(), n);
        const ParticleSet planned = plan_points(plan, names);
        EXPECT_EQ(testing::particle_sequence(planned), point_only);
        expect_same_stats(plan_stats, point_stats);
        std::vector<std::byte> wire(plan.wire_size(names));
        plan.write_wire(wire, names);
        EXPECT_EQ(wire, pointwise.to_bytes());
    }
}

TEST(BatQueryTest, FastPathRespectsProgressiveWindows) {
    // Quality-window partitioning must survive range emission: the windows
    // (0,0.25], (0.25,0.5], ... still cover every particle exactly once.
    const Fixture fx(15'000, 1, 37);
    const BatFile file = fx.file();
    std::vector<testing::ParticleKey> all;
    std::uint64_t fast_path_total = 0;
    for (int step = 0; step < 4; ++step) {
        BatQuery query;
        query.quality_lo = static_cast<float>(step) / 4.f;
        query.quality_hi = static_cast<float>(step + 1) / 4.f;
        QueryStats stats;
        const QueryPlan plan = plan_bat(file, query, &stats);
        fast_path_total += stats.points_fast_path;
        const auto keys = testing::particle_keys(plan_points(plan, fx.original.attr_names()));
        all.insert(all.end(), keys.begin(), keys.end());
    }
    // Boxless queries take the fast path exclusively.
    EXPECT_EQ(fast_path_total, 15'000u);
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, testing::particle_keys(fx.original));
}

// ---- progressive reads -------------------------------------------------------

TEST(BatQueryTest, QualityWindowsPartitionTheData) {
    // Reading (0, 0.1], (0.1, 0.2], ..., (0.9, 1.0] must return every
    // particle exactly once (paper §V-B progressive reads).
    const Fixture fx(25'000, 2, 23);
    const BatFile file = fx.file();
    std::vector<testing::ParticleKey> all;
    for (int step = 0; step < 10; ++step) {
        BatQuery query;
        query.quality_lo = static_cast<float>(step) / 10.f;
        query.quality_hi = static_cast<float>(step + 1) / 10.f;
        auto part = collect(file, query);
        all.insert(all.end(), part.begin(), part.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, testing::particle_keys(fx.original));
}

TEST(BatQueryTest, QualityMonotone) {
    const Fixture fx(25'000, 1, 29);
    const BatFile file = fx.file();
    std::uint64_t prev = 0;
    for (double q : {0.05, 0.1, 0.25, 0.5, 0.75, 1.0}) {
        BatQuery query;
        query.quality_hi = static_cast<float>(q);
        const std::uint64_t n =
            query_bat(file, query, [](Vec3, std::span<const double>) {});
        EXPECT_GE(n, prev);
        prev = n;
    }
    EXPECT_EQ(prev, 25'000u);
}

TEST(BatQueryTest, CoarseQualityIsRepresentativeSubset) {
    const Fixture fx(50'000, 1, 31, /*clustered=*/true);
    const BatFile file = fx.file();
    BatQuery query;
    query.quality_hi = 0.1f;
    Box seen;
    const std::uint64_t n = query_bat(
        file, query, [&seen](Vec3 p, std::span<const double>) { seen.extend(p); });
    EXPECT_GT(n, 0u);
    EXPECT_LT(n, 50'000u);
    // The coarse subset must span a large part of the data bounds (LOD
    // points come from every treelet).
    const Vec3 data_ext = file.bounds().extent();
    const Vec3 seen_ext = seen.extent();
    EXPECT_GT(seen_ext.x, 0.5f * data_ext.x);
    EXPECT_GT(seen_ext.y, 0.5f * data_ext.y);
    EXPECT_GT(seen_ext.z, 0.5f * data_ext.z);
}

TEST(BatQueryTest, ProgressiveWithSpatialFilterConsistent) {
    const Fixture fx(30'000, 2, 37);
    const BatFile file = fx.file();
    const Box box({0.2f, 0.0f, 0.2f}, {0.8f, 1.0f, 0.8f});
    std::vector<testing::ParticleKey> progressive;
    for (int step = 0; step < 4; ++step) {
        BatQuery query;
        query.box = box;
        query.quality_lo = static_cast<float>(step) / 4.f;
        query.quality_hi = static_cast<float>(step + 1) / 4.f;
        auto part = collect(file, query);
        progressive.insert(progressive.end(), part.begin(), part.end());
    }
    std::sort(progressive.begin(), progressive.end());
    EXPECT_EQ(progressive, reference(fx.original, box, true));
}

TEST(BatQueryTest, EqualDepthBinningMatchesBruteForce) {
    // Skew one attribute, build with equal-depth binning, and verify every
    // filtered query is exact (no false negatives, false positives removed).
    ParticleSet set = make_uniform_particles(kUnit, 20'000, 2, 71);
    for (double& v : set.attr_mut(0)) {
        v = std::pow(std::abs(v), 5.0);  // heavy skew toward 0
    }
    const ParticleSet original = set;
    BatConfig config;
    config.binning = BinningScheme::equal_depth;
    const auto bytes = serialize_bat(build_bat(std::move(set), config));
    const BatFile file{std::span<const std::byte>(bytes)};
    const auto [lo, hi] = original.attr_range(0);
    for (const double frac : {0.001, 0.01, 0.3}) {
        BatQuery query;
        query.attr_filters.push_back({0, lo, lo + frac * (hi - lo)});
        const auto got = collect(file, query);
        EXPECT_EQ(got, reference(original, Box({-99, -99, -99}, {99, 99, 99}), true, 0,
                                 lo, lo + frac * (hi - lo)))
            << "fraction " << frac;
    }
}

TEST(BatQueryTest, EqualDepthPrunesSkewedQueriesBetter) {
    ParticleSet set = make_uniform_particles(kUnit, 40'000, 1, 73);
    // Correlate the skewed attribute with space so pruning is possible,
    // then compress its dynamic range at the top end.
    for (std::size_t i = 0; i < set.count(); ++i) {
        set.attr_mut(0)[i] = std::pow(static_cast<double>(set.position(i).x), 6.0);
    }
    ParticleSet copy = set;
    BatConfig width_config;
    BatConfig depth_config;
    depth_config.binning = BinningScheme::equal_depth;
    const auto width_bytes = serialize_bat(build_bat(std::move(set), width_config));
    const auto depth_bytes = serialize_bat(build_bat(std::move(copy), depth_config));
    const BatFile width_file{std::span<const std::byte>(width_bytes)};
    const BatFile depth_file{std::span<const std::byte>(depth_bytes)};
    // A narrow query in the dense low-value region: equal-width lumps the
    // whole region into bin 0, equal-depth resolves it.
    BatQuery query;
    query.attr_filters.push_back({0, 0.0, 1e-4});
    QueryStats width_stats;
    QueryStats depth_stats;
    const auto n_width =
        query_bat(width_file, query, [](Vec3, std::span<const double>) {}, &width_stats);
    const auto n_depth =
        query_bat(depth_file, query, [](Vec3, std::span<const double>) {}, &depth_stats);
    EXPECT_EQ(n_width, n_depth);  // both exact
    EXPECT_LT(depth_stats.points_tested, width_stats.points_tested)
        << "equal-depth binning should test fewer candidates on skewed data";
}

TEST(BatQueryTest, InvalidQueriesRejected) {
    const Fixture fx(100, 1, 41);
    const BatFile file = fx.file();
    BatQuery query;
    query.quality_lo = 0.8f;
    query.quality_hi = 0.2f;
    EXPECT_THROW(query_bat(file, query, [](Vec3, std::span<const double>) {}), Error);
    BatQuery bad_attr;
    bad_attr.attr_filters.push_back({5, 0, 1});  // only 1 attribute exists
    EXPECT_THROW(query_bat(file, bad_attr, [](Vec3, std::span<const double>) {}), Error);
    BatQuery inverted;
    inverted.attr_filters.push_back({0, 1.0, -1.0});
    EXPECT_THROW(query_bat(file, inverted, [](Vec3, std::span<const double>) {}), Error);
}

TEST(BatQueryTest, EmptyFileQuery) {
    ParticleSet set(uniform_attr_names(1));
    const auto bytes = serialize_bat(build_bat(std::move(set), BatConfig{}));
    const BatFile file{std::span<const std::byte>(bytes)};
    BatQuery query;
    EXPECT_EQ(query_bat(file, query, [](Vec3, std::span<const double>) {}), 0u);
}

class BatQuerySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatQuerySizes, SpatialCorrectnessAcrossSizes) {
    const Fixture fx(GetParam(), 2, 57 + GetParam());
    const BatFile file = fx.file();
    const Box box({0.3f, 0.3f, 0.3f}, {0.9f, 0.8f, 0.7f});
    BatQuery query;
    query.box = box;
    EXPECT_EQ(collect(file, query), reference(fx.original, box, true));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatQuerySizes,
                         ::testing::Values(1, 2, 10, 100, 1'000, 10'000, 60'000));

}  // namespace
}  // namespace bat
