// Tests for the Dataset reader (whole-data-set queries through the
// metadata; collect() against query(); leaves whose schema differs from the
// metadata's) and in-transit queries on a BatFile opened over an unwritten
// BAT's serialize_bat image.

#include <gtest/gtest.h>

#include "core/dataset.hpp"
#include "io/writer.hpp"
#include "test_helpers.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/mixtures.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kDomain({0, 0, 0}, {2, 2, 2});

struct WrittenDataset {
    testing::TempDir dir;
    ParticleSet global;
    std::filesystem::path meta_path;

    explicit WrittenDataset(std::size_t n = 20'000, std::uint64_t target = 64 << 10) {
        global = make_uniform_particles(kDomain, n, 3, 7);
        const GridDecomp decomp = grid_decomp_3d(8, kDomain);
        const auto per_rank = partition_particles(global, decomp);
        std::vector<Box> bounds;
        for (int r = 0; r < 8; ++r) {
            bounds.push_back(decomp.rank_box(r));
        }
        WriterConfig config;
        config.tree.target_file_size = target;
        config.directory = dir.path();
        config.basename = "ds";
        meta_path = write_particles_serial(per_rank, bounds, config).metadata_path;
    }
};

TEST(DatasetTest, MetadataAccessors) {
    WrittenDataset w;
    Dataset ds(w.meta_path);
    EXPECT_EQ(ds.num_particles(), w.global.count());
    EXPECT_EQ(ds.num_attrs(), 3u);
    EXPECT_EQ(ds.attr_names(), w.global.attr_names());
    EXPECT_EQ(ds.attr_index("attr1"), 1u);
    EXPECT_THROW(ds.attr_index("nope"), Error);
    EXPECT_TRUE(ds.bounds().contains_box(w.global.bounds()));
    const auto [lo, hi] = ds.attr_range(0);
    const auto [elo, ehi] = w.global.attr_range(0);
    EXPECT_DOUBLE_EQ(lo, elo);
    EXPECT_DOUBLE_EQ(hi, ehi);
}

TEST(DatasetTest, FullCollectReturnsEverything) {
    WrittenDataset w;
    Dataset ds(w.meta_path);
    const ParticleSet all = ds.collect(BatQuery{});
    EXPECT_EQ(testing::particle_keys(all), testing::particle_keys(w.global));
}

TEST(DatasetTest, SpatialQueryMatchesBruteForce) {
    WrittenDataset w;
    Dataset ds(w.meta_path);
    const Box box({0.4f, 0.2f, 0.9f}, {1.6f, 1.8f, 1.5f});
    BatQuery query;
    query.box = box;
    const ParticleSet got = ds.collect(query);
    EXPECT_EQ(got.count(), testing::brute_force_query(w.global, box).size());
}

TEST(DatasetTest, QueryStatsAccumulateAcrossCalls) {
    WrittenDataset w;
    Dataset ds(w.meta_path);
    BatQuery query;
    query.box = Box({0.4f, 0.2f, 0.9f}, {1.6f, 1.8f, 1.5f});
    const auto ignore = [](Vec3, std::span<const double>) {};
    QueryStats once;
    const std::uint64_t n = ds.query(query, ignore, &once);
    ASSERT_GT(once.points_tested, 0u);
    QueryStats twice;
    ds.query(query, ignore, &twice);
    ds.query(query, ignore, &twice);
    EXPECT_EQ(twice.points_emitted, 2 * n);
    EXPECT_EQ(twice.points_tested, 2 * once.points_tested);
    EXPECT_EQ(twice.treelet_nodes_visited, 2 * once.treelet_nodes_visited);
    EXPECT_EQ(twice.shallow_nodes_visited, 2 * once.shallow_nodes_visited);
}

TEST(DatasetTest, LeafPruningSkipsFiles) {
    WrittenDataset w(40'000, 16 << 10);  // many leaves
    Dataset ds(w.meta_path);
    ASSERT_GT(ds.metadata().leaves.size(), 3u);
    // A tiny corner query must not open every leaf file.
    BatQuery query;
    query.box = Box({0, 0, 0}, {0.2f, 0.2f, 0.2f});
    ds.query(query, [](Vec3, std::span<const double>) {});
    EXPECT_LT(ds.open_files(), ds.metadata().leaves.size());
}

TEST(DatasetTest, AttributeQueryAcrossLeaves) {
    WrittenDataset w;
    Dataset ds(w.meta_path);
    const auto [lo, hi] = ds.attr_range(1);
    const double qlo = lo + 0.6 * (hi - lo);
    BatQuery query;
    query.attr_filters.push_back({1, qlo, hi});
    QueryStats stats;
    const std::uint64_t n = ds.query(
        query,
        [qlo](Vec3, std::span<const double> attrs) { EXPECT_GE(attrs[1], qlo); },
        &stats);
    EXPECT_EQ(n, testing::brute_force_query(w.global, Box({-9, -9, -9}, {9, 9, 9}), true, 1,
                                            qlo, hi)
                     .size());
    EXPECT_EQ(stats.points_emitted, n);
}

TEST(DatasetTest, ProgressiveWindowsAcrossLeavesPartition) {
    WrittenDataset w;
    Dataset ds(w.meta_path);
    std::uint64_t total = 0;
    for (int step = 0; step < 5; ++step) {
        BatQuery query;
        query.quality_lo = static_cast<float>(step) / 5.f;
        query.quality_hi = static_cast<float>(step + 1) / 5.f;
        total += ds.query(query, [](Vec3, std::span<const double>) {});
    }
    EXPECT_EQ(total, w.global.count());
}

TEST(DatasetTest, CollectEqualsPointwiseQuery) {
    // collect() must return exactly the points query() hands its callback,
    // byte for byte and in the same order, with the same QueryStats — over
    // many leaves and every query kind (box, filters, half-open, windows).
    WrittenDataset w(40'000, 16 << 10);
    Dataset ds(w.meta_path);
    ASSERT_GT(ds.metadata().leaves.size(), 3u);
    const auto [lo0, hi0] = ds.attr_range(0);
    const auto [lo2, hi2] = ds.attr_range(2);
    const AttrFilter filter0{0, lo0 + 0.3 * (hi0 - lo0), lo0 + 0.8 * (hi0 - lo0)};
    const AttrFilter filter2{2, lo2 + 0.1 * (hi2 - lo2), lo2 + 0.6 * (hi2 - lo2)};
    const Box part({0.3f, 0.2f, 0.5f}, {1.4f, 1.7f, 1.3f});
    std::vector<BatQuery> queries(7);
    queries[1].box = part;                                      // box only
    queries[2].attr_filters = {filter0};                        // filter only
    queries[3].box = part;                                      // box + filters
    queries[3].attr_filters = {filter0, filter2};
    queries[4].box = Box({0.5f, 0.5f, 0.5f}, {1.5f, 1.5f, 1.5f});  // half-open
    queries[4].inclusive_upper = false;
    queries[4].attr_filters = {filter2};
    queries[5] = queries[3];                                    // progressive window
    queries[5].quality_lo = 0.3f;
    queries[5].quality_hi = 0.8f;
    queries[6].box = part;                                      // progressive, box only
    queries[6].quality_lo = 0.25f;
    queries[6].quality_hi = 0.6f;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        ParticleSet pointwise(ds.attr_names());
        QueryStats query_stats;
        const std::uint64_t n = ds.query(
            queries[q],
            [&pointwise](Vec3 p, std::span<const double> attrs) { pointwise.push_back(p, attrs); },
            &query_stats);
        EXPECT_EQ(n, pointwise.count());
        EXPECT_GT(n, 0u);
        QueryStats collect_stats;
        const ParticleSet collected = ds.collect(queries[q], &collect_stats);
        EXPECT_EQ(collected.attr_names(), ds.attr_names());
        EXPECT_EQ(collected.to_bytes(), pointwise.to_bytes());
        EXPECT_EQ(collect_stats.shallow_nodes_visited, query_stats.shallow_nodes_visited);
        EXPECT_EQ(collect_stats.treelet_nodes_visited, query_stats.treelet_nodes_visited);
        EXPECT_EQ(collect_stats.pruned_by_box, query_stats.pruned_by_box);
        EXPECT_EQ(collect_stats.pruned_by_bitmap, query_stats.pruned_by_bitmap);
        EXPECT_EQ(collect_stats.points_tested, query_stats.points_tested);
        EXPECT_EQ(collect_stats.points_emitted, query_stats.points_emitted);
        EXPECT_EQ(collect_stats.points_fast_path, query_stats.points_fast_path);
    }
}

TEST(DatasetTest, LeafWithOtherSchemaIsRejected) {
    // A leaf whose attributes differ from the metadata's would hand query()
    // callbacks spans of the wrong length (and the C API's callers would
    // read past them): opening it must raise instead.
    WrittenDataset w;
    const Metadata meta = Metadata::load(w.meta_path);
    const std::filesystem::path leaf_path = w.dir.path() / meta.leaves[0].file;
    ParticleSet one_attr(uniform_attr_names(1));
    {
        const BatFile leaf(leaf_path);
        ASSERT_EQ(leaf.num_attrs(), 3u);
        query_bat(leaf, BatQuery{}, [&one_attr](Vec3 p, std::span<const double> attrs) {
            one_attr.push_back(p, attrs.first(1));
        });
    }
    ASSERT_GT(one_attr.count(), 0u);
    write_bat_file(leaf_path, build_bat(std::move(one_attr), BatConfig{}));
    {
        Dataset ds(w.meta_path);
        EXPECT_THROW(ds.query(BatQuery{}, [](Vec3, std::span<const double>) {}), Error);
        EXPECT_THROW(ds.leaf_file(0), Error);
    }
    Dataset ds(w.meta_path);
    EXPECT_THROW(ds.collect(BatQuery{}), Error);
}

// ---- in-transit queries on an unwritten BAT's image -------------------------

TEST(InTransitTest, AttributeFilteringWorksInMemory) {
    ParticleSet particles = make_uniform_particles(kDomain, 10'000, 2, 23);
    const ParticleSet original = particles;
    const BatData bat = build_bat(std::move(particles), BatConfig{});
    const std::vector<std::byte> image = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(image)};
    const auto [lo, hi] = bat.attr_ranges[0];
    BatQuery query;
    query.attr_filters.push_back({0, lo, lo + 0.3 * (hi - lo)});
    QueryStats stats;
    const std::uint64_t n =
        query_bat(file, query, [](Vec3, std::span<const double>) {}, &stats);
    EXPECT_EQ(n, testing::brute_force_query(original, Box({-9, -9, -9}, {9, 9, 9}), true, 0,
                                            lo, lo + 0.3 * (hi - lo))
                     .size());
    EXPECT_GT(stats.pruned_by_bitmap, 0u);
}

TEST(InTransitTest, EmptyBatInMemory) {
    ParticleSet particles(uniform_attr_names(1));
    const std::vector<std::byte> image =
        serialize_bat(build_bat(std::move(particles), BatConfig{}));
    const BatFile file{std::span<const std::byte>(image)};
    EXPECT_EQ(query_bat(file, BatQuery{}, [](Vec3, std::span<const double>) {}), 0u);
}

// ---- recommend_target_size ---------------------------------------------------

TEST(RecommendTargetSizeTest, PowerOfTwo) {
    for (int nranks : {16, 512, 2048, 8192, 43008}) {
        const std::uint64_t t =
            recommend_target_size(32'768ull * nranks, 124, nranks);
        EXPECT_EQ(t & (t - 1), 0u) << t;
        EXPECT_GE(t, 1u << 20);
        EXPECT_LE(t, 512u << 20);
    }
}

TEST(RecommendTargetSizeTest, GrowsWithScale) {
    // Weak scaling (same per-rank bytes): larger runs get larger targets.
    const std::uint64_t small = recommend_target_size(32'768ull * 512, 124, 512);
    const std::uint64_t large = recommend_target_size(32'768ull * 43008, 124, 43008);
    EXPECT_GT(large, small);
}

TEST(RecommendTargetSizeTest, GrowsWithInjection) {
    // The Coal Boiler grows 9x over the run: the recommendation must too.
    const std::uint64_t early = recommend_target_size(4'600'000, 68, 1536);
    const std::uint64_t late = recommend_target_size(41'500'000, 68, 1536);
    EXPECT_GT(late, early);
}

}  // namespace
}  // namespace bat
