// Tests for the Dataset reader (whole-data-set queries through the
// metadata) and the in-transit BatDataView query path.

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

// ---- in-transit queries on an unwritten BAT --------------------------------

TEST(InTransitTest, DataViewMatchesFileQueries) {
    ParticleSet particles = make_uniform_particles(kDomain, 15'000, 2, 21);
    const ParticleSet original = particles;
    const BatData bat = build_bat(std::move(particles), BatConfig{});
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};

    const Box box({0.3f, 0.3f, 0.3f}, {1.5f, 1.2f, 1.9f});
    for (float quality : {0.1f, 0.5f, 1.0f}) {
        BatQuery query;
        query.box = box;
        query.quality_hi = quality;
        std::uint64_t from_file = query_bat(file, query, [](Vec3, std::span<const double>) {});
        std::uint64_t from_memory = query_bat(bat, query, [](Vec3, std::span<const double>) {});
        EXPECT_EQ(from_file, from_memory) << "quality " << quality;
    }
}

TEST(InTransitTest, AttributeFilteringWorksInMemory) {
    ParticleSet particles = make_uniform_particles(kDomain, 10'000, 2, 23);
    const ParticleSet original = particles;
    const BatData bat = build_bat(std::move(particles), BatConfig{});
    const auto [lo, hi] = bat.attr_ranges[0];
    BatQuery query;
    query.attr_filters.push_back({0, lo, lo + 0.3 * (hi - lo)});
    QueryStats stats;
    const std::uint64_t n =
        query_bat(bat, query, [](Vec3, std::span<const double>) {}, &stats);
    EXPECT_EQ(n, testing::brute_force_query(original, Box({-9, -9, -9}, {9, 9, 9}), true, 0,
                                            lo, lo + 0.3 * (hi - lo))
                     .size());
    EXPECT_GT(stats.pruned_by_bitmap, 0u);
}

TEST(InTransitTest, EmptyBatInMemory) {
    ParticleSet particles(uniform_attr_names(1));
    const BatData bat = build_bat(std::move(particles), BatConfig{});
    EXPECT_EQ(query_bat(bat, BatQuery{}, [](Vec3, std::span<const double>) {}), 0u);
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
