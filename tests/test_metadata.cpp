// Tests for the top-level metadata (paper §III-D): bitmap remapping from
// local to global ranges, bottom-up node merges, serialization, and leaf
// queries.

#include <gtest/gtest.h>

#include <cstring>

#include "core/bat_builder.hpp"
#include "core/metadata.hpp"
#include "test_helpers.hpp"

namespace bat {
namespace {

TEST(RemapBitmapTest, IdentityWhenRangesMatch) {
    const std::pair<double, double> range{0.0, 1.0};
    for (std::uint32_t bits : {0x1u, 0x80000000u, 0x00010000u, 0xFFFFFFFFu}) {
        const std::uint32_t out = remap_bitmap(bits, range, range);
        // Conservative: every original bin remains covered.
        EXPECT_EQ(out & bits, bits);
    }
}

TEST(RemapBitmapTest, ZeroStaysZero) {
    EXPECT_EQ(remap_bitmap(0, std::pair{0.0, 1.0}, std::pair{0.0, 10.0}), 0u);
}

TEST(RemapBitmapTest, LocalSubrangeMapsIntoGlobalPrefix) {
    // Local range [0, 1] inside global [0, 4]: local bins map into the first
    // quarter of the global bins.
    const std::uint32_t out = remap_bitmap(0xFFFFFFFFu, std::pair{0.0, 1.0}, std::pair{0.0, 4.0});
    for (int b = 0; b < 8; ++b) {
        EXPECT_NE(out & (1u << b), 0u) << "bin " << b;
    }
    for (int b = 10; b < 32; ++b) {
        EXPECT_EQ(out & (1u << b), 0u) << "bin " << b;
    }
}

TEST(RemapBitmapTest, NeverLosesValues) {
    // Any value covered by a local bin must be covered by the remapped
    // global bitmap.
    const std::pair<double, double> local{2.0, 6.0};
    const std::pair<double, double> global{0.0, 10.0};
    for (int bin = 0; bin < kBitmapBins; ++bin) {
        const std::uint32_t out = remap_bitmap(1u << bin, local, global);
        const double width = (local.second - local.first) / kBitmapBins;
        for (double frac : {0.0, 0.5, 0.999}) {
            const double v = local.first + (bin + frac) * width;
            const int gbin = bitmap_bin(v, global.first, global.second);
            EXPECT_NE(out & (1u << gbin), 0u)
                << "value " << v << " lost (local bin " << bin << ")";
        }
    }
}

TEST(RemapBitmapTest, DegenerateLocalRange) {
    const std::uint32_t out = remap_bitmap(0x1u, std::pair{5.0, 5.0}, std::pair{0.0, 10.0});
    EXPECT_NE(out & (1u << bitmap_bin(5.0, 0.0, 10.0)), 0u);
}

// ---- metadata assembly -----------------------------------------------------

Aggregation two_leaf_aggregation() {
    // Build a real adaptive aggregation over 4 ranks in a row.
    std::vector<RankInfo> ranks;
    for (int i = 0; i < 4; ++i) {
        ranks.push_back(
            RankInfo{Box({float(i), 0, 0}, {float(i + 1), 1, 1}), 1000});
    }
    AggTreeConfig config;
    config.target_file_size = 200'000;
    config.bytes_per_particle = 100;
    Aggregation agg = build_agg_tree(ranks, config);
    agg.assign_aggregators(4);
    return agg;
}

std::vector<LeafReport> reports_for(const Aggregation& agg, std::size_t nattrs) {
    std::vector<LeafReport> reports;
    for (std::size_t i = 0; i < agg.leaves.size(); ++i) {
        LeafReport r;
        r.leaf_id = static_cast<int>(i);
        r.num_particles = agg.leaves[i].num_particles;
        for (std::size_t a = 0; a < nattrs; ++a) {
            // Leaf i sees values in [i, i+1].
            r.ranges.emplace_back(static_cast<double>(i), static_cast<double>(i + 1));
            r.root_bitmaps.push_back(0x0F0F0F0Fu);
        }
        reports.push_back(std::move(r));
    }
    return reports;
}

std::vector<std::string> files_for(const Aggregation& agg) {
    std::vector<std::string> files;
    for (std::size_t i = 0; i < agg.leaves.size(); ++i) {
        files.push_back("leaf_" + std::to_string(i) + ".bat");
    }
    return files;
}

TEST(MetadataTest, GlobalRangesAreUnionOfLocal) {
    const Aggregation agg = two_leaf_aggregation();
    const auto reports = reports_for(agg, 2);
    const Metadata meta =
        build_metadata(agg, {"a", "b"}, reports, files_for(agg));
    EXPECT_DOUBLE_EQ(meta.global_ranges[0].first, 0.0);
    EXPECT_DOUBLE_EQ(meta.global_ranges[0].second,
                     static_cast<double>(agg.leaves.size()));
}

TEST(MetadataTest, TotalParticlesPreserved) {
    const Aggregation agg = two_leaf_aggregation();
    const auto reports = reports_for(agg, 1);
    const Metadata meta = build_metadata(agg, {"a"}, reports, files_for(agg));
    EXPECT_EQ(meta.total_particles(), agg.total_particles());
}

TEST(MetadataTest, NodeBitmapsMergeBottomUp) {
    const Aggregation agg = two_leaf_aggregation();
    const auto reports = reports_for(agg, 1);
    const Metadata meta = build_metadata(agg, {"a"}, reports, files_for(agg));
    ASSERT_FALSE(meta.nodes.empty());
    // Root bitmap must be the OR of all leaf bitmaps.
    std::uint32_t expected = 0;
    for (const MetaLeaf& leaf : meta.leaves) {
        expected |= leaf.bitmaps[0];
    }
    EXPECT_EQ(meta.node_bitmaps[0], expected);
}

TEST(MetadataTest, SerializationRoundTrip) {
    const Aggregation agg = two_leaf_aggregation();
    const auto reports = reports_for(agg, 3);
    const Metadata meta =
        build_metadata(agg, {"x", "y", "z"}, reports, files_for(agg));
    const Metadata back = Metadata::from_bytes(meta.to_bytes());
    EXPECT_EQ(back.attr_names, meta.attr_names);
    EXPECT_EQ(back.global_ranges, meta.global_ranges);
    EXPECT_EQ(back.node_bitmaps, meta.node_bitmaps);
    ASSERT_EQ(back.leaves.size(), meta.leaves.size());
    for (std::size_t i = 0; i < meta.leaves.size(); ++i) {
        EXPECT_EQ(back.leaves[i].file, meta.leaves[i].file);
        EXPECT_EQ(back.leaves[i].num_particles, meta.leaves[i].num_particles);
        EXPECT_EQ(back.leaves[i].bitmaps, meta.leaves[i].bitmaps);
        EXPECT_EQ(back.leaves[i].local_ranges, meta.leaves[i].local_ranges);
        EXPECT_EQ(back.leaves[i].bounds, meta.leaves[i].bounds);
    }
    ASSERT_EQ(back.nodes.size(), meta.nodes.size());
    for (std::size_t i = 0; i < meta.nodes.size(); ++i) {
        EXPECT_EQ(back.nodes[i].leaf_id, meta.nodes[i].leaf_id);
        EXPECT_EQ(back.nodes[i].left, meta.nodes[i].left);
        EXPECT_EQ(back.nodes[i].right, meta.nodes[i].right);
    }
}

TEST(MetadataTest, SaveAndLoad) {
    const testing::TempDir dir;
    const Aggregation agg = two_leaf_aggregation();
    const auto reports = reports_for(agg, 1);
    const Metadata meta = build_metadata(agg, {"a"}, reports, files_for(agg));
    const auto path = dir.path() / "meta.batmeta";
    meta.save(path);
    const Metadata back = Metadata::load(path);
    EXPECT_EQ(back.total_particles(), meta.total_particles());
    EXPECT_EQ(back.leaves.size(), meta.leaves.size());
}

TEST(MetadataTest, LoadRejectsGarbage) {
    const testing::TempDir dir;
    const auto path = dir.path() / "bad.batmeta";
    const std::vector<std::byte> junk(64, std::byte{0x5A});
    write_file(path, junk);
    EXPECT_THROW(Metadata::load(path), Error);
}

/// `bytes` with the u32 at `offset` overwritten by `value`.
std::vector<std::byte> patch_u32(std::vector<std::byte> bytes, std::size_t offset,
                                 std::uint32_t value) {
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
}

TEST(MetadataTest, HugeHeaderCountsRejectedBeforeAllocating) {
    // Header: magic, version, then the attribute, node and leaf counts. A
    // count the remaining bytes cannot hold must raise bat::Error, not
    // size a container (std::bad_alloc, or gigabytes touched).
    const Aggregation agg = two_leaf_aggregation();
    const auto bytes =
        build_metadata(agg, {"a"}, reports_for(agg, 1), files_for(agg)).to_bytes();
    EXPECT_THROW(Metadata::from_bytes(patch_u32(bytes, 8, 0xFFFFFFFFu)), Error);
    EXPECT_THROW(Metadata::from_bytes(patch_u32(bytes, 12, 1u << 26)), Error);
    EXPECT_THROW(Metadata::from_bytes(patch_u32(bytes, 16, 1u << 30)), Error);
}

TEST(MetadataTest, QueryLeavesBySpace) {
    const Aggregation agg = two_leaf_aggregation();
    const auto reports = reports_for(agg, 1);
    const Metadata meta = build_metadata(agg, {"a"}, reports, files_for(agg));
    // A box overlapping only the first rank's cell.
    const Box box({0.1f, 0.1f, 0.1f}, {0.4f, 0.4f, 0.4f});
    const std::vector<int> hits = meta.query_leaves(box);
    ASSERT_FALSE(hits.empty());
    for (int leaf : hits) {
        EXPECT_TRUE(meta.leaves[static_cast<std::size_t>(leaf)].bounds.overlaps(box));
    }
    // Every overlapping leaf is reported.
    for (std::size_t i = 0; i < meta.leaves.size(); ++i) {
        if (meta.leaves[i].bounds.overlaps(box)) {
            EXPECT_NE(std::find(hits.begin(), hits.end(), static_cast<int>(i)), hits.end());
        }
    }
}

TEST(MetadataTest, QueryLeavesByAttribute) {
    const Aggregation agg = two_leaf_aggregation();
    // Leaf i covers attribute range [i, i+1] with a full local bitmap.
    std::vector<LeafReport> reports = reports_for(agg, 1);
    for (auto& r : reports) {
        r.root_bitmaps[0] = 0xFFFFFFFFu;
    }
    const Metadata meta = build_metadata(agg, {"a"}, reports, files_for(agg));
    // Filter for values near 0.5: only leaf 0 can match.
    const std::vector<AttrFilter> filters{{0, 0.4, 0.6}};
    const std::vector<int> hits = meta.query_leaves(std::nullopt, filters);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0], 0);
    // Values beyond every leaf: nothing.
    const std::vector<AttrFilter> none{
        {0, static_cast<double>(agg.leaves.size()) + 5.0,
         static_cast<double>(agg.leaves.size()) + 6.0}};
    EXPECT_TRUE(meta.query_leaves(std::nullopt, none).empty());
}

TEST(LeafReportTest, SerializationRoundTrip) {
    LeafReport r;
    r.leaf_id = 7;
    r.num_particles = 123456;
    r.ranges = {{-1.5, 2.5}, {0.0, 0.0}};
    r.root_bitmaps = {0xDEADBEEF, 0x1};
    const LeafReport back = LeafReport::from_bytes(r.to_bytes());
    EXPECT_EQ(back.leaf_id, 7);
    EXPECT_EQ(back.num_particles, 123456u);
    EXPECT_EQ(back.ranges, r.ranges);
    EXPECT_EQ(back.root_bitmaps, r.root_bitmaps);
}

TEST(LeafReportTest, HugeAttrCountRejectedBeforeAllocating) {
    LeafReport r;
    r.leaf_id = 1;
    r.num_particles = 10;
    r.ranges = {{0.0, 1.0}};
    r.root_bitmaps = {0x1};
    // The attribute count follows the leaf id (i32) and particle count (u64).
    EXPECT_THROW(LeafReport::from_bytes(patch_u32(r.to_bytes(), 12, 0xFFFFFFFFu)), Error);
}

}  // namespace
}  // namespace bat
