// Tests for the BAT on-disk format (paper §III-C3, Fig 2): serialization
// round trips, page alignment, dictionary compaction, mmap reads, and
// corruption detection.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>

#include "core/bat_file.hpp"
#include "core/bat_query.hpp"
#include "test_helpers.hpp"
#include "workloads/mixtures.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kUnit({0, 0, 0}, {1, 1, 1});

BatData make_bat(std::size_t n, std::size_t nattrs, std::uint64_t seed) {
    return build_bat(make_uniform_particles(kUnit, n, nattrs, seed), BatConfig{});
}

TEST(BatFileTest, HeaderFieldsSurvive) {
    const BatData bat = make_bat(10'000, 3, 1);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    EXPECT_EQ(file.num_particles(), 10'000u);
    EXPECT_EQ(file.num_attrs(), 3u);
    // The auto-adapted subprefix actually used is recorded in the header.
    EXPECT_EQ(file.header().subprefix_bits,
              static_cast<std::uint32_t>(bat.config.subprefix_bits));
    EXPECT_GE(file.header().subprefix_bits, 1u);
    EXPECT_LE(file.header().subprefix_bits, 12u);
    EXPECT_EQ(file.header().lod_per_inner, 8u);
    EXPECT_EQ(file.header().max_leaf_size, 128u);
    EXPECT_EQ(file.num_treelets(), bat.treelets.size());
    EXPECT_EQ(file.shallow_nodes().size(), bat.shallow_nodes.size());
    EXPECT_EQ(file.bounds(), bat.bounds);
    EXPECT_EQ(file.header().file_size, bytes.size());
}

TEST(BatFileTest, AttrTableSurvives) {
    const BatData bat = make_bat(5'000, 4, 2);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    for (std::size_t a = 0; a < 4; ++a) {
        EXPECT_EQ(file.attr_names()[a], bat.particles.attr_names()[a]);
        EXPECT_EQ(file.attr_range(a), bat.attr_ranges[a]);
    }
}

TEST(BatFileTest, TreeletsArePageAligned) {
    const BatData bat = make_bat(50'000, 2, 3);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    ASSERT_GT(file.num_treelets(), 1u);
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        const BatFile::TreeletView view = file.treelet(t);
        EXPECT_EQ(view.num_points > 0, true);
    }
    // Alignment is asserted inside treelet(); also check the directory raw.
    // (The parse would have thrown on misalignment.)
}

TEST(BatFileTest, TreeletContentsMatchBuild) {
    const BatData bat = make_bat(30'000, 2, 4);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    ASSERT_EQ(file.num_treelets(), bat.treelets.size());
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        const Treelet& built = bat.treelets[t];
        const BatFile::TreeletView view = file.treelet(t);
        ASSERT_EQ(view.nodes.size(), built.nodes.size());
        EXPECT_EQ(view.num_points, built.num_particles);
        EXPECT_EQ(view.max_depth, built.max_depth);
        EXPECT_EQ(view.first_particle, built.first_particle);
        for (std::size_t n = 0; n < view.nodes.size(); ++n) {
            EXPECT_EQ(view.nodes[n].start, built.nodes[n].start);
            EXPECT_EQ(view.nodes[n].count, built.nodes[n].count);
            EXPECT_EQ(view.nodes[n].own_count, built.nodes[n].own_count);
            EXPECT_EQ(view.nodes[n].right_child, built.nodes[n].right_child);
        }
        // Particle payloads: positions and attributes must match the
        // build's reordered arrays.
        for (std::uint32_t i = 0; i < view.num_points; ++i) {
            EXPECT_EQ(view.position(i), bat.particles.position(built.first_particle + i));
            for (std::size_t a = 0; a < 2; ++a) {
                EXPECT_EQ(view.attrs[a][i], bat.particles.attr(a)[built.first_particle + i]);
            }
        }
    }
}

TEST(BatFileTest, DictionaryResolvesToOriginalBitmaps) {
    const BatData bat = make_bat(30'000, 3, 5);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    // Dictionary entry 0 is the reserved all-ones bitmap.
    ASSERT_FALSE(file.dictionary().empty());
    EXPECT_EQ(file.dictionary()[kBitmapIdAllOnes], 0xFFFFFFFFu);
    // Shallow bitmaps resolve to the build's values.
    for (std::size_t i = 0; i < bat.shallow_nodes.size(); ++i) {
        for (std::size_t a = 0; a < 3; ++a) {
            EXPECT_EQ(file.shallow_bitmap(i, a), bat.shallow_bitmaps[i * 3 + a]);
        }
    }
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        const BatFile::TreeletView view = file.treelet(t);
        for (std::size_t n = 0; n < view.nodes.size(); ++n) {
            for (std::size_t a = 0; a < 3; ++a) {
                EXPECT_EQ(file.treelet_bitmap(view, n, a),
                          bat.treelets[t].bitmaps[n * 3 + a]);
            }
        }
    }
}

TEST(BatFileTest, DictionaryDeduplicates) {
    const BatData bat = make_bat(100'000, 2, 6);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    std::size_t total_bitmaps = bat.shallow_bitmaps.size();
    for (const Treelet& t : bat.treelets) {
        total_bitmaps += t.bitmaps.size();
    }
    EXPECT_LT(file.dictionary().size(), total_bitmaps / 2)
        << "dictionary should be much smaller than the raw bitmap count";
    // Entries are unique.
    std::set<std::uint32_t> unique(file.dictionary().begin(), file.dictionary().end());
    EXPECT_EQ(unique.size(), file.dictionary().size());
}

TEST(BatFileTest, RoundTripThroughDisk) {
    const testing::TempDir dir;
    const BatData bat = make_bat(20'000, 2, 7);
    const auto path = dir.path() / "test.bat";
    write_bat_file(path, bat);
    const BatFile file(path);  // mmap path
    EXPECT_EQ(file.num_particles(), 20'000u);
    EXPECT_EQ(file.num_treelets(), bat.treelets.size());
    const BatFile::TreeletView view = file.treelet(0);
    EXPECT_EQ(view.position(0), bat.particles.position(0));
}

TEST(BatFileTest, EmptyBat) {
    ParticleSet set(uniform_attr_names(2));
    const BatData bat = build_bat(std::move(set), BatConfig{});
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    EXPECT_EQ(file.num_particles(), 0u);
    EXPECT_EQ(file.num_treelets(), 0u);
    EXPECT_EQ(file.num_attrs(), 2u);
}

TEST(BatFileTest, BadMagicRejected) {
    const BatData bat = make_bat(100, 1, 8);
    auto bytes = serialize_bat(bat);
    bytes[0] = std::byte{0x00};
    EXPECT_THROW(BatFile{std::span<const std::byte>(bytes)}, Error);
}

TEST(BatFileTest, TruncationRejected) {
    const BatData bat = make_bat(100, 1, 9);
    const auto bytes = serialize_bat(bat);
    const std::span<const std::byte> truncated(bytes.data(), bytes.size() / 2);
    EXPECT_THROW(BatFile{truncated}, Error);
}

TEST(BatFileTest, TinyFileRejected) {
    const std::vector<std::byte> bytes(16);
    EXPECT_THROW(BatFile{std::span<const std::byte>(bytes)}, Error);
}

// Serialized BAT whose first treelet's root node is rewritten by `corrupt`
// (in a 5,000-particle BAT that root is an inner node).
std::vector<std::byte> corrupt_root_node(const std::function<void(TreeletNode&)>& corrupt) {
    auto bytes = serialize_bat(make_bat(5'000, 2, 12));
    FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    TreeletDirEntry entry;
    std::memcpy(&entry, bytes.data() + header.treelet_dir_offset, sizeof(entry));
    const std::size_t root_at = entry.offset + 16;  // past the treelet block header
    TreeletNode root;
    std::memcpy(&root, bytes.data() + root_at, sizeof(root));
    EXPECT_FALSE(root.is_leaf());
    corrupt(root);
    std::memcpy(bytes.data() + root_at, &root, sizeof(root));
    return bytes;
}

void expect_query_rejected(const std::vector<std::byte>& bytes) {
    const BatFile file{std::span<const std::byte>(bytes)};
    EXPECT_THROW(query_bat(file, BatQuery{}, [](Vec3, std::span<const double>) {}), Error);
}

TEST(BatFileTest, CorruptTreeletChildRejected) {
    // Child indices are read from the file; a query must not follow one
    // outside the treelet's node array, nor one that points backwards.
    expect_query_rejected(corrupt_root_node([](TreeletNode& n) { n.right_child = 1 << 30; }));
    expect_query_rejected(corrupt_root_node([](TreeletNode& n) { n.right_child = 0; }));
    expect_query_rejected(corrupt_root_node([](TreeletNode& n) { n.axis = 7; }));
}

TEST(BatFileTest, CorruptTreeletStartRejected) {
    // A node's point window must lie inside its treelet's point arrays.
    expect_query_rejected(corrupt_root_node([](TreeletNode& n) { n.start = 0xFFFFFFF0u; }));
    expect_query_rejected(corrupt_root_node([](TreeletNode& n) { n.own_count = 1u << 31; }));
}

TEST(BatFileTest, HeaderOffsetOverflowRejected) {
    // offset + count * sizeof(T) wraps for an offset near 2^64; the bounds
    // check must not.
    auto bytes = serialize_bat(make_bat(1'000, 1, 13));
    FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    ASSERT_GT(header.num_treelets, 0u);
    header.treelet_dir_offset = ~std::uint64_t{0} - 7;
    std::memcpy(bytes.data(), &header, sizeof(header));
    try {
        const BatFile file{std::span<const std::byte>(bytes)};
        ADD_FAILURE() << "a directory offset past the end was accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    }
}

TEST(BatFileTest, HugeAttrCountRejectedBeforeAllocating) {
    // A header attribute count the attribute table cannot hold must raise
    // bat::Error before it sizes the table.
    auto bytes = serialize_bat(make_bat(1'000, 1, 14));
    FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    header.num_attrs = 0xFFFFFFFFu;
    std::memcpy(bytes.data(), &header, sizeof(header));
    EXPECT_THROW(BatFile{std::span<const std::byte>(bytes)}, Error);
}

TEST(BatFileTest, LayoutOverheadIsSmall) {
    // Paper §VI-B: the layout requires ~0.9% additional memory. With 4 KB
    // alignment padding the overhead depends on treelet sizes; for realistic
    // sizes it must stay in the low percent range.
    const BatData bat = make_bat(200'000, 7, 10);
    const auto bytes = serialize_bat(bat);
    const BatSizeStats stats = bat_size_stats(bat, bytes.size());
    EXPECT_GT(stats.raw_particle_bytes, 0u);
    EXPECT_LT(stats.overhead_fraction(), 0.03)
        << "layout overhead " << stats.overhead_fraction() * 100 << "%";
}

TEST(BatFileTest, ClusteredDataRoundTrip) {
    const auto blobs = make_random_blobs(kUnit, 4, 20);
    ParticleSet set = make_mixture_particles(kUnit, blobs, 40'000, 3, 21);
    const auto keys = testing::particle_keys(set);
    const BatData bat = build_bat(std::move(set), BatConfig{});
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    // Reassemble all particles from the file and compare populations.
    ParticleSet reassembled(bat.particles.attr_names());
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        const BatFile::TreeletView view = file.treelet(t);
        std::vector<double> attrs(3);
        for (std::uint32_t i = 0; i < view.num_points; ++i) {
            for (std::size_t a = 0; a < 3; ++a) {
                attrs[a] = view.attrs[a][i];
            }
            reassembled.push_back(view.position(i), attrs);
        }
    }
    EXPECT_EQ(testing::particle_keys(reassembled), keys);
}

/// Every odd treelet of `bat` stored by reference into base file 0.
BatDeltaSpec odd_treelets_by_reference(const BatData& bat) {
    BatDeltaSpec spec;
    spec.base_files = {"base.bat"};
    spec.refs.resize(bat.treelets.size());
    for (std::size_t t = 1; t < bat.treelets.size(); t += 2) {
        spec.refs[t] = DeltaRef{0, static_cast<std::uint32_t>(t)};
    }
    return spec;
}

FileHeader header_of(const std::vector<std::byte>& image) {
    FileHeader header;
    std::memcpy(&header, image.data(), sizeof(header));
    return header;
}

TEST(BatFileTest, ImageIntoReusedStorageIsByteIdentical) {
    const BatData keyframe = make_bat(200'000, 3, 31);
    const BatData small = make_bat(40'000, 3, 32);
    const BatDeltaSpec spec = odd_treelets_by_reference(small);
    ASSERT_GT(small.treelets.size(), 2u);
    const std::vector<std::byte> fresh_key = serialize_bat(keyframe);
    const std::vector<std::byte> fresh_delta = serialize_bat(small, &spec);
    ASSERT_LT(fresh_delta.size(), fresh_key.size());

    // Storage full of stale non-zero bytes, large enough for both images.
    std::vector<std::byte> storage(fresh_key.size() + kTreeletAlignment, std::byte{0xAB});
    const std::byte* data = storage.data();
    serialize_bat(keyframe, nullptr, storage);
    EXPECT_TRUE(storage == fresh_key);
    EXPECT_EQ(storage.size(), header_of(storage).file_size);
    EXPECT_EQ(storage.data(), data);

    // The smaller delta image over the keyframe's bytes: padding must be
    // written as zeros, never left over from the previous image.
    serialize_bat(small, &spec, storage);
    EXPECT_TRUE(storage == fresh_delta);
    EXPECT_EQ(storage.size(), header_of(storage).file_size);
    EXPECT_EQ(storage.data(), data);

    // Storage too small for the image grows to fit it exactly.
    std::vector<std::byte> tiny(16, std::byte{0xAB});
    serialize_bat(keyframe, nullptr, tiny);
    EXPECT_TRUE(tiny == fresh_key);
    EXPECT_EQ(tiny.capacity(), fresh_key.size());
}

TEST(BatFileTest, LayoutOffsetsMatchReaderSpans) {
    testing::TempDir dir;
    const BatData bat = make_bat(60'000, 3, 33);
    write_bat_file(dir.path() / "base.bat", bat);
    const BatDeltaSpec spec = odd_treelets_by_reference(bat);
    write_file(dir.path() / "delta.bat", serialize_bat(bat, &spec));

    const BatFile file(dir.path() / "delta.bat");
    const FileHeader& header = file.header();
    const BatLayout layout = layout_bat(bat, &spec, header.dict_size);
    EXPECT_EQ(std::memcmp(&layout.header, &header, sizeof(FileHeader)), 0);
    ASSERT_EQ(layout.treelet_offsets.size(), file.num_treelets());

    const auto* start =
        reinterpret_cast<const std::byte*>(file.dictionary().data()) - header.dict_offset;
    auto at = [start](const void* p) {
        return static_cast<std::uint64_t>(static_cast<const std::byte*>(p) - start);
    };
    std::size_t inline_treelets = 0;
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        const BatFile::TreeletView view = file.treelet(t);
        if (file.treelet_is_delta(t)) {
            EXPECT_EQ(layout.treelet_offsets[t], 0u) << t;  // no payload here
            continue;
        }
        ++inline_treelets;
        const std::uint64_t block = layout.treelet_offsets[t];
        EXPECT_EQ(block % kTreeletAlignment, 0u);
        const TreeletLayout tl =
            treelet_layout(view.nodes.size(), view.num_points, file.num_attrs());
        EXPECT_EQ(at(view.nodes.data()), block + tl.nodes) << t;
        EXPECT_EQ(at(view.bitmap_ids.data()), block + tl.bitmap_ids) << t;
        EXPECT_EQ(at(view.positions.data()), block + tl.positions) << t;
        for (std::size_t a = 0; a < file.num_attrs(); ++a) {
            EXPECT_EQ(at(view.attrs[a].data()), block + tl.attrs + 8ull * a * view.num_points)
                << t;
        }
        EXPECT_LE(block + tl.end, header.file_size);
    }
    EXPECT_GT(inline_treelets, 1u);
    // The last inline block ends the file.
    const std::size_t last = (file.num_treelets() - 1) & ~std::size_t{1};
    EXPECT_EQ(layout.treelet_offsets[last] +
                  treelet_layout(bat.treelets[last].nodes.size(),
                                 bat.treelets[last].num_particles, bat.num_attrs())
                      .end,
              header.file_size);
}

}  // namespace
}  // namespace bat
