#pragma once
// BAT on-disk format and memory-mapped reader (paper §III-C3, Fig 2).
//
// Layout (little-endian):
//
//   [header]                fixed-size FileHeader
//   [attribute table]       per attr: length-prefixed name, f64 min, f64 max
//   [base file table]       only when flags & kBatFlagHasBases: u32 count,
//                           then length-prefixed file names (relative to the
//                           BAT's directory) that delta treelets reference
//   [shallow tree]          ShallowNode[num_shallow_nodes], preorder
//   [shallow bitmap IDs]    u16[num_shallow_nodes * num_attrs]
//   [bitmap dictionary]     u32[dict_size] — unique bitmaps, shared by the
//                           shallow tree and every treelet; ID 0 is reserved
//                           for the all-ones bitmap (a conservative
//                           "matches anything" fallback)
//   [treelet directory]     TreeletDirEntry[num_treelets]
//   [treelets]              each aligned to a 4 KB page boundary:
//       u32 magic, u32 num_nodes, u32 num_points, u32 reserved
//       TreeletNode[num_nodes]
//       u16 bitmap_ids[num_nodes * num_attrs]
//       (pad to 4)  f32 positions[3 * num_points]
//       (pad to 8)  f64 attr values[num_points], one array per attribute
//
// The shallow tree and dictionary sit at the start of the file because they
// are touched by every query; treelets are page-aligned for fast mmap access
// (the paper's motivation for the 4 KB alignment).
//
// v3 adds *delta treelets* for slowly-evolving time series: a directory
// entry whose `base_file >= 0` has no treelet block in this file — its
// payload is treelet `base_treelet` of the base-table file `base_file`,
// byte-identical to what a full rewrite would have stored. The series
// writer always points a reference at the file that physically holds the
// bytes (references are flattened, never chained through intermediate
// delta files), so resolution is one hop per treelet and the set of live
// base files is bounded by the keyframe interval.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/bat_builder.hpp"
#include "util/mmap_file.hpp"

namespace bat {

inline constexpr std::uint32_t kBatMagic = 0x46544142;      // "BATF"
inline constexpr std::uint32_t kTreeletMagic = 0x544c5254;  // "TRLT"
inline constexpr std::uint32_t kBatVersion = 3;  // v3 added delta treelets
/// FileHeader::flags bit: the file carries a base file table and may hold
/// directory entries that reference treelets stored in those base files.
inline constexpr std::uint32_t kBatFlagHasBases = 1u;
inline constexpr std::size_t kTreeletAlignment = 4096;
/// Dictionary ID 0 always refers to the all-ones bitmap; it doubles as the
/// overflow fallback if a file ever exceeds 65535 unique bitmaps (queries
/// stay correct, only filtering efficiency degrades).
inline constexpr std::uint16_t kBitmapIdAllOnes = 0;

struct FileHeader {
    std::uint32_t magic = kBatMagic;
    std::uint32_t version = kBatVersion;
    std::uint64_t num_particles = 0;
    std::uint64_t shallow_nodes_offset = 0;
    std::uint64_t shallow_bitmap_ids_offset = 0;
    std::uint64_t dict_offset = 0;
    std::uint64_t treelet_dir_offset = 0;
    std::uint64_t file_size = 0;
    std::uint32_t num_attrs = 0;
    std::uint32_t subprefix_bits = 0;
    std::uint32_t lod_per_inner = 0;
    std::uint32_t max_leaf_size = 0;
    std::uint32_t num_shallow_nodes = 0;
    std::uint32_t dict_size = 0;
    std::uint32_t num_treelets = 0;
    std::uint32_t flags = 0;
    float bounds[6] = {0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(FileHeader) == 112);

struct TreeletDirEntry {
    std::uint64_t offset = 0;  // absolute file offset, 4 KB aligned
    std::uint32_t num_nodes = 0;
    std::uint32_t num_points = 0;
    float bounds[6] = {0, 0, 0, 0, 0, 0};
    std::int32_t max_depth = 0;
    std::uint32_t first_particle = 0;  // offset in the file-wide point order
    /// v3 delta reference: when >= 0, this treelet's block is not stored in
    /// this file; its payload is treelet `base_treelet` of base-table file
    /// `base_file` (and `offset` is 0).
    std::int32_t base_file = -1;
    std::uint32_t base_treelet = 0;
};
static_assert(sizeof(TreeletDirEntry) == 56);

/// Reference of one treelet into a prior step's BAT file.
struct DeltaRef {
    std::int32_t base_file = -1;  // index into BatDeltaSpec::base_files
    std::uint32_t base_treelet = 0;
};

/// Instructions for an incremental serialize_bat: which treelets to write
/// by reference instead of inline. `refs` is either empty (write everything
/// inline) or one entry per treelet, with base_file == -1 marking inline
/// treelets.
struct BatDeltaSpec {
    std::vector<std::string> base_files;  // relative to the BAT's directory
    std::vector<DeltaRef> refs;
};

/// Offsets of one inline treelet block's sections, relative to the block's
/// 4 KB-aligned start. The one copy of this arithmetic: serialize_bat
/// writes by it, BatFile::treelet reads by it, and the series writer counts
/// the bytes a delta reference saves by it.
struct TreeletLayout {
    std::uint64_t nodes = 0;       // TreeletNode[num_nodes], after the 16-byte head
    std::uint64_t bitmap_ids = 0;  // u16[num_nodes * num_attrs]
    std::uint64_t positions = 0;   // f32[3 * num_points], 4-aligned
    std::uint64_t attrs = 0;       // f64[num_points] per attribute, 8-aligned
    std::uint64_t end = 0;         // one past the last attribute value
    /// Bytes the block occupies on disk with its padding to the next block.
    std::uint64_t block_bytes() const {
        return (end + kTreeletAlignment - 1) & ~std::uint64_t{kTreeletAlignment - 1};
    }
};
TreeletLayout treelet_layout(std::uint64_t num_nodes, std::uint64_t num_points,
                             std::uint64_t num_attrs);

/// Where every section of a BAT file lies, computed before any byte is
/// written: `header` holds the final section offsets and `file_size`, and
/// `treelet_offsets[t]` the absolute offset of inline treelet t's block
/// (0 for a treelet stored by reference, which takes no payload).
struct BatLayout {
    FileHeader header;
    std::vector<std::uint64_t> treelet_offsets;
};
/// `dict_size` is the entry count of the file's bitmap dictionary.
BatLayout layout_bat(const BatData& bat, const BatDeltaSpec* delta, std::uint32_t dict_size);

/// Serialize a built BAT into its on-disk byte layout, in one forward pass
/// over layout_bat's sections: `image` is cleared, reserved to exactly
/// `file_size` (keeping its storage when that is already large enough) and
/// filled, padding included, without growth or back-patching. With a delta
/// spec, referenced treelets contribute only their 56-byte directory entry.
void serialize_bat(const BatData& bat, const BatDeltaSpec* delta,
                   std::vector<std::byte>& image);

/// One-shot form: serialize into a fresh, exactly sized buffer.
std::vector<std::byte> serialize_bat(const BatData& bat,
                                     const BatDeltaSpec* delta = nullptr);

/// Convenience: serialize and write to `path`.
void write_bat_file(const std::filesystem::path& path, const BatData& bat);

/// Size statistics of a serialized BAT, for the paper's §VI-B memory
/// overhead evaluation (layout overhead ≈ 0.9% of raw data).
struct BatSizeStats {
    std::uint64_t file_bytes = 0;
    std::uint64_t raw_particle_bytes = 0;  // 12 + 8*num_attrs per particle
    std::uint64_t overhead_bytes() const {
        return file_bytes > raw_particle_bytes ? file_bytes - raw_particle_bytes : 0;
    }
    double overhead_fraction() const {
        return raw_particle_bytes > 0
                   ? static_cast<double>(overhead_bytes()) /
                         static_cast<double>(raw_particle_bytes)
                   : 0.0;
    }
};
BatSizeStats bat_size_stats(const BatData& bat, std::uint64_t file_bytes);

/// View of one treelet's nodes, bitmaps, and particle payload: spans into
/// a BatFile's bytes, whether mapped from disk or, for in-transit queries
/// before or instead of writing (paper §III-C3), the serialize_bat image.
struct BatTreeletView {
    Box bounds;
    std::uint32_t num_points = 0;
    std::int32_t max_depth = 0;
    std::uint32_t first_particle = 0;
    std::span<const TreeletNode> nodes;
    std::span<const std::uint16_t> bitmap_ids;  // dictionary IDs
    /// Dictionary the bitmap_ids index into. For a treelet resolved through
    /// a delta reference this is the *base* file's dictionary, so the view
    /// stays self-contained wherever it came from.
    std::span<const std::uint32_t> dict;
    std::span<const float> positions;  // xyz interleaved
    std::vector<std::span<const double>> attrs;

    Vec3 position(std::uint32_t i) const {
        return {positions[3 * i], positions[3 * i + 1], positions[3 * i + 2]};
    }
};

class BatFile;

/// How a BatFile opens the base files its delta treelets reference. The
/// LeafFileCache passes itself in so base files land in (and are charged
/// to) the cache under their own path keys; the default opener simply maps
/// the file recursively.
using BatFileOpener =
    std::function<std::shared_ptr<const BatFile>(const std::filesystem::path&)>;

/// Memory-mapped, zero-copy view of a BAT file. All accessors return spans
/// into the mapping; the BatFile must outlive them. Delta treelets (v3)
/// resolve transparently: `treelet()` returns a view into the base file's
/// mapping, which the BatFile keeps alive.
class BatFile {
public:
    explicit BatFile(const std::filesystem::path& path,
                     const BatFileOpener& opener = {});
    /// Parse from an in-memory buffer (used for in-transit queries and
    /// tests; the buffer must outlive the BatFile). Buffers with delta
    /// references are rejected — they have no directory to resolve
    /// base files against.
    explicit BatFile(std::span<const std::byte> bytes);

    std::uint64_t num_particles() const { return header_.num_particles; }
    std::size_t num_attrs() const { return attr_names_.size(); }
    Box bounds() const;
    const std::vector<std::string>& attr_names() const { return attr_names_; }
    std::pair<double, double> attr_range(std::size_t a) const { return attr_ranges_[a]; }
    /// Bitmap bin edges of attribute `a` (kBitmapBins + 1 values).
    const BinEdges& attr_edges(std::size_t a) const { return attr_edges_[a]; }
    const FileHeader& header() const { return header_; }

    std::span<const ShallowNode> shallow_nodes() const { return shallow_nodes_; }
    std::span<const std::uint32_t> dictionary() const { return dict_; }

    /// Bitmap of shallow node `i` for attribute `a` (dictionary resolved).
    std::uint32_t shallow_bitmap(std::size_t i, std::size_t a) const;

    using TreeletView = BatTreeletView;
    std::size_t num_treelets() const { return treelet_dir_.size(); }
    TreeletView treelet(std::size_t t) const;

    /// Bitmap of treelet node `node` for attribute `a`.
    std::uint32_t treelet_bitmap(const TreeletView& view, std::size_t node,
                                 std::size_t a) const;

    /// v3 delta introspection: base file names referenced by this file's
    /// delta treelets (empty for full/keyframe files).
    const std::vector<std::string>& base_file_names() const { return base_names_; }
    /// True when treelet `t` is stored by reference into a base file.
    bool treelet_is_delta(std::size_t t) const {
        return treelet_dir_[t].base_file >= 0;
    }

private:
    void parse(std::span<const std::byte> bytes);
    void open_bases(const std::filesystem::path& dir, const BatFileOpener& opener);

    MappedFile map_;  // empty when constructed from a buffer
    std::span<const std::byte> bytes_;
    FileHeader header_{};
    std::vector<std::string> attr_names_;
    std::vector<std::pair<double, double>> attr_ranges_;
    std::vector<BinEdges> attr_edges_;
    std::span<const ShallowNode> shallow_nodes_;
    std::span<const std::uint16_t> shallow_bitmap_ids_;
    std::span<const std::uint32_t> dict_;
    std::span<const TreeletDirEntry> treelet_dir_;
    std::vector<std::string> base_names_;
    std::vector<std::shared_ptr<const BatFile>> bases_;
};

}  // namespace bat
