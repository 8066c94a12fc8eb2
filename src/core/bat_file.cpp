#include "core/bat_file.hpp"

#include <cstring>
#include <unordered_map>

#include "util/buffer.hpp"
#include "util/check.hpp"

namespace bat {

namespace {

/// Incremental bitmap dictionary with the reserved all-ones entry at ID 0.
class BitmapDictionary {
public:
    BitmapDictionary() {
        entries_.push_back(0xFFFFFFFFu);
        ids_.emplace(0xFFFFFFFFu, kBitmapIdAllOnes);
    }

    std::uint16_t intern(std::uint32_t bitmap) {
        const auto it = ids_.find(bitmap);
        if (it != ids_.end()) {
            return it->second;
        }
        if (entries_.size() >= 65536) {
            // Paper: 16-bit IDs limit the dictionary to 65k bitmaps, "more
            // than sufficient in practice". If a pathological data set
            // overflows it we degrade to the conservative all-ones bitmap.
            return kBitmapIdAllOnes;
        }
        const auto id = static_cast<std::uint16_t>(entries_.size());
        entries_.push_back(bitmap);
        ids_.emplace(bitmap, id);
        return id;
    }

    const std::vector<std::uint32_t>& entries() const { return entries_; }

private:
    std::vector<std::uint32_t> entries_;
    std::unordered_map<std::uint32_t, std::uint16_t> ids_;
};

constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t alignment) {
    return (v + alignment - 1) & ~(alignment - 1);
}

/// Whether `delta` stores any treelet by reference; such a spec must cover
/// every treelet.
bool has_delta_refs(const BatData& bat, const BatDeltaSpec* delta) {
    if (delta == nullptr || delta->refs.empty()) {
        return false;
    }
    BAT_CHECK_MSG(delta->refs.size() == bat.treelets.size(),
                  "delta spec must cover every treelet");
    return true;
}

Box box_from(const float b[6]) {
    return Box({b[0], b[1], b[2]}, {b[3], b[4], b[5]});
}

}  // namespace

TreeletLayout treelet_layout(std::uint64_t num_nodes, std::uint64_t num_points,
                             std::uint64_t num_attrs) {
    TreeletLayout l;
    l.nodes = 16;  // u32 magic, node count, point count, reserved
    l.bitmap_ids = l.nodes + num_nodes * sizeof(TreeletNode);
    l.positions = align_up(l.bitmap_ids + num_nodes * num_attrs * sizeof(std::uint16_t), 4);
    l.attrs = align_up(l.positions + 3 * sizeof(float) * num_points, 8);
    l.end = l.attrs + sizeof(double) * num_points * num_attrs;
    return l;
}

BatLayout layout_bat(const BatData& bat, const BatDeltaSpec* delta, std::uint32_t dict_size) {
    const std::size_t nattrs = bat.num_attrs();
    const bool has_refs = has_delta_refs(bat, delta);
    BatLayout layout;
    FileHeader& header = layout.header;
    if (delta != nullptr && !delta->base_files.empty()) {
        header.flags |= kBatFlagHasBases;
    }
    header.num_particles = bat.particles.count();
    header.num_attrs = static_cast<std::uint32_t>(nattrs);
    header.subprefix_bits = static_cast<std::uint32_t>(bat.config.subprefix_bits);
    header.lod_per_inner = static_cast<std::uint32_t>(bat.config.lod_per_inner);
    header.max_leaf_size = static_cast<std::uint32_t>(bat.config.max_leaf_size);
    header.num_shallow_nodes = static_cast<std::uint32_t>(bat.shallow_nodes.size());
    header.dict_size = dict_size;
    header.num_treelets = static_cast<std::uint32_t>(bat.treelets.size());
    header.bounds[0] = bat.bounds.lower.x;
    header.bounds[1] = bat.bounds.lower.y;
    header.bounds[2] = bat.bounds.lower.z;
    header.bounds[3] = bat.bounds.upper.x;
    header.bounds[4] = bat.bounds.upper.y;
    header.bounds[5] = bat.bounds.upper.z;

    // Attribute table: length-prefixed name, range, v2 bin edges.
    std::uint64_t pos = sizeof(FileHeader);
    for (std::size_t a = 0; a < nattrs; ++a) {
        BAT_CHECK(bat.attr_edges[a].size() == kBitmapBins + 1);
        pos += 4 + bat.particles.attr_names()[a].size() + 2 * sizeof(double) +
               (kBitmapBins + 1) * sizeof(double);
    }
    if (header.flags & kBatFlagHasBases) {
        pos += 4;
        for (const std::string& name : delta->base_files) {
            pos += 4 + name.size();
        }
    }
    header.shallow_nodes_offset = align_up(pos, 8);
    header.shallow_bitmap_ids_offset =
        header.shallow_nodes_offset + bat.shallow_nodes.size() * sizeof(ShallowNode);
    header.dict_offset = align_up(
        header.shallow_bitmap_ids_offset + bat.shallow_bitmaps.size() * sizeof(std::uint16_t),
        4);
    header.treelet_dir_offset =
        align_up(header.dict_offset + std::uint64_t{dict_size} * sizeof(std::uint32_t), 8);

    pos = header.treelet_dir_offset + bat.treelets.size() * sizeof(TreeletDirEntry);
    layout.treelet_offsets.assign(bat.treelets.size(), 0);
    for (std::size_t t = 0; t < bat.treelets.size(); ++t) {
        if (has_refs && delta->refs[t].base_file >= 0) {
            continue;  // payload lives in the base file
        }
        const Treelet& tr = bat.treelets[t];
        pos = align_up(pos, kTreeletAlignment);
        layout.treelet_offsets[t] = pos;
        pos += treelet_layout(tr.nodes.size(), tr.num_particles, nattrs).end;
    }
    header.file_size = pos;
    return layout;
}

void serialize_bat(const BatData& bat, const BatDeltaSpec* delta,
                   std::vector<std::byte>& image) {
    const std::size_t nattrs = bat.num_attrs();
    const bool has_refs = has_delta_refs(bat, delta);
    auto ref_of = [&](std::size_t t) {
        return has_refs ? delta->refs[t] : DeltaRef{};
    };

    // Intern every bitmap up front (shallow tree first: it lives at the
    // start of the file and is read on every query).
    BitmapDictionary dict;
    std::vector<std::uint16_t> shallow_ids(bat.shallow_bitmaps.size());
    for (std::size_t i = 0; i < bat.shallow_bitmaps.size(); ++i) {
        shallow_ids[i] = dict.intern(bat.shallow_bitmaps[i]);
    }
    // Referenced treelets keep their bitmaps in the base file (their IDs
    // index the base's dictionary), so only inline treelets intern here.
    std::vector<std::vector<std::uint16_t>> treelet_ids(bat.treelets.size());
    for (std::size_t t = 0; t < bat.treelets.size(); ++t) {
        if (ref_of(t).base_file >= 0) {
            continue;
        }
        const Treelet& tr = bat.treelets[t];
        treelet_ids[t].resize(tr.bitmaps.size());
        for (std::size_t i = 0; i < tr.bitmaps.size(); ++i) {
            treelet_ids[t][i] = dict.intern(tr.bitmaps[i]);
        }
    }
    const BatLayout layout =
        layout_bat(bat, delta, static_cast<std::uint32_t>(dict.entries().size()));
    const FileHeader& header = layout.header;

    // One forward pass: every section lands at its layout offset, so
    // nothing is patched afterwards and the storage never grows.
    BufferWriter w(std::move(image));
    w.reserve(header.file_size);
    w.write(header);
    for (std::size_t a = 0; a < nattrs; ++a) {
        w.write_string(bat.particles.attr_names()[a]);
        w.write(bat.attr_ranges[a].first);
        w.write(bat.attr_ranges[a].second);
        // v2: bitmap bin edges (equal-width or equal-depth; §VII-A).
        w.write_span(std::span<const double>(bat.attr_edges[a]));
    }
    if (header.flags & kBatFlagHasBases) {
        w.write(static_cast<std::uint32_t>(delta->base_files.size()));
        for (const std::string& name : delta->base_files) {
            w.write_string(name);
        }
    }

    w.pad_to(header.shallow_nodes_offset);
    w.write_span(std::span<const ShallowNode>(bat.shallow_nodes));
    w.pad_to(header.shallow_bitmap_ids_offset);
    w.write_span(std::span<const std::uint16_t>(shallow_ids));
    w.pad_to(header.dict_offset);
    w.write_span(std::span<const std::uint32_t>(dict.entries()));

    w.pad_to(header.treelet_dir_offset);
    for (std::size_t t = 0; t < bat.treelets.size(); ++t) {
        const Treelet& tr = bat.treelets[t];
        TreeletDirEntry entry;
        entry.offset = layout.treelet_offsets[t];
        entry.num_nodes = static_cast<std::uint32_t>(tr.nodes.size());
        entry.num_points = tr.num_particles;
        entry.bounds[0] = tr.bounds.lower.x;
        entry.bounds[1] = tr.bounds.lower.y;
        entry.bounds[2] = tr.bounds.lower.z;
        entry.bounds[3] = tr.bounds.upper.x;
        entry.bounds[4] = tr.bounds.upper.y;
        entry.bounds[5] = tr.bounds.upper.z;
        entry.max_depth = tr.max_depth;
        entry.first_particle = tr.first_particle;
        const DeltaRef ref = ref_of(t);
        if (ref.base_file >= 0) {
            BAT_CHECK(static_cast<std::size_t>(ref.base_file) <
                      delta->base_files.size());
            entry.base_file = ref.base_file;
            entry.base_treelet = ref.base_treelet;
        }
        w.write(entry);
    }

    for (std::size_t t = 0; t < bat.treelets.size(); ++t) {
        if (ref_of(t).base_file >= 0) {
            continue;  // payload lives in the base file
        }
        const Treelet& tr = bat.treelets[t];
        const TreeletLayout tl = treelet_layout(tr.nodes.size(), tr.num_particles, nattrs);
        const std::uint64_t block = layout.treelet_offsets[t];
        w.pad_to(block);
        w.write(kTreeletMagic);
        w.write(static_cast<std::uint32_t>(tr.nodes.size()));
        w.write(tr.num_particles);
        w.write(std::uint32_t{0});
        w.pad_to(block + tl.nodes);
        w.write_span(std::span<const TreeletNode>(tr.nodes));
        w.pad_to(block + tl.bitmap_ids);
        w.write_span(std::span<const std::uint16_t>(treelet_ids[t]));
        w.pad_to(block + tl.positions);
        const std::size_t p0 = 3 * tr.first_particle;
        w.write_span(bat.particles.positions().subspan(p0, 3 * tr.num_particles));
        w.pad_to(block + tl.attrs);
        for (std::size_t a = 0; a < nattrs; ++a) {
            w.write_span(bat.particles.attr(a).subspan(tr.first_particle, tr.num_particles));
        }
    }
    BAT_CHECK_MSG(w.size() == header.file_size,
                  "BAT image is " << w.size() << " bytes, layout says " << header.file_size);
    image = w.take();
}

std::vector<std::byte> serialize_bat(const BatData& bat, const BatDeltaSpec* delta) {
    std::vector<std::byte> image;
    serialize_bat(bat, delta, image);
    return image;
}

void write_bat_file(const std::filesystem::path& path, const BatData& bat) {
    const std::vector<std::byte> bytes = serialize_bat(bat);
    write_file(path, bytes);
}

BatSizeStats bat_size_stats(const BatData& bat, std::uint64_t file_bytes) {
    BatSizeStats stats;
    stats.file_bytes = file_bytes;
    stats.raw_particle_bytes = bat.particles.count() * bat.particles.bytes_per_particle();
    return stats;
}

// ---- BatFile ---------------------------------------------------------------

namespace {

/// Guards against reference cycles between delta files (impossible for
/// writer-produced chains, which only ever point backwards in time, but a
/// corrupted or hand-crafted pair of files could otherwise recurse forever).
thread_local int g_open_depth = 0;

struct OpenDepthGuard {
    OpenDepthGuard() {
        BAT_CHECK_MSG(++g_open_depth <= 64, "BAT delta base chain too deep");
    }
    ~OpenDepthGuard() { --g_open_depth; }
};

}  // namespace

BatFile::BatFile(const std::filesystem::path& path, const BatFileOpener& opener)
    : map_(path) {
    parse(map_.bytes());
    open_bases(path.parent_path(), opener);
}

BatFile::BatFile(std::span<const std::byte> bytes) {
    parse(bytes);
    BAT_CHECK_MSG(base_names_.empty(),
                  "buffer-backed BAT cannot resolve delta base files");
}

void BatFile::open_bases(const std::filesystem::path& dir, const BatFileOpener& opener) {
    if (base_names_.empty()) {
        return;
    }
    const OpenDepthGuard guard;
    bases_.reserve(base_names_.size());
    for (const std::string& name : base_names_) {
        const std::filesystem::path base_path = dir / name;
        bases_.push_back(opener ? opener(base_path)
                                : std::make_shared<const BatFile>(base_path, opener));
        BAT_CHECK_MSG(bases_.back() != nullptr,
                      "opener returned no BAT for base file " << name);
    }
}

namespace {

/// Reinterpret a byte range of the mapping as an array of T. The offsets
/// are aligned by construction of the format; verify anyway.
template <typename T>
std::span<const T> view_array(std::span<const std::byte> bytes, std::uint64_t offset,
                              std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Offsets and counts come from the file: compare without computing
    // offset + count * sizeof(T), which a hostile header can wrap.
    BAT_CHECK_MSG(offset <= bytes.size() && count <= (bytes.size() - offset) / sizeof(T),
                  "BAT file truncated");
    const auto addr = reinterpret_cast<std::uintptr_t>(bytes.data() + offset);
    BAT_CHECK_MSG(addr % alignof(T) == 0, "misaligned BAT array");
    return {reinterpret_cast<const T*>(bytes.data() + offset), count};
}

}  // namespace

void BatFile::parse(std::span<const std::byte> bytes) {
    bytes_ = bytes;
    BAT_CHECK_MSG(bytes.size() >= sizeof(FileHeader), "file too small for a BAT header");
    std::memcpy(&header_, bytes.data(), sizeof(FileHeader));
    BAT_CHECK_MSG(header_.magic == kBatMagic, "not a BAT file (bad magic)");
    BAT_CHECK_MSG(header_.version == kBatVersion,
                  "unsupported BAT version " << header_.version);
    BAT_CHECK_MSG(header_.file_size == bytes.size(),
                  "BAT file size mismatch: header says " << header_.file_size << ", got "
                                                         << bytes.size());

    BufferReader r(bytes);
    r.seek(sizeof(FileHeader));
    // An attribute is at least a name length, a range and its bin edges.
    constexpr std::size_t kAttrMinBytes = 4 + 16 + (kBitmapBins + 1) * sizeof(double);
    BAT_CHECK_MSG(header_.num_attrs <= r.remaining() / kAttrMinBytes,
                  "BAT header lists " << header_.num_attrs << " attributes, "
                                      << r.remaining() << " bytes left");
    attr_names_.resize(header_.num_attrs);
    attr_ranges_.resize(header_.num_attrs);
    attr_edges_.resize(header_.num_attrs);
    for (std::size_t a = 0; a < header_.num_attrs; ++a) {
        attr_names_[a] = r.read_string();
        attr_ranges_[a].first = r.read<double>();
        attr_ranges_[a].second = r.read<double>();
        attr_edges_[a].resize(kBitmapBins + 1);
        r.read_into(std::span<double>(attr_edges_[a]));
    }

    if (header_.flags & kBatFlagHasBases) {
        const auto num_bases = r.read_count<std::uint32_t>(4);  // name length
        base_names_.resize(num_bases);
        for (std::size_t i = 0; i < num_bases; ++i) {
            base_names_[i] = r.read_string();
        }
    }

    shallow_nodes_ =
        view_array<ShallowNode>(bytes, header_.shallow_nodes_offset, header_.num_shallow_nodes);
    shallow_bitmap_ids_ = view_array<std::uint16_t>(
        bytes, header_.shallow_bitmap_ids_offset,
        static_cast<std::size_t>(header_.num_shallow_nodes) * header_.num_attrs);
    dict_ = view_array<std::uint32_t>(bytes, header_.dict_offset, header_.dict_size);
    treelet_dir_ =
        view_array<TreeletDirEntry>(bytes, header_.treelet_dir_offset, header_.num_treelets);
    BAT_CHECK_MSG(!dict_.empty() || header_.num_shallow_nodes == 0,
                  "BAT dictionary missing");
    for (const TreeletDirEntry& entry : treelet_dir_) {
        if (entry.base_file >= 0) {
            BAT_CHECK_MSG(static_cast<std::size_t>(entry.base_file) < base_names_.size(),
                          "delta treelet references an unlisted base file");
        }
    }
}

Box BatFile::bounds() const { return box_from(header_.bounds); }

std::uint32_t BatFile::shallow_bitmap(std::size_t i, std::size_t a) const {
    const std::uint16_t id = shallow_bitmap_ids_[i * header_.num_attrs + a];
    BAT_CHECK(id < dict_.size());
    return dict_[id];
}

BatFile::TreeletView BatFile::treelet(std::size_t t) const {
    BAT_CHECK(t < treelet_dir_.size());
    const TreeletDirEntry& entry = treelet_dir_[t];
    if (entry.base_file >= 0) {
        // Delta treelet: byte-identical payload lives in the base file. The
        // base view is complete (its spans point into the base mapping, its
        // dict is the base's dictionary); only first_particle is this
        // file's — it positions the treelet in *our* file-wide point order.
        const auto& base = bases_[static_cast<std::size_t>(entry.base_file)];
        TreeletView view = base->treelet(entry.base_treelet);
        BAT_CHECK_MSG(view.num_points == entry.num_points,
                      "delta treelet size mismatch against base file");
        view.first_particle = entry.first_particle;
        return view;
    }
    TreeletView view;
    view.bounds = box_from(entry.bounds);
    view.num_points = entry.num_points;
    view.max_depth = entry.max_depth;
    view.first_particle = entry.first_particle;

    const std::uint64_t block = entry.offset;
    BAT_CHECK_MSG(block % kTreeletAlignment == 0, "treelet not page aligned");
    BufferReader r(bytes_);
    r.seek(block);
    BAT_CHECK_MSG(r.read<std::uint32_t>() == kTreeletMagic, "bad treelet magic");
    BAT_CHECK(r.read<std::uint32_t>() == entry.num_nodes);
    BAT_CHECK(r.read<std::uint32_t>() == entry.num_points);

    const TreeletLayout tl =
        treelet_layout(entry.num_nodes, entry.num_points, header_.num_attrs);
    view.dict = dict_;
    view.nodes = view_array<TreeletNode>(bytes_, block + tl.nodes, entry.num_nodes);
    view.bitmap_ids = view_array<std::uint16_t>(
        bytes_, block + tl.bitmap_ids,
        static_cast<std::size_t>(entry.num_nodes) * header_.num_attrs);
    view.positions = view_array<float>(bytes_, block + tl.positions, 3ull * entry.num_points);
    view.attrs.reserve(header_.num_attrs);
    for (std::size_t a = 0; a < header_.num_attrs; ++a) {
        view.attrs.push_back(view_array<double>(
            bytes_, block + tl.attrs + sizeof(double) * a * entry.num_points, entry.num_points));
    }
    return view;
}

std::uint32_t BatFile::treelet_bitmap(const TreeletView& view, std::size_t node,
                                      std::size_t a) const {
    // Resolve through the view's own dictionary: a delta treelet's IDs
    // index the base file's dictionary, not ours.
    const std::uint16_t id = view.bitmap_ids[node * header_.num_attrs + a];
    BAT_CHECK(id < view.dict.size());
    return view.dict[id];
}

}  // namespace bat
