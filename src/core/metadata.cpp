#include "core/metadata.hpp"

#include <algorithm>

#include "core/bat_builder.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"
#include "util/mmap_file.hpp"

namespace bat {

namespace {

constexpr std::uint32_t kMetaMagic = 0x4d544142;  // "BATM"
constexpr std::uint32_t kMetaVersion = 2;  // v2 added per-leaf delta_bases

void write_box(BufferWriter& w, const Box& b) {
    w.write(b.lower.x);
    w.write(b.lower.y);
    w.write(b.lower.z);
    w.write(b.upper.x);
    w.write(b.upper.y);
    w.write(b.upper.z);
}

Box read_box(BufferReader& r) {
    Box b;
    b.lower.x = r.read<float>();
    b.lower.y = r.read<float>();
    b.lower.z = r.read<float>();
    b.upper.x = r.read<float>();
    b.upper.y = r.read<float>();
    b.upper.z = r.read<float>();
    return b;
}

}  // namespace

std::vector<std::byte> LeafReport::to_bytes() const {
    BAT_CHECK(edges.empty() || edges.size() == ranges.size());
    BufferWriter w;
    w.write(static_cast<std::int32_t>(leaf_id));
    w.write(num_particles);
    w.write(static_cast<std::uint32_t>(ranges.size()));
    w.write(static_cast<std::uint8_t>(!edges.empty()));
    for (std::size_t a = 0; a < ranges.size(); ++a) {
        w.write(ranges[a].first);
        w.write(ranges[a].second);
        w.write(root_bitmaps[a]);
        if (!edges.empty()) {
            BAT_CHECK(edges[a].size() == kBitmapBins + 1);
            w.write_span(std::span<const double>(edges[a]));
        }
    }
    w.write_string(file_override);
    w.write(static_cast<std::uint32_t>(delta_bases.size()));
    for (const std::string& base : delta_bases) {
        w.write_string(base);
    }
    return w.take();
}

LeafReport LeafReport::from_bytes(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    LeafReport report;
    report.leaf_id = r.read<std::int32_t>();
    report.num_particles = r.read<std::uint64_t>();
    const auto nattrs = r.read_count<std::uint32_t>(20);  // range + bitmap
    const bool has_edges = r.read<std::uint8_t>() != 0;
    report.ranges.resize(nattrs);
    report.root_bitmaps.resize(nattrs);
    if (has_edges) {
        report.edges.resize(nattrs);
    }
    for (std::size_t a = 0; a < nattrs; ++a) {
        report.ranges[a].first = r.read<double>();
        report.ranges[a].second = r.read<double>();
        report.root_bitmaps[a] = r.read<std::uint32_t>();
        if (has_edges) {
            report.edges[a].resize(kBitmapBins + 1);
            r.read_into(std::span<double>(report.edges[a]));
        }
    }
    report.file_override = r.read_string();
    const auto nbases = r.read_count<std::uint32_t>(4);  // string length
    report.delta_bases.resize(nbases);
    for (std::size_t i = 0; i < nbases; ++i) {
        report.delta_bases[i] = r.read_string();
    }
    return report;
}

BinEdges LeafReport::edges_for(std::size_t a) const {
    if (a < edges.size()) {
        return edges[a];
    }
    return equal_width_edges(ranges[a].first, ranges[a].second);
}

std::uint32_t remap_bitmap(std::uint32_t local_bits, std::pair<double, double> local_range,
                           std::pair<double, double> global_range) {
    if (local_bits == 0) {
        return 0;
    }
    const auto [llo, lhi] = local_range;
    if (lhi <= llo) {
        // Degenerate local range: all local values equal llo.
        return bitmap_for_range(llo, llo, global_range.first, global_range.second);
    }
    const double width = (lhi - llo) / kBitmapBins;
    std::uint32_t out = 0;
    for (int b = 0; b < kBitmapBins; ++b) {
        if ((local_bits & (1u << b)) == 0) {
            continue;
        }
        const double bin_lo = llo + b * width;
        const double bin_hi = llo + (b + 1) * width;
        out |= bitmap_for_range(bin_lo, bin_hi, global_range.first, global_range.second);
    }
    return out;
}

std::uint32_t remap_bitmap(std::uint32_t local_bits, const BinEdges& local_edges,
                           std::pair<double, double> global_range) {
    if (local_bits == 0) {
        return 0;
    }
    BAT_CHECK(local_edges.size() == kBitmapBins + 1);
    std::uint32_t out = 0;
    for (int b = 0; b < kBitmapBins; ++b) {
        if ((local_bits & (1u << b)) == 0) {
            continue;
        }
        out |= bitmap_for_range(local_edges[static_cast<std::size_t>(b)],
                                local_edges[static_cast<std::size_t>(b + 1)],
                                global_range.first, global_range.second);
    }
    return out;
}

std::uint64_t Metadata::total_particles() const {
    std::uint64_t n = 0;
    for (const MetaLeaf& leaf : leaves) {
        n += leaf.num_particles;
    }
    return n;
}

std::vector<int> Metadata::query_leaves(const std::optional<Box>& box,
                                        std::span<const AttrFilter> filters) const {
    // Precompute query bitmaps relative to the global ranges.
    std::vector<std::uint32_t> query_bits;
    query_bits.reserve(filters.size());
    for (const AttrFilter& f : filters) {
        BAT_CHECK(f.attr < num_attrs());
        query_bits.push_back(bitmap_for_range(f.lo, f.hi, global_ranges[f.attr].first,
                                              global_ranges[f.attr].second));
    }
    std::vector<int> out;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        const MetaLeaf& leaf = leaves[i];
        if (box && !leaf.bounds.overlaps(*box)) {
            continue;
        }
        bool match = true;
        for (std::size_t f = 0; f < filters.size(); ++f) {
            if ((leaf.bitmaps[filters[f].attr] & query_bits[f]) == 0) {
                match = false;
                break;
            }
        }
        if (match) {
            out.push_back(static_cast<int>(i));
        }
    }
    return out;
}

std::vector<std::byte> Metadata::to_bytes() const {
    const std::size_t nattrs = num_attrs();
    BufferWriter w;
    w.write(kMetaMagic);
    w.write(kMetaVersion);
    w.write(static_cast<std::uint32_t>(nattrs));
    w.write(static_cast<std::uint32_t>(nodes.size()));
    w.write(static_cast<std::uint32_t>(leaves.size()));
    for (std::size_t a = 0; a < nattrs; ++a) {
        w.write_string(attr_names[a]);
        w.write(global_ranges[a].first);
        w.write(global_ranges[a].second);
    }
    for (const AggNode& node : nodes) {
        write_box(w, node.bounds);
        w.write(static_cast<std::int32_t>(node.axis));
        w.write(node.split);
        w.write(static_cast<std::int32_t>(node.left));
        w.write(static_cast<std::int32_t>(node.right));
        w.write(static_cast<std::int32_t>(node.leaf_id));
    }
    for (const MetaLeaf& leaf : leaves) {
        write_box(w, leaf.bounds);
        w.write_string(leaf.file);
        w.write(leaf.num_particles);
        for (std::size_t a = 0; a < nattrs; ++a) {
            w.write(leaf.local_ranges[a].first);
            w.write(leaf.local_ranges[a].second);
            w.write(leaf.bitmaps[a]);
        }
        w.write(static_cast<std::uint32_t>(leaf.delta_bases.size()));
        for (const std::string& base : leaf.delta_bases) {
            w.write_string(base);
        }
    }
    w.write_span(std::span<const std::uint32_t>(node_bitmaps));
    return w.take();
}

Metadata Metadata::from_bytes(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    BAT_CHECK_MSG(r.read<std::uint32_t>() == kMetaMagic, "not a BAT metadata file");
    BAT_CHECK_MSG(r.read<std::uint32_t>() == kMetaVersion,
                  "unsupported metadata version");
    Metadata meta;
    // Minimum encoded sizes: an attribute is a name length + range, a node
    // a box + five 4-byte fields, a leaf a box, file name length, count and
    // base count.
    const auto nattrs = r.read_count<std::uint32_t>(20);
    const auto nnodes = r.read_count<std::uint32_t>(44);
    const auto nleaves = r.read_count<std::uint32_t>(40);
    meta.attr_names.resize(nattrs);
    meta.global_ranges.resize(nattrs);
    for (std::size_t a = 0; a < nattrs; ++a) {
        meta.attr_names[a] = r.read_string();
        meta.global_ranges[a].first = r.read<double>();
        meta.global_ranges[a].second = r.read<double>();
    }
    meta.nodes.resize(nnodes);
    for (AggNode& node : meta.nodes) {
        node.bounds = read_box(r);
        node.axis = r.read<std::int32_t>();
        node.split = r.read<float>();
        node.left = r.read<std::int32_t>();
        node.right = r.read<std::int32_t>();
        node.leaf_id = r.read<std::int32_t>();
    }
    meta.leaves.resize(nleaves);
    for (MetaLeaf& leaf : meta.leaves) {
        leaf.bounds = read_box(r);
        leaf.file = r.read_string();
        leaf.num_particles = r.read<std::uint64_t>();
        leaf.local_ranges.resize(nattrs);
        leaf.bitmaps.resize(nattrs);
        for (std::size_t a = 0; a < nattrs; ++a) {
            leaf.local_ranges[a].first = r.read<double>();
            leaf.local_ranges[a].second = r.read<double>();
            leaf.bitmaps[a] = r.read<std::uint32_t>();
        }
        const auto nbases = r.read_count<std::uint32_t>(4);
        leaf.delta_bases.resize(nbases);
        for (std::size_t i = 0; i < nbases; ++i) {
            leaf.delta_bases[i] = r.read_string();
        }
    }
    BAT_CHECK_MSG(static_cast<std::uint64_t>(nnodes) * nattrs <=
                      r.remaining() / sizeof(std::uint32_t),
                  "node bitmaps exceed the " << r.remaining() << " bytes left");
    meta.node_bitmaps.resize(nnodes * nattrs);
    r.read_into(std::span<std::uint32_t>(meta.node_bitmaps));
    return meta;
}

void Metadata::save(const std::filesystem::path& path) const {
    write_file(path, to_bytes());
}

Metadata Metadata::load(const std::filesystem::path& path) {
    return from_bytes(read_file(path));
}

Metadata build_metadata(const Aggregation& agg, std::vector<std::string> attr_names,
                        std::span<const LeafReport> reports,
                        std::span<const std::string> leaf_files) {
    BAT_CHECK(reports.size() == agg.leaves.size());
    BAT_CHECK(leaf_files.size() == agg.leaves.size());
    Metadata meta;
    meta.attr_names = std::move(attr_names);
    const std::size_t nattrs = meta.attr_names.size();
    meta.nodes = agg.nodes;

    // Global attribute ranges: union of the aggregator-local ranges.
    meta.global_ranges.assign(nattrs, {0.0, 0.0});
    bool first = true;
    for (const LeafReport& report : reports) {
        BAT_CHECK(report.ranges.size() == nattrs);
        if (report.num_particles == 0) {
            continue;
        }
        for (std::size_t a = 0; a < nattrs; ++a) {
            if (first) {
                meta.global_ranges[a] = report.ranges[a];
            } else {
                meta.global_ranges[a].first =
                    std::min(meta.global_ranges[a].first, report.ranges[a].first);
                meta.global_ranges[a].second =
                    std::max(meta.global_ranges[a].second, report.ranges[a].second);
            }
        }
        first = false;
    }

    // Populate the leaves; each aggregator's bitmaps are remapped from its
    // local range onto the global range (§III-D).
    meta.leaves.resize(agg.leaves.size());
    for (const LeafReport& report : reports) {
        BAT_CHECK(report.leaf_id >= 0 &&
                  static_cast<std::size_t>(report.leaf_id) < agg.leaves.size());
        MetaLeaf& leaf = meta.leaves[static_cast<std::size_t>(report.leaf_id)];
        leaf.bounds = agg.leaves[static_cast<std::size_t>(report.leaf_id)].bounds;
        // Incremental steps that skipped the leaf entirely point the
        // metadata at the prior step's file (the .batmeta back-reference).
        leaf.file = !report.file_override.empty()
                        ? report.file_override
                        : leaf_files[static_cast<std::size_t>(report.leaf_id)];
        leaf.delta_bases = report.delta_bases;
        leaf.num_particles = report.num_particles;
        leaf.local_ranges = report.ranges;
        leaf.bitmaps.resize(nattrs);
        for (std::size_t a = 0; a < nattrs; ++a) {
            leaf.bitmaps[a] = remap_bitmap(report.root_bitmaps[a], report.edges_for(a),
                                           meta.global_ranges[a]);
        }
    }

    // Inner-node bitmaps merged bottom-up. Nodes are preorder (children
    // have larger indices), so a reverse sweep sees children first.
    meta.node_bitmaps.assign(meta.nodes.size() * nattrs, 0);
    for (std::size_t i = meta.nodes.size(); i-- > 0;) {
        const AggNode& node = meta.nodes[i];
        std::uint32_t* bm = meta.node_bitmaps.data() + i * nattrs;
        if (node.is_leaf()) {
            const MetaLeaf& leaf = meta.leaves[static_cast<std::size_t>(node.leaf_id)];
            for (std::size_t a = 0; a < nattrs; ++a) {
                bm[a] = leaf.bitmaps[a];
            }
        } else if (node.left >= 0) {
            const auto l = static_cast<std::size_t>(node.left);
            const auto r = static_cast<std::size_t>(node.right);
            for (std::size_t a = 0; a < nattrs; ++a) {
                bm[a] = meta.node_bitmaps[l * nattrs + a] | meta.node_bitmaps[r * nattrs + a];
            }
        }
        // Dead nodes (pruned empty leaves) keep zero bitmaps.
    }
    return meta;
}

}  // namespace bat
