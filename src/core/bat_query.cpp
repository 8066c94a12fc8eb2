#include "core/bat_query.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "obs/query_trace.hpp"
#include "util/check.hpp"

namespace bat {

double remap_quality(double quality, int levels) {
    BAT_CHECK(levels >= 1);
    if (quality <= 0.0) {
        return 0.0;
    }
    if (quality >= 1.0) {
        return static_cast<double>(levels);
    }
    // Log remap: the number of LOD particles stored doubles each level, so a
    // linear quality slider would jump abruptly between coarse levels.
    return std::log2(1.0 + quality * (std::exp2(static_cast<double>(levels)) - 1.0));
}

std::uint32_t points_at_depth(double t, int depth, std::uint32_t own_count) {
    const auto d = static_cast<double>(depth);
    if (t <= d) {
        return 0;
    }
    if (t >= d + 1.0) {
        return own_count;
    }
    const double frac = t - d;
    return static_cast<std::uint32_t>(std::lround(frac * static_cast<double>(own_count)));
}

/// The k-d/bitmap traversal of one query; every window it selects is
/// appended to `plan`.
struct QueryPlan::Traversal {
    const BatFile& file;
    const BatQuery& query;
    QueryPlan& plan;
    QueryStats& stats;
    /// Per-attribute query bitmaps (relative to the file's local attribute
    /// ranges); empty when no attribute filters are present.
    std::vector<std::uint32_t> query_bitmaps;  // parallel to query.attr_filters

    // Explicit traversal stacks (reused across treelets). Recursion depth
    // scales with tree height, and the serve path now runs queries on pool
    // worker threads whose stacks we do not control.
    struct TreeletFrame {
        std::uint32_t node = 0;
        std::int32_t depth = 0;
        Box region;
        bool contained = false;  // region entirely inside the query box
    };
    std::vector<TreeletFrame> treelet_stack;
    struct ShallowFrame {
        std::uint32_t node = 0;
        bool contained = false;
    };
    std::vector<ShallowFrame> shallow_stack;

    bool box_overlaps(const Box& region) const {
        return !query.box || query.box->overlaps(region);
    }

    /// True when every point inside `region` passes the box test, so the
    /// test can be skipped for the whole subtree. Conservative for the
    /// half-open case: the region's upper face must be strictly inside.
    bool box_covers(const Box& region) const {
        if (!query.box) {
            return true;
        }
        const Box& b = *query.box;
        if (b.lower.x > region.lower.x || b.lower.y > region.lower.y ||
            b.lower.z > region.lower.z) {
            return false;
        }
        if (query.inclusive_upper) {
            return region.upper.x <= b.upper.x && region.upper.y <= b.upper.y &&
                   region.upper.z <= b.upper.z;
        }
        return region.upper.x < b.upper.x && region.upper.y < b.upper.y &&
               region.upper.z < b.upper.z;
    }

    /// Conservative bitmap test: can this node's subtree contain matches?
    template <typename F>
    bool bitmaps_may_match(F&& node_bitmap) const {
        for (std::size_t f = 0; f < query.attr_filters.size(); ++f) {
            const std::uint32_t node_bits =
                node_bitmap(static_cast<std::size_t>(query.attr_filters[f].attr));
            if ((node_bits & query_bitmaps[f]) == 0) {
                return false;
            }
        }
        return true;
    }

    /// Bit j is set when point j of the n <= 64 interleaved positions at
    /// `xyz` lies in `b` (upper faces inclusive or half-open).
    template <bool Inclusive>
    static std::uint64_t box_mask(const Box& b, const float* xyz, std::uint32_t n) {
        const auto below = [](float v, float hi) { return Inclusive ? v <= hi : v < hi; };
        std::uint64_t mask = 0;
        for (std::uint32_t j = 0; j < n; ++j) {
            const float* p = xyz + 3 * std::size_t{j};
            const bool in = (p[0] >= b.lower.x) & below(p[0], b.upper.x) &
                            (p[1] >= b.lower.y) & below(p[1], b.upper.y) &
                            (p[2] >= b.lower.z) & below(p[2], b.upper.z);
            mask |= std::uint64_t{in} << j;
        }
        return mask;
    }

    /// Bit j is set when values[j] passes the filter. Written as
    /// !(v < lo) & !(v > hi) so a NaN passes, as the per-point check did.
    static std::uint64_t filter_mask(const double* values, std::uint32_t n,
                                     const AttrFilter& f) {
        std::uint64_t mask = 0;
        for (std::uint32_t j = 0; j < n; ++j) {
            const bool in = !(values[j] < f.lo) & !(values[j] > f.hi);
            mask |= std::uint64_t{in} << j;
        }
        return mask;
    }

    /// Exact check of the window [begin, end) (removes bitmap false
    /// positives), one 64-bit selection mask per 64-point block; the
    /// passing rows join the plan in ascending order. `skip_box` elides the
    /// containment test when the node's region is inside the query box.
    void select_window(const BatTreeletView& view, std::uint32_t begin, std::uint32_t end,
                       bool skip_box) {
        stats.points_tested += end - begin;
        std::vector<std::uint32_t>& rows = plan.rows_;
        const std::size_t first = rows.size();
        const bool test_box = !skip_box && query.box.has_value();
        for (std::uint32_t block = begin; block < end; block += 64) {
            const std::uint32_t n = std::min<std::uint32_t>(64, end - block);
            std::uint64_t mask = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
            if (test_box) {
                const float* xyz = view.positions.data() + 3 * std::size_t{block};
                mask &= query.inclusive_upper ? box_mask<true>(*query.box, xyz, n)
                                              : box_mask<false>(*query.box, xyz, n);
            }
            for (const AttrFilter& f : query.attr_filters) {
                if (mask == 0) {
                    break;
                }
                mask &= filter_mask(view.attrs[f.attr].data() + block, n, f);
            }
            for (; mask != 0; mask &= mask - 1) {
                rows.push_back(block + static_cast<std::uint32_t>(std::countr_zero(mask)));
            }
        }
        if (rows.size() == first) {
            return;
        }
        stats.points_emitted += rows.size() - first;
        // The selection is ascending: its last row bounds every row.
        plan.add_window(view, std::size_t{rows.back()} + 1, first, rows.size(), true);
    }

    /// Fully-matching contiguous window [begin, end): one range, no tests.
    void emit_range(const BatTreeletView& view, std::uint32_t begin, std::uint32_t end) {
        stats.points_emitted += end - begin;
        stats.points_fast_path += end - begin;
        obs::query_note_fastpath_window();
        plan.add_window(view, end, begin, end, false);
    }

    void traverse_treelet(std::size_t treelet_index, bool contained_hint) {
        const BatTreeletView view = file.treelet(treelet_index);
        if (view.nodes.empty()) {
            return;
        }
        const int levels = view.max_depth + 1;
        const double t_lo = remap_quality(query.quality_lo, levels);
        const double t_hi = remap_quality(query.quality_hi, levels);
        if (t_hi <= 0.0) {
            return;
        }
        const bool filtered = !query.attr_filters.empty();
        treelet_stack.clear();
        treelet_stack.push_back(
            {0, 0, view.bounds, contained_hint || box_covers(view.bounds)});
        while (!treelet_stack.empty()) {
            const TreeletFrame frame = treelet_stack.back();
            treelet_stack.pop_back();
            const TreeletNode& node = view.nodes[frame.node];
            ++stats.treelet_nodes_visited;
            // Node fields come from the file: everything the window kernel
            // and the descent dereference must stay inside this treelet.
            BAT_CHECK_MSG(node.own_count <= view.num_points &&
                              node.start <= view.num_points - node.own_count,
                          "treelet node points past its treelet");
            if (!node.is_leaf()) {
                BAT_CHECK_MSG(node.axis < 3, "treelet node split axis out of range");
                BAT_CHECK_MSG(frame.node + 1 < view.nodes.size() &&
                                  static_cast<std::uint32_t>(node.right_child) > frame.node &&
                                  static_cast<std::size_t>(node.right_child) <
                                      view.nodes.size(),
                              "treelet node child index out of range");
            }
            if (!frame.contained && !box_overlaps(frame.region)) {
                ++stats.pruned_by_box;
                continue;
            }
            if (filtered) {
                const auto bitmap = [this, &view, &frame](std::size_t a) {
                    return file.treelet_bitmap(view, frame.node, a);
                };
                if (!bitmaps_may_match(bitmap)) {
                    ++stats.pruned_by_bitmap;
                    continue;
                }
            }
            // Progressive window over the node's own points.
            const std::uint32_t n_lo = points_at_depth(t_lo, frame.depth, node.own_count);
            const std::uint32_t n_hi = points_at_depth(t_hi, frame.depth, node.own_count);
            if (n_hi > n_lo) {
                if (frame.contained && !filtered) {
                    emit_range(view, node.start + n_lo, node.start + n_hi);
                } else {
                    select_window(view, node.start + n_lo, node.start + n_hi, frame.contained);
                }
            }
            if (node.is_leaf()) {
                continue;
            }
            // Children hold points only at depth+1 and below; skip the
            // descent when the quality window cannot include them.
            if (t_hi <= static_cast<double>(frame.depth) + 1.0) {
                continue;
            }
            Box left = frame.region;
            Box right = frame.region;
            left.upper[node.axis] = node.split;
            right.lower[node.axis] = node.split;
            // Right pushed first so the left child pops next — emission
            // order stays exactly the old recursive pre-order.
            treelet_stack.push_back({static_cast<std::uint32_t>(node.right_child),
                                     frame.depth + 1, right,
                                     frame.contained || box_covers(right)});
            treelet_stack.push_back({frame.node + 1, frame.depth + 1, left,
                                     frame.contained || box_covers(left)});
        }
    }

    void traverse_shallow() {
        const bool filtered = !query.attr_filters.empty();
        shallow_stack.clear();
        shallow_stack.push_back({0, false});
        while (!shallow_stack.empty()) {
            const ShallowFrame frame = shallow_stack.back();
            shallow_stack.pop_back();
            const ShallowNode& node = file.shallow_nodes()[frame.node];
            ++stats.shallow_nodes_visited;
            if (node.is_leaf()) {
                BAT_CHECK_MSG(node.treelet >= 0 &&
                                  static_cast<std::size_t>(node.treelet) < file.num_treelets(),
                              "shallow leaf treelet index out of range");
            } else {
                BAT_CHECK_MSG(frame.node + 1 < file.shallow_nodes().size() &&
                                  static_cast<std::uint32_t>(node.right_child) > frame.node &&
                                  static_cast<std::size_t>(node.right_child) <
                                      file.shallow_nodes().size(),
                              "shallow node child index out of range");
            }
            bool contained = frame.contained;
            if (!contained) {
                if (!box_overlaps(node.bounds)) {
                    ++stats.pruned_by_box;
                    continue;
                }
                contained = box_covers(node.bounds);
            }
            if (filtered) {
                const auto bitmap = [this, &frame](std::size_t a) {
                    return file.shallow_bitmap(frame.node, a);
                };
                if (!bitmaps_may_match(bitmap)) {
                    ++stats.pruned_by_bitmap;
                    continue;
                }
            }
            if (node.is_leaf()) {
                traverse_treelet(static_cast<std::size_t>(node.treelet), contained);
                continue;
            }
            shallow_stack.push_back(
                {static_cast<std::uint32_t>(node.right_child), contained});
            shallow_stack.push_back({frame.node + 1, contained});
        }
    }
};

void QueryPlan::add_window(const BatTreeletView& view, std::size_t rows, std::size_t begin,
                           std::size_t end, bool gather) {
    BAT_CHECK_MSG(view.attrs.size() == num_attrs_ && 3 * rows <= view.positions.size(),
                  "query window past its treelet's positions");
    for (const std::span<const double> column : view.attrs) {
        BAT_CHECK_MSG(rows <= column.size(), "query window past an attribute column");
    }
    count_ += end - begin;
    // A treelet's windows arrive back to back: its columns are kept once.
    if (windows_.empty() || windows_.back().xyz != view.positions.data()) {
        windows_.push_back({view.positions.data(), columns_.size(), begin, end, gather});
        for (const std::span<const double> column : view.attrs) {
            columns_.push_back(column.data());
        }
        return;
    }
    // A window that continues the last one of its kind extends it: index
    // lists are appended back to back, and a contained subtree's windows
    // tile its rows in preorder.
    Window& last = windows_.back();
    if (last.gather == gather && last.end == begin) {
        last.end = end;
        return;
    }
    windows_.push_back({last.xyz, last.columns, begin, end, gather});
}

std::vector<std::byte> QueryPlan::wire_header(std::span<const std::string> attr_names) const {
    BufferWriter w;
    ParticleSet::serialize_header(w, count_, attr_names);
    return w.take();
}

std::size_t QueryPlan::wire_size(std::span<const std::string> attr_names) const {
    return wire_header(attr_names).size() +
           count_ * (3 * sizeof(float) + attr_names.size() * sizeof(double));
}

void QueryPlan::write_wire(std::span<std::byte> dst,
                           std::span<const std::string> attr_names) const {
    BAT_CHECK_MSG(dst.size() == wire_size(attr_names) && attr_names.size() == num_attrs_,
                  "leaf part buffer does not fit its plan");
    const std::vector<std::byte> header = wire_header(attr_names);
    std::memcpy(dst.data(), header.data(), header.size());
    std::byte* const xyz = dst.data() + header.size();
    std::vector<std::byte*> attrs(num_attrs_);
    for (std::size_t a = 0; a < num_attrs_; ++a) {
        attrs[a] = xyz + (3 * sizeof(float) + a * sizeof(double)) * count_;
    }
    write_columns(xyz, attrs);
}

void QueryPlan::write_into(ParticleSet& out, std::size_t at) const {
    BAT_CHECK_MSG(out.num_attrs() == num_attrs_ && at + count_ <= out.count(),
                  "query plan past the end of the set");
    std::vector<std::byte*> attrs(num_attrs_);
    for (std::size_t a = 0; a < num_attrs_; ++a) {
        attrs[a] = reinterpret_cast<std::byte*>(out.attr_mut(a).data() + at);
    }
    write_columns(reinterpret_cast<std::byte*>(out.positions_mut().data() + 3 * at), attrs);
}

void QueryPlan::write_columns(std::byte* xyz, std::span<std::byte* const> attrs) const {
    constexpr std::size_t kPoint = 3 * sizeof(float);
    // Column by column: one destination stream at a time. memcpy keeps the
    // wire payload's unaligned columns well-defined.
    for (const Window& w : windows_) {
        if (!w.gather) {
            std::memcpy(xyz, w.xyz + 3 * w.begin, kPoint * (w.end - w.begin));
            xyz += kPoint * (w.end - w.begin);
            continue;
        }
        for (std::size_t k = w.begin; k < w.end; ++k, xyz += kPoint) {
            std::memcpy(xyz, w.xyz + 3 * std::size_t{rows_[k]}, kPoint);
        }
    }
    for (std::size_t a = 0; a < attrs.size(); ++a) {
        std::byte* dst = attrs[a];
        for (const Window& w : windows_) {
            const double* src = columns_[w.columns + a];
            if (!w.gather) {
                std::memcpy(dst, src + w.begin, sizeof(double) * (w.end - w.begin));
                dst += sizeof(double) * (w.end - w.begin);
                continue;
            }
            for (std::size_t k = w.begin; k < w.end; ++k, dst += sizeof(double)) {
                std::memcpy(dst, src + rows_[k], sizeof(double));
            }
        }
    }
}

void QueryPlan::for_each(const QueryCallback& cb) const {
    std::vector<double> attrs(num_attrs_);
    for (const Window& w : windows_) {
        const double* const* columns = columns_.data() + w.columns;
        const auto emit = [&](std::size_t i) {
            for (std::size_t a = 0; a < attrs.size(); ++a) {
                attrs[a] = columns[a][i];
            }
            const float* p = w.xyz + 3 * i;
            cb(Vec3{p[0], p[1], p[2]}, attrs);
        };
        for (std::size_t k = w.begin; k < w.end; ++k) {
            emit(w.gather ? std::size_t{rows_[k]} : k);
        }
    }
}

QueryPlan plan_bat(const BatFile& file, const BatQuery& query, QueryStats* stats) {
    BAT_CHECK_MSG(query.quality_lo <= query.quality_hi,
                  "quality_lo must not exceed quality_hi");
    for (const AttrFilter& f : query.attr_filters) {
        BAT_CHECK_MSG(f.attr < file.num_attrs(), "attribute filter index out of range");
        BAT_CHECK_MSG(f.lo <= f.hi, "attribute filter range inverted");
    }
    QueryStats local_stats;
    QueryStats& st = stats != nullptr ? *stats : local_stats;
    QueryPlan plan;
    plan.num_attrs_ = file.num_attrs();
    QueryPlan::Traversal walk{file, query, plan, st, {}, {}, {}};
    walk.query_bitmaps.reserve(query.attr_filters.size());
    for (const AttrFilter& f : query.attr_filters) {
        const std::uint32_t bits =
            bitmap_for_range(f.lo, f.hi, file.attr_edges(f.attr));
        if (bits == 0) {
            // The filter cannot match anything in this file.
            return plan;
        }
        walk.query_bitmaps.push_back(bits);
    }
    if (!file.shallow_nodes().empty()) {
        walk.traverse_shallow();
    }
    return plan;
}

std::uint64_t query_bat(const BatFile& file, const BatQuery& query, const QueryCallback& cb,
                        QueryStats* stats) {
    const QueryPlan plan = plan_bat(file, query, stats);
    plan.for_each(cb);
    return plan.count();
}

}  // namespace bat
