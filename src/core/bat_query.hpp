#pragma once
// Visualization reads on the BAT layout (paper §V).
//
// A query takes a desired quality level, an optional bounding box, and a
// set of attribute range filters, and invokes a callback for every matching
// point. Spatial pruning uses the k-d hierarchy (exact); attribute pruning
// tests the query's 32-bit bitmap against each node's bitmap (conservative:
// bitwise AND == 0 proves the subtree holds no matches, so subtrees are
// never wrongly skipped), with a final exact per-point check to discard
// false positives (§V-A). That check runs over a node's whole progressive
// window at once: one branch-free 64-bit selection mask per 64-point block
// (box test on the f32 positions, then each attribute range on the f64
// columns), whose passing indices leave in ascending order — in one call
// through QuerySink::gather, or one QuerySink::point call each.
//
// Progressive multiresolution reads (§V-B): the quality parameter in [0, 1]
// is remapped on a log scale (LOD particle counts double per level) and
// scaled to a maximum treelet depth; a fractional part selects a percentage
// of the deepest level's points for smooth transitions. Passing the
// previously requested quality as `quality_lo` processes only the new
// points for the increment.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/bat_file.hpp"

namespace bat {

struct AttrFilter {
    std::uint32_t attr = 0;
    double lo = 0.0;
    double hi = 0.0;
};

struct BatQuery {
    /// Spatial filter; nullopt = whole domain.
    std::optional<Box> box;
    /// Conjunction of attribute range filters.
    std::vector<AttrFilter> attr_filters;
    /// Progressive window: points belonging to qualities in
    /// (quality_lo, quality_hi] are returned. Initial reads use
    /// quality_lo = 0; quality_hi = 1 returns the full resolution.
    float quality_lo = 0.f;
    float quality_hi = 1.f;
    /// When false, box containment is half-open ([lo, hi) per axis) —
    /// used for non-overlapping checkpoint-restart decompositions.
    bool inclusive_upper = true;
};

/// Query counters. The struct ACCUMULATES: query_bat adds to the caller's
/// counters rather than resetting them, so one QueryStats can sum a whole
/// multi-leaf read (Dataset::query, the parallel read path). Callers wanting
/// per-call numbers pass a zero-initialized struct. `points_fast_path`
/// counts points emitted through the fully-contained fast path, which skips
/// the per-point box/filter test — so the testing invariant is
/// points_tested + points_fast_path >= points_emitted.
struct QueryStats {
    std::uint64_t shallow_nodes_visited = 0;
    std::uint64_t treelet_nodes_visited = 0;
    std::uint64_t pruned_by_box = 0;
    std::uint64_t pruned_by_bitmap = 0;
    std::uint64_t points_tested = 0;
    std::uint64_t points_emitted = 0;
    std::uint64_t points_fast_path = 0;
};

/// Callback invoked per matching point: position plus one value per file
/// attribute (in file attribute order).
using QueryCallback = std::function<void(Vec3, std::span<const double>)>;

/// Bulk callback for the fully-contained fast path: every point of the
/// contiguous treelet range [begin, end) matches the query. Positions are
/// view.positions.subspan(3 * begin, 3 * (end - begin)); attribute columns
/// are view.attrs[a].subspan(begin, end - begin).
using QueryRangeCallback =
    std::function<void(const BatTreeletView&, std::uint32_t, std::uint32_t)>;

/// Bulk callback for a tested window: `idx` lists, in ascending order, the
/// treelet-local indices of the window's points that passed the exact
/// box/filter check. Positions are view.positions[3 * idx[k] + 0..2];
/// attribute values are view.attrs[a][idx[k]]. The span is only valid for
/// the duration of the call.
using QueryGatherCallback =
    std::function<void(const BatTreeletView&, std::span<const std::uint32_t>)>;

/// Emission sinks for a query. `point` is required; the two bulk members
/// are optional and let ParticleSet consumers append whole windows:
/// - `range`: a node's region lies entirely inside the query box and no
///   attribute filter is active, so its progressive window is emitted as
///   one contiguous range with no per-point box/filter work;
/// - `gather`: every other non-empty window, as the index list of the
///   points that passed the exact check.
/// Without them, each point goes through `point`. The emission order is
/// the same whichever members are set.
struct QuerySink {
    QueryCallback point;
    QueryRangeCallback range;
    QueryGatherCallback gather;
};

/// Run a query against a BAT file; returns the number of points emitted
/// by this call (stats, if given, accumulate — see QueryStats).
std::uint64_t query_bat(const BatFile& file, const BatQuery& query, const QueryCallback& cb,
                        QueryStats* stats = nullptr);
std::uint64_t query_bat(const BatFile& file, const BatQuery& query, const QuerySink& sink,
                        QueryStats* stats = nullptr);

/// Zero-copy adapter exposing a just-built, not-yet-serialized BAT through
/// the same interface as BatFile, enabling the paper's in-transit use: "the
/// tree can be used for in transit visualization and analysis on the
/// aggregators before or instead of being written to disk" (§III-C3).
class BatDataView {
public:
    explicit BatDataView(const BatData& bat) : bat_(&bat) {}

    std::size_t num_attrs() const { return bat_->num_attrs(); }
    std::pair<double, double> attr_range(std::size_t a) const {
        return bat_->attr_ranges[a];
    }
    const BinEdges& attr_edges(std::size_t a) const { return bat_->attr_edges[a]; }
    std::span<const ShallowNode> shallow_nodes() const { return bat_->shallow_nodes; }
    std::uint32_t shallow_bitmap(std::size_t i, std::size_t a) const {
        return bat_->shallow_bitmaps[i * num_attrs() + a];
    }
    std::size_t num_treelets() const { return bat_->treelets.size(); }
    BatTreeletView treelet(std::size_t t) const;
    std::uint32_t treelet_bitmap(const BatTreeletView& view, std::size_t node,
                                 std::size_t a) const {
        return view.raw_bitmaps[node * num_attrs() + a];
    }

private:
    const BatData* bat_;
};

/// Run a query against an in-memory BAT (same semantics as the file path).
std::uint64_t query_bat(const BatDataView& bat, const BatQuery& query,
                        const QueryCallback& cb, QueryStats* stats = nullptr);
std::uint64_t query_bat(const BatDataView& bat, const BatQuery& query,
                        const QuerySink& sink, QueryStats* stats = nullptr);
inline std::uint64_t query_bat(const BatData& bat, const BatQuery& query,
                               const QueryCallback& cb, QueryStats* stats = nullptr) {
    return query_bat(BatDataView(bat), query, cb, stats);
}
inline std::uint64_t query_bat(const BatData& bat, const BatQuery& query,
                               const QuerySink& sink, QueryStats* stats = nullptr) {
    return query_bat(BatDataView(bat), query, sink, stats);
}

/// The log-scale quality remap (§V-B), exposed for tests: maps quality in
/// [0, 1] to a fractional traversal depth in [0, levels], where `levels` is
/// the treelet's max depth + 1.
double remap_quality(double quality, int levels);

/// Number of a node's own points included at fractional depth `t` for a
/// node at `depth` owning `own_count` points (monotone in t; exposed for
/// tests of progressive-read consistency).
std::uint32_t points_at_depth(double t, int depth, std::uint32_t own_count);

}  // namespace bat
