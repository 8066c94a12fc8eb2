#pragma once
// Visualization reads on the BAT layout (paper §V).
//
// A query takes a desired quality level, an optional bounding box, and a
// set of attribute range filters. plan_bat runs it once over a BAT file and
// returns a QueryPlan: the windows of matching points in emission order,
// which a reader copies out (write_wire, write_into) or visits point by
// point (for_each; query_bat is plan_bat followed by for_each). Spatial
// pruning uses the k-d hierarchy (exact); attribute pruning tests the
// query's 32-bit bitmap against each node's bitmap (conservative: bitwise
// AND == 0 proves the subtree holds no matches, so subtrees are never
// wrongly skipped), with a final exact per-point check to discard false
// positives (§V-A). That check runs over a node's whole progressive
// window at once: one branch-free 64-bit selection mask per 64-point block
// (box test on the f32 positions, then each attribute range on the f64
// columns), whose passing indices join the plan in ascending order.
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
#include <string>
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

/// Query counters. The struct ACCUMULATES: plan_bat adds to the caller's
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

/// One query over one BAT file, planned: the output of the traversal.
/// plan_bat walks the tree once and keeps every window it selects — its
/// treelet's columns plus either a contiguous [begin, end) row range (a
/// node region inside the query box with no attribute filter active, the
/// fast path that skips the per-point test) or the ascending rows that
/// passed the exact check — so count() is known before a point is copied.
/// The plan points into the file's treelets but does not hold the file:
/// the BatFile (and the base files its delta treelets resolve to) must
/// outlive it. It is consumed three ways, each in emission order.
class QueryPlan {
public:
    std::size_t count() const { return count_; }

    /// Size of the plan's ParticleSet wire payload under `attr_names`.
    std::size_t wire_size(std::span<const std::string> attr_names) const;
    /// Write that payload (ParticleSet::to_bytes() of the points) into
    /// `dst`, which must be exactly wire_size() bytes.
    void write_wire(std::span<std::byte> dst, std::span<const std::string> attr_names) const;
    /// Write the points into slots [at, at + count()) of `out`, which must
    /// already hold them and have the file's attribute count.
    void write_into(ParticleSet& out, std::size_t at) const;
    /// Call `cb` once per point.
    void for_each(const QueryCallback& cb) const;

private:
    friend QueryPlan plan_bat(const BatFile&, const BatQuery&, QueryStats*);
    struct Traversal;

    struct Window {
        const float* xyz = nullptr;  // the treelet's interleaved positions
        std::size_t columns = 0;     // its attribute columns, in columns_
        std::size_t begin = 0;       // range: rows; gather: indices in rows_
        std::size_t end = 0;
        bool gather = false;
    };

    void add_window(const BatTreeletView& view, std::size_t rows, std::size_t begin,
                    std::size_t end, bool gather);
    std::vector<std::byte> wire_header(std::span<const std::string> attr_names) const;
    void write_columns(std::byte* xyz, std::span<std::byte* const> attrs) const;

    std::size_t num_attrs_ = 0;
    std::size_t count_ = 0;
    std::vector<Window> windows_;
    std::vector<const double*> columns_;
    std::vector<std::uint32_t> rows_;
};

/// Plan a query against a BAT file (stats, if given, accumulate — see
/// QueryStats).
QueryPlan plan_bat(const BatFile& file, const BatQuery& query, QueryStats* stats = nullptr);

/// Plan, then call `cb` per point; returns the number of points emitted
/// by this call.
std::uint64_t query_bat(const BatFile& file, const BatQuery& query, const QueryCallback& cb,
                        QueryStats* stats = nullptr);

/// The log-scale quality remap (§V-B), exposed for tests: maps quality in
/// [0, 1] to a fractional traversal depth in [0, levels], where `levels` is
/// the treelet's max depth + 1.
double remap_quality(double quality, int levels);

/// Number of a node's own points included at fractional depth `t` for a
/// node at `depth` owning `own_count` points (monotone in t; exposed for
/// tests of progressive-read consistency).
std::uint32_t points_at_depth(double t, int depth, std::uint32_t own_count);

}  // namespace bat
