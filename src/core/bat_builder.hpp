#pragma once
// Construction of the Binned Attribute Tree (BAT), the paper's
// multiresolution particle data layout (§III-C, Fig 2).
//
// The build runs on each aggregator after it has received its leaf's
// particles, in two parallel steps:
//   1. a data-parallel bottom-up build of a *shallow* k-d tree: particles
//      are bucketed by their (at most 12-bit) Morton-code subprefix with a
//      counting scatter, and a Karras radix tree is built over the
//      non-empty subprefixes (§III-C1);
//   2. independent top-down builds of a median-split k-d "treelet" inside
//      each shallow leaf, setting aside a fixed number of stratified-sampled
//      LOD particles at every inner node so coarse representations need no
//      extra memory (§III-C2).
// Each leaf/inner node carries one 32-bit binned bitmap per attribute for
// attribute-filtered queries; bitmaps are deduplicated through a shared
// dictionary at compaction time (§III-C3, bat_file.hpp).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/particles.hpp"
#include "util/thread_pool.hpp"
#include "util/vec3.hpp"

namespace bat {

/// How attribute values are mapped to the 32 bitmap bins.
/// equal_width is the paper's standard binning (§III-C2); equal_depth
/// places bin edges at value quantiles (Wu et al. [43], the "more advanced
/// binning schemes" §VII-A suggests), which keeps bins useful for skewed
/// attribute distributions at the cost of computing quantiles per
/// aggregator.
enum class BinningScheme : std::uint32_t {
    equal_width = 0,
    equal_depth = 1,
};

struct BatConfig {
    /// Maximum Morton-code subprefix length merged to form the shallow tree
    /// (paper: 12 bits gives satisfactory leaf counts/sizes at the paper's
    /// multi-million-particle aggregator loads). At most 16: the build keeps
    /// one bucket counter per subprefix value.
    int subprefix_bits = 12;
    /// When true (default), the subprefix is shortened for small inputs so
    /// treelets hold roughly `target_treelet_particles` each — without this,
    /// small aggregator files would shatter into thousands of near-empty
    /// 4 KB-aligned treelets and the layout overhead would explode.
    bool auto_subprefix = true;
    int target_treelet_particles = 4096;
    /// LOD particles set aside at each treelet inner node (paper evaluation
    /// uses 8).
    int lod_per_inner = 8;
    /// Maximum particles in a treelet leaf (paper evaluation uses 128).
    int max_leaf_size = 128;
    /// Seed for the stratified LOD sampling (deterministic builds).
    std::uint64_t seed = 0;
    /// Bitmap bin placement (see BinningScheme).
    BinningScheme binning = BinningScheme::equal_width;
    /// When true, compute a per-treelet content hash (Treelet::hash) over
    /// everything serialize_bat writes for the treelet. The incremental
    /// series writer compares these against the previous step to detect
    /// unchanged regions; standalone builds skip the pass.
    bool hash_treelets = false;
};

/// Number of bins in every attribute bitmap. The paper restricts bitmaps to
/// exactly 32 bits so they are cheap, fixed-size, and dictionary-friendly.
inline constexpr int kBitmapBins = 32;

/// Compute the bin of value `v` within [lo, hi] (degenerate ranges map to
/// bin 0).
int bitmap_bin(double v, double lo, double hi);

/// Bitmap with the bits of all bins overlapped by [lo, hi] set, relative to
/// the attribute range [range_lo, range_hi]. Empty intersection gives 0.
std::uint32_t bitmap_for_range(double lo, double hi, double range_lo, double range_hi);

/// Bin edges: kBitmapBins + 1 monotone non-decreasing values; bin b covers
/// [edges[b], edges[b+1]) (the last bin is closed above).
using BinEdges = std::vector<double>;

/// Equal-width edges over [lo, hi] (the paper's standard binning).
BinEdges equal_width_edges(double lo, double hi);

/// Equal-depth edges: bin boundaries at the value quantiles of `values`
/// (estimated from an evenly strided sample of at most `max_sample`).
BinEdges equal_depth_edges(std::span<const double> values,
                           std::size_t max_sample = 65536);

/// Bin of `v` under `edges` (clamped to [0, kBitmapBins-1]).
int bin_of(double v, const BinEdges& edges);

/// Bitmap with all bins whose interval can hold a value in [lo, hi] set.
std::uint32_t bitmap_for_range(double lo, double hi, const BinEdges& edges);

/// One node of a treelet, stored on disk verbatim. Children of an inner
/// node: left = own index + 1 (preorder), right = `right_child`.
/// Particles are treelet-local: a node's subtree occupies [start,
/// start+count); its *own* points (LOD samples for inner nodes, everything
/// for leaves) are the first `own_count` of the range.
struct TreeletNode {
    std::uint32_t start = 0;
    std::uint32_t count = 0;
    std::uint32_t own_count = 0;
    std::int32_t right_child = -1;  // -1 for leaves
    float split = 0.f;
    std::uint8_t axis = 0;
    std::uint8_t pad[3] = {0, 0, 0};

    bool is_leaf() const { return right_child < 0; }
};
static_assert(sizeof(TreeletNode) == 24);

/// One node of the shallow tree. Preorder: left child = own index + 1.
struct ShallowNode {
    Box bounds;                      // region from the Morton prefix
    std::int32_t right_child = -1;   // -1 for leaves
    std::int32_t treelet = -1;       // leaf: index of the treelet
    float split = 0.f;
    std::uint8_t axis = 0;
    std::uint8_t pad[3] = {0, 0, 0};

    bool is_leaf() const { return right_child < 0; }
};
static_assert(sizeof(ShallowNode) == 40);

/// In-memory treelet produced by the build (pre-compaction).
struct Treelet {
    Box bounds;                        // tight bounds of contained particles
    std::uint32_t first_particle = 0;  // offset into the BAT-wide order
    std::uint32_t num_particles = 0;
    std::int32_t max_depth = 0;        // deepest node depth (root = 0)
    std::vector<TreeletNode> nodes;
    /// Per node, per attribute: the node's 32-bit binned bitmap
    /// (nodes.size() * num_attrs entries, node-major).
    std::vector<std::uint32_t> bitmaps;
    /// Content hash (four-lane word-wise multiply-xorshift) over the treelet's
    /// serialized payload: counts, depth, bounds, nodes, bitmaps,
    /// positions, and attribute values. Only comparable against hashes
    /// from the same build (never persisted). Zero unless
    /// BatConfig::hash_treelets was set.
    std::uint64_t hash = 0;
};

/// The complete in-memory BAT for one aggregator, ready for compaction to
/// disk (bat_file.hpp) or direct in-transit queries.
struct BatData {
    BatConfig config;
    Box bounds;
    /// Particles reordered into the on-disk layout order (treelet by
    /// treelet; within a treelet, each node's own points come first,
    /// followed by the left then right subtrees).
    ParticleSet particles;
    std::vector<ShallowNode> shallow_nodes;
    /// Per shallow node, per attribute (node-major), pre-dictionary.
    std::vector<std::uint32_t> shallow_bitmaps;
    std::vector<Treelet> treelets;
    /// Aggregator-local (min, max) per attribute; bitmaps are binned
    /// relative to these (paper §III-C2).
    std::vector<std::pair<double, double>> attr_ranges;
    /// Per-attribute bitmap bin edges (kBitmapBins + 1 each; equal-width
    /// over the local range by default, quantiles for equal_depth).
    std::vector<BinEdges> attr_edges;

    std::size_t num_attrs() const { return particles.num_attrs(); }
    /// Root (whole-aggregator) bitmap of attribute `a`, used to populate
    /// the top-level metadata (§III-D).
    std::uint32_t root_bitmap(std::size_t a) const;
};

/// Wall-clock seconds per build_bat sub-phase (the bat.* trace spans),
/// aggregated across ranks like WritePhaseTimings.
struct BatBuildTimings {
    double edges = 0;     // attribute range + bin-edge scans
    double encode = 0;    // position deplane + batched Morton encode
    double sort = 0;      // counting scatter into subprefix buckets
    double treelets = 0;  // shallow tree + per-treelet k-d builds
    double reorder = 0;   // final gather into layout order
    double bitmaps = 0;   // per-node attribute bitmaps, plus the treelet
                          // content hashes when hash_treelets is set

    BatBuildTimings& operator+=(const BatBuildTimings& o);
    /// Component-wise max (for "slowest rank" reductions).
    static BatBuildTimings max(const BatBuildTimings& a, const BatBuildTimings& b);
};

/// Build the BAT over `particles` (consumed and reordered into the layout
/// order). `pool` parallelizes the shallow-tree and treelet builds. When
/// `timings` is given, per-sub-phase seconds are accumulated into it.
BatData build_bat(ParticleSet particles, const BatConfig& config, ThreadPool* pool = nullptr,
                  BatBuildTimings* timings = nullptr);

}  // namespace bat
