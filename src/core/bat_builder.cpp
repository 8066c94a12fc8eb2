#include "core/bat_builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/karras.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/morton.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bat {

// The binning kernels in util/simd.hpp are specialized for this bin count.
static_assert(kBitmapBins == simd::kBinCount);

int bitmap_bin(double v, double lo, double hi) {
    if (hi <= lo) {
        return 0;
    }
    const double t = (v - lo) / (hi - lo);
    const int bin = static_cast<int>(t * kBitmapBins);
    return std::clamp(bin, 0, kBitmapBins - 1);
}

std::uint32_t bitmap_for_range(double lo, double hi, double range_lo, double range_hi) {
    if (hi < range_lo || lo > range_hi) {
        return 0;
    }
    if (range_hi <= range_lo) {
        // Degenerate attribute range: everything lives in bin 0.
        return 1u;
    }
    const int b0 = bitmap_bin(std::max(lo, range_lo), range_lo, range_hi);
    const int b1 = bitmap_bin(std::min(hi, range_hi), range_lo, range_hi);
    std::uint32_t bits = 0;
    for (int b = b0; b <= b1; ++b) {
        bits |= 1u << b;
    }
    return bits;
}

BinEdges equal_width_edges(double lo, double hi) {
    BinEdges edges(kBitmapBins + 1);
    const double width = hi > lo ? (hi - lo) / kBitmapBins : 0.0;
    for (int b = 0; b <= kBitmapBins; ++b) {
        edges[static_cast<std::size_t>(b)] = lo + b * width;
    }
    edges.back() = hi;  // avoid rounding the last edge below the max
    return edges;
}

BinEdges equal_depth_edges(std::span<const double> values, std::size_t max_sample) {
    if (values.empty()) {
        return equal_width_edges(0.0, 0.0);
    }
    const std::size_t stride = values.size() > max_sample
                                   ? (values.size() + max_sample - 1) / max_sample
                                   : 1;
    std::vector<double> sample;
    sample.reserve(values.size() / stride + 1);
    for (std::size_t i = 0; i < values.size(); i += stride) {
        sample.push_back(values[i]);
    }
    // Constant input (and the single-sample case): every quantile is the
    // same value, so skip selection entirely. minmax_f64 canonicalizes
    // -0.0 to +0.0 identically in every dispatch tier.
    double lo = 0.0;
    double hi = 0.0;
    simd::minmax_f64(sample.data(), sample.size(), &lo, &hi);
    if (lo == hi) {
        return equal_width_edges(lo, hi);
    }
    // The edges only need the 33 quantile order statistics, not a fully
    // sorted sample: select them in ascending order with nth_element, each
    // selection restricted to the suffix the previous one partitioned.
    std::array<std::size_t, kBitmapBins + 1> wanted;
    for (int b = 0; b <= kBitmapBins; ++b) {
        wanted[static_cast<std::size_t>(b)] = std::min(
            sample.size() - 1, static_cast<std::size_t>(b) * sample.size() / kBitmapBins);
    }
    std::size_t prev = 0;
    bool first = true;
    for (const std::size_t idx : wanted) {
        if (!first && idx <= prev) {
            continue;  // duplicate order statistic, already in place
        }
        const auto begin = first ? std::ptrdiff_t{0} : static_cast<std::ptrdiff_t>(prev) + 1;
        std::nth_element(sample.begin() + begin,
                         sample.begin() + static_cast<std::ptrdiff_t>(idx), sample.end());
        prev = idx;
        first = false;
    }
    BinEdges edges(kBitmapBins + 1);
    for (int b = 0; b <= kBitmapBins; ++b) {
        edges[static_cast<std::size_t>(b)] = sample[wanted[static_cast<std::size_t>(b)]];
    }
    edges.front() = sample.front();
    edges.back() = sample.back();
    // Quantiles of low-cardinality data can repeat; keep edges monotone.
    for (int b = 1; b <= kBitmapBins; ++b) {
        edges[static_cast<std::size_t>(b)] =
            std::max(edges[static_cast<std::size_t>(b)],
                     edges[static_cast<std::size_t>(b - 1)]);
    }
    return edges;
}

int bin_of(double v, const BinEdges& edges) {
    BAT_CHECK(edges.size() == kBitmapBins + 1);
    // First bin whose upper edge exceeds v; degenerate (empty) bins are
    // skipped by upper_bound's semantics.
    const auto it = std::upper_bound(edges.begin() + 1, edges.end() - 1, v);
    return static_cast<int>(it - (edges.begin() + 1));
}

std::uint32_t bitmap_for_range(double lo, double hi, const BinEdges& edges) {
    BAT_CHECK(edges.size() == kBitmapBins + 1);
    if (hi < edges.front() || lo > edges.back()) {
        return 0;
    }
    const int b0 = bin_of(std::max(lo, edges.front()), edges);
    const int b1 = bin_of(std::min(hi, edges.back()), edges);
    std::uint32_t bits = 0;
    for (int b = b0; b <= b1; ++b) {
        bits |= 1u << b;
    }
    return bits;
}

std::uint32_t BatData::root_bitmap(std::size_t a) const {
    BAT_CHECK(a < num_attrs());
    if (shallow_nodes.empty()) {
        return 0;
    }
    return shallow_bitmaps[a];  // node 0 is the shallow root
}

namespace {

/// One particle position plus its original index, the treelet builds'
/// working layout: the k-d recursion permutes these 16-byte records in
/// place, so every median select, bounds scan, and LOD swap touches
/// contiguous cache-resident memory instead of gathering through an index
/// indirection. After the build, the record sequence IS the final layout
/// and `rank` recovers the permutation.
struct PosRecord {
    float p[3];
    std::uint32_t rank;
};
static_assert(sizeof(PosRecord) == 16);

/// Working state shared by the build steps.
struct BuildContext {
    const BatConfig& config;
    std::span<PosRecord> recs;  // subprefix buckets, permuted by treelet builds
    Box bounds;

    Vec3 pos(std::uint32_t ordered_index) const {
        const PosRecord& r = recs[ordered_index];
        return {r.p[0], r.p[1], r.p[2]};
    }
};

/// Tight bounds of the ordered range [lo, hi). The records are contiguous,
/// so this is a strided vector min/max (simd::minmax_pos4 canonicalizes
/// -0.0 identically in every dispatch tier).
Box range_bounds(const BuildContext& ctx, std::uint32_t lo, std::uint32_t hi) {
    BAT_CHECK(hi > lo);
    float mn[3];
    float mx[3];
    simd::minmax_pos4(ctx.recs[lo].p, hi - lo, mn, mx);
    Box b;
    b.lower = {mn[0], mn[1], mn[2]};
    b.upper = {mx[0], mx[1], mx[2]};
    return b;
}

/// Stratified sampling of `k` LOD particles from the node's range [lo, hi):
/// one sample per equal-size stratum of the range's current record order,
/// swapped to the front of the range (paper §III-C2 — subsets are taken,
/// never duplicated).
void sample_lod(BuildContext& ctx, std::uint32_t lo, std::uint32_t hi, std::uint32_t k,
                Pcg32& rng) {
    const std::uint64_t n = hi - lo;
    for (std::uint32_t j = 0; j < k; ++j) {
        const auto s0 = static_cast<std::uint32_t>(lo + j * n / k);
        const auto s1 = static_cast<std::uint32_t>(lo + (j + 1) * n / k);
        const std::uint32_t begin = std::max(s0, lo + j);
        BAT_CHECK(begin < s1);
        const std::uint32_t pick = begin + rng.next_bounded(s1 - begin);
        std::swap(ctx.recs[lo + j], ctx.recs[pick]);
    }
}

/// Ranges at or below this size are finished by insertion sort.
constexpr std::ptrdiff_t kSelectSortBelow = 16;

/// Reorder [first, last) so that `*nth` is the record a full sort by
/// p[axis] would put there, every record before it has a key <= its key and
/// every record after it a key >= (std::nth_element's contract). Quickselect
/// with a median-of-3 pivot and a branchless Lomuto partition: each step
/// swaps unconditionally and advances the boundary by the comparison
/// result, so random keys cost no mispredicted branch per record. A second
/// pass over the upper side gathers the keys equal to the pivot, so
/// all-equal and lattice coordinates finish in one round. After
/// 2·log2(n) rounds the rest goes to std::nth_element (introselect), which
/// bounds the worst case at O(n log n).
void select_on_axis(PosRecord* first, PosRecord* nth, PosRecord* last, int axis) {
    int rounds = 2 * static_cast<int>(std::bit_width(static_cast<std::size_t>(last - first)));
    while (last - first > kSelectSortBelow) {
        if (rounds-- == 0) {
            std::nth_element(first, nth, last, [axis](const PosRecord& a, const PosRecord& b) {
                return a.p[axis] < b.p[axis];
            });
            return;
        }
        const float a = first->p[axis];
        const float b = first[(last - first) / 2].p[axis];
        const float c = last[-1].p[axis];
        const float pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));
        // [first, lt) < pivot <= [lt, it): moving a record >= pivot to lt
        // and the old *lt (also >= pivot, or *it itself) to it keeps that.
        PosRecord* lt = first;
        for (PosRecord* it = first; it != last; ++it) {
            const PosRecord r = *it;
            *it = *lt;
            *lt = r;
            lt += r.p[axis] < pivot;
        }
        if (nth < lt) {
            last = lt;
            continue;
        }
        PosRecord* eq = lt;
        for (PosRecord* it = lt; it != last; ++it) {
            const PosRecord r = *it;
            *it = *eq;
            *eq = r;
            eq += r.p[axis] == pivot;
        }
        if (nth < eq) {
            return;  // *nth holds the pivot key
        }
        first = eq;
    }
    for (PosRecord* it = first + 1; it < last; ++it) {
        const PosRecord r = *it;
        PosRecord* hole = it;
        for (; hole != first && r.p[axis] < hole[-1].p[axis]; --hole) {
            *hole = hole[-1];
        }
        *hole = r;
    }
}

struct TreeletBuilder {
    BuildContext& ctx;
    Treelet& treelet;
    Pcg32 rng;

    /// Build the node over ordered range [lo, hi) at `depth`; returns the
    /// node's index. Preorder: the left child immediately follows.
    std::int32_t build(std::uint32_t lo, std::uint32_t hi, int depth) {
        const auto index = static_cast<std::int32_t>(treelet.nodes.size());
        treelet.nodes.push_back(TreeletNode{});
        treelet.max_depth = std::max(treelet.max_depth, depth);
        const std::uint32_t n = hi - lo;
        TreeletNode node;
        node.start = lo - treelet.first_particle;
        node.count = n;

        // Leaf: small enough, or too small to both sample LOD particles and
        // still feed two children.
        const auto leaf_limit = static_cast<std::uint32_t>(ctx.config.max_leaf_size);
        const auto lod = static_cast<std::uint32_t>(ctx.config.lod_per_inner);
        if (n <= leaf_limit || n < lod + 2) {
            node.own_count = n;
            node.right_child = -1;
            treelet.nodes[static_cast<std::size_t>(index)] = node;
            return index;
        }

        // Inner node: set aside the LOD particles, then median-split the
        // remainder along the longest axis of their bounds.
        const std::uint32_t k = std::min(lod, n - 2);
        sample_lod(ctx, lo, hi, k, rng);
        node.own_count = k;

        const std::uint32_t rest_lo = lo + k;
        const Box rest_bounds = range_bounds(ctx, rest_lo, hi);
        const int axis = rest_bounds.longest_axis();
        const std::uint32_t mid = rest_lo + (hi - rest_lo) / 2;
        select_on_axis(&ctx.recs[rest_lo], &ctx.recs[mid], ctx.recs.data() + hi, axis);
        node.axis = static_cast<std::uint8_t>(axis);
        node.split = ctx.recs[mid].p[axis];

        const std::int32_t left = build(rest_lo, mid, depth + 1);
        BAT_CHECK(left == index + 1);
        node.right_child = build(mid, hi, depth + 1);
        treelet.nodes[static_cast<std::size_t>(index)] = node;
        return index;
    }
};

/// Compute per-node bitmaps for one treelet. Nodes are preorder so children
/// always have larger indices: a reverse sweep sees children before parents.
/// Every particle is owned by exactly one node (LOD samples by their inner
/// node, the rest by leaves), so the bins of the treelet's whole contiguous
/// attribute span are computed once with the vectorized edge-compare kernel
/// and the per-node OR just consumes the precomputed u8 bins.
void compute_treelet_bitmaps(const ParticleSet& particles, Treelet& treelet,
                             std::span<const BinEdges> edges) {
    const std::size_t nattrs = edges.size();
    treelet.bitmaps.assign(treelet.nodes.size() * nattrs, 0);
    if (nattrs == 0) {
        return;
    }
    std::vector<std::uint8_t> bins(treelet.num_particles);
    for (std::size_t a = 0; a < nattrs; ++a) {
        const double* values = particles.attr(a).data() + treelet.first_particle;
        simd::bin_values_batch(values, treelet.num_particles, edges[a].data(), bins.data());
        for (std::size_t i = treelet.nodes.size(); i-- > 0;) {
            const TreeletNode& node = treelet.nodes[i];
            // Bits of the node's own points (all points for leaves, the LOD
            // samples for inner nodes), then the children's OR.
            std::uint32_t bm = 0;
            for (std::uint32_t p = node.start; p < node.start + node.own_count; ++p) {
                bm |= 1u << bins[p];
            }
            if (!node.is_leaf()) {
                const std::size_t l = i + 1;
                const auto r = static_cast<std::size_t>(node.right_child);
                bm |= treelet.bitmaps[l * nattrs + a] | treelet.bitmaps[r * nattrs + a];
            }
            treelet.bitmaps[i * nattrs + a] = bm;
        }
    }
}

}  // namespace

BatBuildTimings& BatBuildTimings::operator+=(const BatBuildTimings& o) {
    edges += o.edges;
    encode += o.encode;
    sort += o.sort;
    treelets += o.treelets;
    reorder += o.reorder;
    bitmaps += o.bitmaps;
    return *this;
}

BatBuildTimings BatBuildTimings::max(const BatBuildTimings& a, const BatBuildTimings& b) {
    BatBuildTimings m;
    m.edges = std::max(a.edges, b.edges);
    m.encode = std::max(a.encode, b.encode);
    m.sort = std::max(a.sort, b.sort);
    m.treelets = std::max(a.treelets, b.treelets);
    m.reorder = std::max(a.reorder, b.reorder);
    m.bitmaps = std::max(a.bitmaps, b.bitmaps);
    return m;
}

BatData build_bat(ParticleSet particles, const BatConfig& config, ThreadPool* pool,
                  BatBuildTimings* timings) {
    BAT_CHECK(config.subprefix_bits >= 1 && config.subprefix_bits <= 16);
    BAT_CHECK(config.lod_per_inner >= 1);
    BAT_CHECK(config.max_leaf_size >= 1);

    BatData bat;
    bat.config = config;
    const std::size_t n = particles.count();
    const std::size_t nattrs = particles.num_attrs();
    auto accum = [timings](double BatBuildTimings::*field) -> double* {
        return timings != nullptr ? &(timings->*field) : nullptr;
    };

    // ---- Attribute range/edge scans (independent per attribute) -----------
    {
        obs::PhaseSpan span("bat.edges", accum(&BatBuildTimings::edges));
        bat.attr_ranges.resize(nattrs);
        bat.attr_edges.resize(nattrs);
        auto attr_scan = [&](std::size_t a) {
            bat.attr_ranges[a] = particles.attr_range(a);
            bat.attr_edges[a] =
                config.binning == BinningScheme::equal_depth
                    ? equal_depth_edges(particles.attr(a))
                    : equal_width_edges(bat.attr_ranges[a].first, bat.attr_ranges[a].second);
        };
        if (pool != nullptr && pool->num_threads() > 0) {
            pool->parallel_for(0, nattrs, attr_scan, 1);
        } else {
            for (std::size_t a = 0; a < nattrs; ++a) {
                attr_scan(a);
            }
        }
    }
    if (n == 0) {
        bat.particles = std::move(particles);
        return bat;
    }

    // ---- Morton encode ----------------------------------------------------
    // Deplane the interleaved positions into SoA coordinate planes once,
    // take the bounds with the vectorized min/max scan, and batch-encode
    // whole plane spans (BMI2 pdep spread + AVX2 quantize where available).
    constexpr std::size_t kGrain = std::size_t{1} << 14;
    std::vector<std::uint64_t> codes(n);
    {
        obs::PhaseSpan span("bat.encode", accum(&BatBuildTimings::encode));
        std::vector<float> xs(n);
        std::vector<float> ys(n);
        std::vector<float> zs(n);
        particles.deplane_positions(xs.data(), ys.data(), zs.data(), pool);
        simd::minmax_f32(xs.data(), n, &bat.bounds.lower.x, &bat.bounds.upper.x);
        simd::minmax_f32(ys.data(), n, &bat.bounds.lower.y, &bat.bounds.upper.y);
        simd::minmax_f32(zs.data(), n, &bat.bounds.lower.z, &bat.bounds.upper.z);
        parallel_ranges(pool, n, kGrain, [&](std::size_t lo, std::size_t hi) {
            morton_encode_positions(xs.data() + lo, ys.data() + lo, zs.data() + lo,
                                    hi - lo, bat.bounds, codes.data() + lo);
        });
    }

    // ---- Subprefix length (§III-C1) ---------------------------------------
    // Depends only on n and the config, so it is fixed before any ordering.
    int subprefix_bits = config.subprefix_bits;
    if (config.auto_subprefix) {
        const double want_treelets = std::max(
            1.0, static_cast<double>(n) /
                     static_cast<double>(std::max(1, config.target_treelet_particles)));
        const int bits = static_cast<int>(std::ceil(std::log2(want_treelets)));
        subprefix_bits = std::clamp(bits, 1, config.subprefix_bits);
    }
    bat.config.subprefix_bits = subprefix_bits;

    // ---- Subprefix bucketing ----------------------------------------------
    // Everything after this reads only the top subprefix_bits of each code:
    // they cut the treelet ranges and key the shallow tree; the k-d median
    // splits inside a treelet need no Morton order. So a stable two-pass
    // counting scatter over the 2^subprefix_bits buckets orders the
    // particles: a histogram pass, then a pass writing each 16-byte
    // {x, y, z, original index} record straight into its bucket, in input
    // order. The non-empty buckets, ascending, are the shallow tree's keys.
    std::vector<PosRecord> recs(n);
    std::vector<std::uint64_t> unique_prefixes;
    std::vector<std::uint32_t> range_begin;  // per unique prefix, plus n
    {
        obs::PhaseSpan span("bat.sort", accum(&BatBuildTimings::sort));
        const int shift = kMortonBits - subprefix_bits;
        std::vector<std::uint32_t> next(std::size_t{1} << subprefix_bits, 0);
        for (std::size_t i = 0; i < n; ++i) {
            ++next[codes[i] >> shift];
        }
        std::uint32_t offset = 0;
        for (std::size_t b = 0; b < next.size(); ++b) {
            const std::uint32_t count = next[b];
            if (count != 0) {
                unique_prefixes.push_back(b);
                range_begin.push_back(offset);
            }
            next[b] = offset;
            offset += count;
        }
        range_begin.push_back(static_cast<std::uint32_t>(n));
        const float* pos = particles.positions().data();
        for (std::size_t i = 0; i < n; ++i) {
            const float* p = pos + 3 * i;
            recs[next[codes[i] >> shift]++] =
                PosRecord{{p[0], p[1], p[2]}, static_cast<std::uint32_t>(i)};
        }
    }
    std::vector<std::uint64_t>().swap(codes);

    obs::PhaseSpan treelet_span("bat.treelets", accum(&BatBuildTimings::treelets));
    const RadixTree radix = build_radix_tree(unique_prefixes, subprefix_bits, pool);

    // ---- Treelet builds (§III-C2) -----------------------------------------
    // The builds permute each bucket's records in place; afterwards the
    // record sequence is the final layout and recs[i].rank is the original
    // index of the particle at layout position i.
    const std::size_t num_treelets = unique_prefixes.size();
    bat.treelets.resize(num_treelets);
    BuildContext ctx{config, recs, bat.bounds};
    auto build_treelet = [&](std::size_t t) {
        Treelet& treelet = bat.treelets[t];
        treelet.first_particle = range_begin[t];
        treelet.num_particles = range_begin[t + 1] - range_begin[t];
        treelet.bounds = range_bounds(ctx, range_begin[t], range_begin[t + 1]);
        TreeletBuilder builder{ctx, treelet, Pcg32(mix_seed(config.seed, t))};
        builder.build(range_begin[t], range_begin[t + 1], 0);
    };
    // One task per treelet (grain 1) drowns tiny-treelet workloads in
    // per-task overhead; ~4 chunks per participant amortizes it while still
    // load-balancing the skewed treelet sizes.
    const std::size_t treelet_grain =
        pool != nullptr && pool->num_threads() > 0
            ? std::max<std::size_t>(1, num_treelets / (4 * (pool->num_threads() + 1)))
            : 1;
    if (pool != nullptr && pool->num_threads() > 0) {
        pool->parallel_for(0, num_treelets, build_treelet, treelet_grain);
    } else {
        for (std::size_t t = 0; t < num_treelets; ++t) {
            build_treelet(t);
        }
    }
    treelet_span.close();

    // ---- Final particle order ---------------------------------------------
    {
        obs::PhaseSpan span("bat.reorder", accum(&BatBuildTimings::reorder));
        // Attributes gather through final[i] = original[recs[i].rank];
        // positions come straight out of the already-permuted records (a
        // sequential copy).
        std::vector<std::uint32_t> final_order(n);
        parallel_ranges(pool, n, kGrain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                final_order[i] = recs[i].rank;
            }
        });
        particles.reorder_attrs(final_order, pool);
        float* pos = particles.positions_mut().data();
        parallel_ranges(pool, n, kGrain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                pos[3 * i] = recs[i].p[0];
                pos[3 * i + 1] = recs[i].p[1];
                pos[3 * i + 2] = recs[i].p[2];
            }
        });
        bat.particles = std::move(particles);
    }

    // ---- Bitmaps ------------------------------------------------------------
    obs::PhaseSpan bitmap_span("bat.bitmaps", accum(&BatBuildTimings::bitmaps));
    auto bitmap_pass = [&](std::size_t t) {
        compute_treelet_bitmaps(bat.particles, bat.treelets[t], bat.attr_edges);
    };
    if (pool != nullptr && pool->num_threads() > 0) {
        pool->parallel_for(0, num_treelets, bitmap_pass, treelet_grain);
    } else {
        for (std::size_t t = 0; t < num_treelets; ++t) {
            bitmap_pass(t);
        }
    }
    if (config.hash_treelets) {
        // Content hashes for delta detection: cover exactly the per-treelet
        // payload serialize_bat writes (counts, depth, bounds, nodes,
        // bitmaps, positions, attribute values) so hash equality implies
        // byte-identical treelet blocks on disk.
        auto hash_pass = [&](std::size_t t) {
            Treelet& treelet = bat.treelets[t];
            // Word-wise multiply-xorshift mix over four independent lanes:
            // the hash only ever meets hashes computed by this same code on
            // the previous step (it is never persisted), so it is free to
            // trade a portable definition for speed. One lane would chain
            // every word through a multiply; four let them overlap.
            constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
            std::uint64_t lane[4] = {0xcbf29ce484222325ull, 0x84222325cbf29ce4ull,
                                     0x9ce484222325cbf2ull, 0x2325cbf29ce48422ull};
            auto step = [](std::uint64_t h, std::uint64_t w) {
                h = (h ^ w) * kMul;
                return h ^ (h >> 29);
            };
            auto mix = [&](const void* data, std::size_t bytes) {
                const auto* p = static_cast<const unsigned char*>(data);
                std::size_t i = 0;
                for (; i + 32 <= bytes; i += 32) {
                    std::uint64_t w[4];
                    std::memcpy(w, p + i, 32);
                    for (int j = 0; j < 4; ++j) {
                        lane[j] = step(lane[j], w[j]);
                    }
                }
                for (; i + 8 <= bytes; i += 8) {
                    std::uint64_t w;
                    std::memcpy(&w, p + i, 8);
                    lane[0] = step(lane[0], w);
                }
                if (i < bytes) {
                    std::uint64_t tail = 0;
                    std::memcpy(&tail, p + i, bytes - i);
                    lane[0] = step(lane[0], tail + bytes);
                }
            };
            mix(&treelet.num_particles, sizeof(treelet.num_particles));
            mix(&treelet.max_depth, sizeof(treelet.max_depth));
            mix(&treelet.bounds, sizeof(treelet.bounds));
            mix(treelet.nodes.data(), treelet.nodes.size() * sizeof(TreeletNode));
            mix(treelet.bitmaps.data(),
                treelet.bitmaps.size() * sizeof(std::uint32_t));
            const auto pos = bat.particles.positions().subspan(
                3 * treelet.first_particle, 3 * treelet.num_particles);
            mix(pos.data(), pos.size_bytes());
            for (std::size_t a = 0; a < nattrs; ++a) {
                const auto vals = bat.particles.attr(a).subspan(
                    treelet.first_particle, treelet.num_particles);
                mix(vals.data(), vals.size_bytes());
            }
            std::uint64_t h = 0;
            for (const std::uint64_t l : lane) {
                h = step(h, l);  // a fold, so swapped lane states differ
            }
            treelet.hash = h;
        };
        if (pool != nullptr && pool->num_threads() > 0) {
            pool->parallel_for(0, num_treelets, hash_pass, treelet_grain);
        } else {
            for (std::size_t t = 0; t < num_treelets; ++t) {
                hash_pass(t);
            }
        }
    }
    bitmap_span.close();

    // ---- Flatten the shallow tree to preorder -----------------------------
    // The radix tree uses split indices; we convert to a preorder node array
    // with regions decoded from the Morton prefixes.
    bat.shallow_nodes.clear();
    struct Frame {
        std::int32_t radix_index;
        bool is_leaf;
    };
    // Recursive flatten via explicit lambda recursion.
    auto flatten = [&](auto&& self, std::int32_t radix_index, bool is_leaf) -> std::int32_t {
        const auto index = static_cast<std::int32_t>(bat.shallow_nodes.size());
        bat.shallow_nodes.push_back(ShallowNode{});
        ShallowNode node;
        if (is_leaf) {
            node.treelet = radix_index;  // radix leaf i == treelet i
            node.right_child = -1;
            node.bounds = bat.treelets[static_cast<std::size_t>(radix_index)].bounds;
        } else {
            const RadixNode& rn = radix.internal[static_cast<std::size_t>(radix_index)];
            // The split bit position selects the k-d split axis (§III-C1).
            const int full_bit = kMortonBits - 1 - rn.prefix_len;
            node.axis = static_cast<std::uint8_t>(morton_bit_axis(full_bit));
            const std::int32_t left = self(self, rn.left, rn.left_is_leaf);
            BAT_CHECK(left == index + 1);
            node.right_child = self(self, rn.right, rn.right_is_leaf);
            // Node bounds: union of the children's (tight) bounds. The raw
            // Morton prefix region (subprefix_region) would also be valid
            // but looser; tight bounds prune spatial queries better.
            node.bounds = bat.shallow_nodes[static_cast<std::size_t>(left)].bounds;
            node.bounds.extend(
                bat.shallow_nodes[static_cast<std::size_t>(node.right_child)].bounds);
            node.split = node.bounds.center()[node.axis];
        }
        bat.shallow_nodes[static_cast<std::size_t>(index)] = node;
        return index;
    };
    if (num_treelets == 1) {
        flatten(flatten, 0, /*is_leaf=*/true);
    } else {
        flatten(flatten, radix.root, /*is_leaf=*/false);
    }

    // ---- Shallow-node bitmaps (children OR; reverse preorder sweep) -------
    bat.shallow_bitmaps.assign(bat.shallow_nodes.size() * nattrs, 0);
    for (std::size_t i = bat.shallow_nodes.size(); i-- > 0;) {
        const ShallowNode& node = bat.shallow_nodes[i];
        std::uint32_t* bm = bat.shallow_bitmaps.data() + i * nattrs;
        if (node.is_leaf()) {
            const Treelet& t = bat.treelets[static_cast<std::size_t>(node.treelet)];
            for (std::size_t a = 0; a < nattrs; ++a) {
                bm[a] = t.nodes.empty() ? 0 : t.bitmaps[a];  // treelet root
            }
        } else {
            const std::size_t l = i + 1;
            const auto r = static_cast<std::size_t>(node.right_child);
            for (std::size_t a = 0; a < nattrs; ++a) {
                bm[a] = bat.shallow_bitmaps[l * nattrs + a] |
                        bat.shallow_bitmaps[r * nattrs + a];
            }
        }
    }
    return bat;
}

}  // namespace bat
