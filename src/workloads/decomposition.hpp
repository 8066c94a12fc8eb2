#pragma once
// Rank domain decompositions used by the evaluation workloads: the uniform
// weak-scaling study and the Coal Boiler partition their domain with a 3D
// grid of ranks; the Dam Break uses a 2D grid along x and y (the floor) as
// in the paper (§VI-A2). Cells are half-open so every particle has exactly
// one owner rank.

#include <cstdint>
#include <vector>

#include "core/agg_tree.hpp"
#include "core/particles.hpp"
#include "util/vec3.hpp"

namespace bat {

struct GridDecomp {
    int nx = 1;
    int ny = 1;
    int nz = 1;
    Box domain;

    int nranks() const { return nx * ny * nz; }
    /// Bounds of rank r (x-fastest ordering).
    Box rank_box(int r) const;
    /// Bounds of rank r for half-open restart reads. The read boxes tile
    /// the domain exactly: neighbours share bit-identical faces, and faces
    /// on the domain's upper boundary sit just past it, so every point of
    /// the closed domain (e.g. one clamped by a generator) has one owner.
    Box rank_read_box(int r) const;
    /// Rank owning position p (positions outside the domain are clamped).
    int owner(Vec3 p) const;
};

/// Factor `nranks` into a near-cubic (or near-square) grid over `domain`,
/// weighting the factors by the domain extents.
GridDecomp grid_decomp_3d(int nranks, const Box& domain);
/// 2D decomposition along x and y only (nz = 1).
GridDecomp grid_decomp_2d(int nranks, const Box& domain);

/// Split a global particle set into per-rank sets by cell ownership.
std::vector<ParticleSet> partition_particles(const ParticleSet& global,
                                             const GridDecomp& decomp);

/// Per-rank counts only (for full-scale performance modeling, where
/// materializing every rank's particles is unnecessary).
std::vector<std::uint64_t> partition_counts(const ParticleSet& global,
                                            const GridDecomp& decomp);

/// RankInfo records (decomposition bounds + counts) for the aggregation.
std::vector<RankInfo> make_rank_infos(const GridDecomp& decomp,
                                      std::span<const std::uint64_t> counts);

}  // namespace bat
