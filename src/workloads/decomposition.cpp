#include "workloads/decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace bat {

Box GridDecomp::rank_box(int r) const {
    BAT_CHECK(r >= 0 && r < nranks());
    const int ix = r % nx;
    const int iy = (r / nx) % ny;
    const int iz = r / (nx * ny);
    const Vec3 ext = domain.extent();
    const Vec3 cell{ext.x / static_cast<float>(nx), ext.y / static_cast<float>(ny),
                    ext.z / static_cast<float>(nz)};
    const Vec3 lo{domain.lower.x + cell.x * static_cast<float>(ix),
                  domain.lower.y + cell.y * static_cast<float>(iy),
                  domain.lower.z + cell.z * static_cast<float>(iz)};
    return Box(lo, lo + cell);
}

Box GridDecomp::rank_read_box(int r) const {
    BAT_CHECK(r >= 0 && r < nranks());
    const int idx[3] = {r % nx, (r / nx) % ny, r / (nx * ny)};
    const int n[3] = {nx, ny, nz};
    Box b;
    for (int a = 0; a < 3; ++a) {
        // Both faces from the grid index with one formula, so neighbours
        // agree bit-for-bit on the face they share; the domain's upper face
        // moves just past domain.upper so boundary points keep one owner.
        const auto face = [&](int i) {
            if (i == n[a]) {
                return std::nextafter(domain.upper[a], std::numeric_limits<float>::max());
            }
            return domain.lower[a] +
                   (domain.upper[a] - domain.lower[a]) * static_cast<float>(i) /
                       static_cast<float>(n[a]);
        };
        b.lower[a] = face(idx[a]);
        b.upper[a] = face(idx[a] + 1);
    }
    return b;
}

int GridDecomp::owner(Vec3 p) const {
    const Vec3 ext = domain.extent();
    int idx[3];
    const int n[3] = {nx, ny, nz};
    for (int a = 0; a < 3; ++a) {
        const float e = ext[a];
        float t = e > 0.f ? (p[a] - domain.lower[a]) / e : 0.f;
        t = std::clamp(t, 0.f, 1.f);
        idx[a] = std::min(static_cast<int>(t * static_cast<float>(n[a])), n[a] - 1);
    }
    return (idx[2] * ny + idx[1]) * nx + idx[0];
}

namespace {

/// Enumerate factorizations n = a*b*c and pick the one whose per-cell
/// aspect ratio best matches the domain extents (minimizes the max ratio
/// of cell side lengths).
void best_factors(int n, const Vec3& ext, bool two_d, int out[3]) {
    double best_score = -1.0;
    for (int a = 1; a <= n; ++a) {
        if (n % a != 0) {
            continue;
        }
        const int rest = n / a;
        for (int b = 1; b <= rest; ++b) {
            if (rest % b != 0) {
                continue;
            }
            const int c = rest / b;
            if (two_d && c != 1) {
                continue;
            }
            const double sx = std::max(1e-30, static_cast<double>(ext.x)) / a;
            const double sy = std::max(1e-30, static_cast<double>(ext.y)) / b;
            const double sz = std::max(1e-30, static_cast<double>(ext.z)) / c;
            const double hi = std::max({sx, sy, sz});
            const double lo = std::min({sx, sy, sz});
            const double score = hi / lo;  // 1.0 = perfectly cubic cells
            if (best_score < 0.0 || score < best_score) {
                best_score = score;
                out[0] = a;
                out[1] = b;
                out[2] = c;
            }
        }
    }
}

}  // namespace

GridDecomp grid_decomp_3d(int nranks, const Box& domain) {
    BAT_CHECK(nranks >= 1);
    BAT_CHECK(!domain.empty());
    GridDecomp d;
    d.domain = domain;
    int dims[3] = {nranks, 1, 1};
    best_factors(nranks, domain.extent(), /*two_d=*/false, dims);
    d.nx = dims[0];
    d.ny = dims[1];
    d.nz = dims[2];
    return d;
}

GridDecomp grid_decomp_2d(int nranks, const Box& domain) {
    BAT_CHECK(nranks >= 1);
    BAT_CHECK(!domain.empty());
    GridDecomp d;
    d.domain = domain;
    int dims[3] = {nranks, 1, 1};
    best_factors(nranks, domain.extent(), /*two_d=*/true, dims);
    d.nx = dims[0];
    d.ny = dims[1];
    d.nz = 1;
    return d;
}

std::vector<ParticleSet> partition_particles(const ParticleSet& global,
                                             const GridDecomp& decomp) {
    std::vector<ParticleSet> out;
    out.reserve(static_cast<std::size_t>(decomp.nranks()));
    for (int r = 0; r < decomp.nranks(); ++r) {
        out.emplace_back(global.attr_names());
    }
    for (std::size_t i = 0; i < global.count(); ++i) {
        const int owner = decomp.owner(global.position(i));
        out[static_cast<std::size_t>(owner)].append_from(global, i);
    }
    return out;
}

std::vector<std::uint64_t> partition_counts(const ParticleSet& global,
                                            const GridDecomp& decomp) {
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(decomp.nranks()), 0);
    for (std::size_t i = 0; i < global.count(); ++i) {
        ++counts[static_cast<std::size_t>(decomp.owner(global.position(i)))];
    }
    return counts;
}

std::vector<RankInfo> make_rank_infos(const GridDecomp& decomp,
                                      std::span<const std::uint64_t> counts) {
    BAT_CHECK(counts.size() == static_cast<std::size_t>(decomp.nranks()));
    std::vector<RankInfo> infos(counts.size());
    for (int r = 0; r < decomp.nranks(); ++r) {
        infos[static_cast<std::size_t>(r)] =
            RankInfo{decomp.rank_box(r), counts[static_cast<std::size_t>(r)]};
    }
    return infos;
}

}  // namespace bat
