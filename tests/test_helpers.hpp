#pragma once
// Shared test utilities: a scoped temporary directory and brute-force
// reference implementations the library's accelerated paths are checked
// against.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "core/particles.hpp"
#include "util/vec3.hpp"

namespace bat::testing {

/// Unique temp directory removed on destruction.
class TempDir {
public:
    explicit TempDir(const std::string& prefix = "bat_test") {
        static std::atomic<int> counter{0};
        path_ = std::filesystem::temp_directory_path() /
                (prefix + "_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter.fetch_add(1)));
        std::filesystem::create_directories(path_);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    const std::filesystem::path& path() const { return path_; }

private:
    std::filesystem::path path_;
};

/// Brute-force reference: indices of particles inside `box` (and matching
/// an optional attribute range).
inline std::vector<std::size_t> brute_force_query(const ParticleSet& set, const Box& box,
                                                  bool inclusive_upper = true, int attr = -1,
                                                  double lo = 0, double hi = 0) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < set.count(); ++i) {
        const Vec3 p = set.position(i);
        bool inside;
        if (inclusive_upper) {
            inside = box.contains(p);
        } else {
            inside = p.x >= box.lower.x && p.x < box.upper.x && p.y >= box.lower.y &&
                     p.y < box.upper.y && p.z >= box.lower.z && p.z < box.upper.z;
        }
        if (!inside) {
            continue;
        }
        if (attr >= 0) {
            const double v = set.attr(static_cast<std::size_t>(attr))[i];
            if (v < lo || v > hi) {
                continue;
            }
        }
        out.push_back(i);
    }
    return out;
}

/// Sort key for comparing particle populations irrespective of order.
struct ParticleKey {
    float x, y, z;
    std::vector<double> attrs;

    bool operator<(const ParticleKey& o) const {
        if (x != o.x) return x < o.x;
        if (y != o.y) return y < o.y;
        if (z != o.z) return z < o.z;
        return attrs < o.attrs;
    }
    bool operator==(const ParticleKey& o) const {
        return x == o.x && y == o.y && z == o.z && attrs == o.attrs;
    }
};

/// One key per particle, in the set's order (for checks on emission order).
inline std::vector<ParticleKey> particle_sequence(const ParticleSet& set) {
    std::vector<ParticleKey> keys(set.count());
    for (std::size_t i = 0; i < set.count(); ++i) {
        const Vec3 p = set.position(i);
        keys[i].x = p.x;
        keys[i].y = p.y;
        keys[i].z = p.z;
        keys[i].attrs.resize(set.num_attrs());
        for (std::size_t a = 0; a < set.num_attrs(); ++a) {
            keys[i].attrs[a] = set.attr(a)[i];
        }
    }
    return keys;
}

inline std::vector<ParticleKey> particle_keys(const ParticleSet& set) {
    std::vector<ParticleKey> keys = particle_sequence(set);
    std::sort(keys.begin(), keys.end());
    return keys;
}

}  // namespace bat::testing
