#pragma once
// Particle container. Follows the paper's array-based attribute storage
// model (like HDF5/ADIOS/Silo): three single-precision spatial coordinates
// per particle plus any number of named double-precision attribute arrays
// (structure-of-arrays).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/buffer.hpp"
#include "util/vec3.hpp"

namespace bat {

class ThreadPool;

class ParticleSet {
public:
    ParticleSet() = default;
    /// Create an empty set with the given attribute names.
    explicit ParticleSet(std::vector<std::string> attr_names);

    std::size_t count() const { return positions_.size() / 3; }
    std::size_t num_attrs() const { return attrs_.size(); }
    bool empty() const { return positions_.empty(); }

    /// Bytes one particle occupies in this set's schema (3*f32 + attrs*f64).
    std::size_t bytes_per_particle() const { return 12 + 8 * attrs_.size(); }
    /// Total payload bytes of the set.
    std::size_t payload_bytes() const { return count() * bytes_per_particle(); }

    const std::vector<std::string>& attr_names() const { return attr_names_; }
    /// Index of a named attribute; throws if absent.
    std::size_t attr_index(const std::string& name) const;

    Vec3 position(std::size_t i) const {
        return {positions_[3 * i], positions_[3 * i + 1], positions_[3 * i + 2]};
    }
    void set_position(std::size_t i, Vec3 p) {
        positions_[3 * i] = p.x;
        positions_[3 * i + 1] = p.y;
        positions_[3 * i + 2] = p.z;
    }

    std::span<const float> positions() const { return positions_; }
    std::span<float> positions_mut() { return positions_; }
    std::span<const double> attr(std::size_t a) const { return attrs_[a]; }
    std::span<double> attr_mut(std::size_t a) { return attrs_[a]; }

    void reserve(std::size_t n);
    void resize(std::size_t n);

    /// Append one particle. `attr_values.size()` must equal num_attrs().
    void push_back(Vec3 p, std::span<const double> attr_values);

    /// Append all particles of `other` (same schema required).
    void append(const ParticleSet& other);

    /// Append particle `i` of `other` (same schema required).
    void append_from(const ParticleSet& other, std::size_t i);

    /// Copy every particle of `src` (same schema required) into slots
    /// [at, at + src.count()); this set must already be resized to hold
    /// them. The zero-copy aggregation path places each sender's particles
    /// at a precomputed offset so arrival order cannot change the result.
    void copy_from(const ParticleSet& src, std::size_t at);

    /// Tight bounding box of all particle positions (empty box if none).
    Box bounds() const;

    /// Deplane the interleaved xyz storage into three SoA coordinate planes
    /// of length count() (the BAT builder's batch-encode / treelet-build
    /// scratch layout). Chunked over `pool` when one is given.
    void deplane_positions(float* xs, float* ys, float* zs,
                           ThreadPool* pool = nullptr) const;

    /// Reorder so particle i moves to position `perm[i]`... precisely:
    /// new[i] = old[order[i]]. `order` must be a permutation of [0, count).
    /// The gather loops are chunked over `pool` when one is given.
    void reorder(std::span<const std::uint32_t> order, ThreadPool* pool = nullptr);

    /// reorder() for the attribute arrays only; positions are untouched.
    /// The BAT build rewrites positions from its own already-permuted
    /// scratch, so gathering them here would be wasted work.
    void reorder_attrs(std::span<const std::uint32_t> order, ThreadPool* pool = nullptr);

    /// (min, max) of attribute `a`; (0, 0) for an empty set.
    std::pair<double, double> attr_range(std::size_t a) const;

    // ---- serialization (wire format for aggregation transfers) ----------
    void serialize(BufferWriter& w) const;
    static ParticleSet deserialize(BufferReader& r);
    std::vector<std::byte> to_bytes() const;
    static ParticleSet from_bytes(std::span<const std::byte> bytes);

    /// Deserialize a wire payload (as produced by to_bytes) directly into
    /// slots [at, at + payload count) of this pre-sized set — no
    /// intermediate ParticleSet. The payload's schema must match. Returns
    /// the number of particles placed.
    std::size_t deserialize_into(std::span<const std::byte> bytes, std::size_t at);

    /// Write the wire header for `n` particles with these attribute names:
    /// the u64 count, the u32 attribute count and each name (u32 length,
    /// bytes). serialize() follows it with the interleaved positions and
    /// then each attribute column; writers that place those columns
    /// themselves start from this header.
    static void serialize_header(BufferWriter& w, std::uint64_t n,
                                 std::span<const std::string> attr_names);

private:
    std::vector<float> positions_;  // xyz interleaved
    std::vector<std::string> attr_names_;
    std::vector<std::vector<double>> attrs_;  // [attr][particle]
};

}  // namespace bat
