#include "core/particles.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace bat {

ParticleSet::ParticleSet(std::vector<std::string> attr_names)
    : attr_names_(std::move(attr_names)), attrs_(attr_names_.size()) {}

std::size_t ParticleSet::attr_index(const std::string& name) const {
    const auto it = std::find(attr_names_.begin(), attr_names_.end(), name);
    BAT_CHECK_MSG(it != attr_names_.end(), "unknown attribute '" << name << "'");
    return static_cast<std::size_t>(it - attr_names_.begin());
}

void ParticleSet::reserve(std::size_t n) {
    positions_.reserve(3 * n);
    for (auto& a : attrs_) {
        a.reserve(n);
    }
}

void ParticleSet::resize(std::size_t n) {
    positions_.resize(3 * n);
    for (auto& a : attrs_) {
        a.resize(n);
    }
}

void ParticleSet::push_back(Vec3 p, std::span<const double> attr_values) {
    BAT_CHECK_MSG(attr_values.size() == attrs_.size(),
                  "expected " << attrs_.size() << " attribute values, got "
                              << attr_values.size());
    positions_.push_back(p.x);
    positions_.push_back(p.y);
    positions_.push_back(p.z);
    for (std::size_t a = 0; a < attrs_.size(); ++a) {
        attrs_[a].push_back(attr_values[a]);
    }
}

void ParticleSet::append(const ParticleSet& other) {
    BAT_CHECK_MSG(other.attr_names_ == attr_names_, "schema mismatch in append");
    positions_.insert(positions_.end(), other.positions_.begin(), other.positions_.end());
    for (std::size_t a = 0; a < attrs_.size(); ++a) {
        attrs_[a].insert(attrs_[a].end(), other.attrs_[a].begin(), other.attrs_[a].end());
    }
}

void ParticleSet::append_from(const ParticleSet& other, std::size_t i) {
    BAT_CHECK(other.attr_names_.size() == attr_names_.size());
    positions_.push_back(other.positions_[3 * i]);
    positions_.push_back(other.positions_[3 * i + 1]);
    positions_.push_back(other.positions_[3 * i + 2]);
    for (std::size_t a = 0; a < attrs_.size(); ++a) {
        attrs_[a].push_back(other.attrs_[a][i]);
    }
}

Box ParticleSet::bounds() const {
    Box b;
    for (std::size_t i = 0; i < count(); ++i) {
        b.extend(position(i));
    }
    return b;
}

void ParticleSet::copy_from(const ParticleSet& src, std::size_t at) {
    BAT_CHECK_MSG(src.attr_names_ == attr_names_, "schema mismatch in copy_from");
    BAT_CHECK_MSG(at + src.count() <= count(), "copy_from past the end of the set");
    std::copy(src.positions_.begin(), src.positions_.end(),
              positions_.begin() + static_cast<std::ptrdiff_t>(3 * at));
    for (std::size_t a = 0; a < attrs_.size(); ++a) {
        std::copy(src.attrs_[a].begin(), src.attrs_[a].end(),
                  attrs_[a].begin() + static_cast<std::ptrdiff_t>(at));
    }
}

void ParticleSet::deplane_positions(float* xs, float* ys, float* zs,
                                    ThreadPool* pool) const {
    constexpr std::size_t kGrain = std::size_t{1} << 14;
    parallel_ranges(pool, count(), kGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            xs[i] = positions_[3 * i];
            ys[i] = positions_[3 * i + 1];
            zs[i] = positions_[3 * i + 2];
        }
    });
}

void ParticleSet::reorder(std::span<const std::uint32_t> order, ThreadPool* pool) {
    BAT_CHECK(order.size() == count());
    constexpr std::size_t kGrain = std::size_t{1} << 14;
    std::vector<float> pos(positions_.size());
    parallel_ranges(pool, order.size(), kGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t src = order[i];
            pos[3 * i] = positions_[3 * src];
            pos[3 * i + 1] = positions_[3 * src + 1];
            pos[3 * i + 2] = positions_[3 * src + 2];
        }
    });
    positions_ = std::move(pos);
    reorder_attrs(order, pool);
}

void ParticleSet::reorder_attrs(std::span<const std::uint32_t> order, ThreadPool* pool) {
    BAT_CHECK(order.size() == count());
    constexpr std::size_t kGrain = std::size_t{1} << 14;
    for (auto& attr : attrs_) {
        std::vector<double> tmp(attr.size());
        const double* src = attr.data();
        double* dst = tmp.data();
        parallel_ranges(pool, order.size(), kGrain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                dst[i] = src[order[i]];
            }
        });
        attr = std::move(tmp);
    }
}

std::pair<double, double> ParticleSet::attr_range(std::size_t a) const {
    BAT_CHECK(a < attrs_.size());
    if (attrs_[a].empty()) {
        return {0.0, 0.0};
    }
    double lo = 0.0;
    double hi = 0.0;
    simd::minmax_f64(attrs_[a].data(), attrs_[a].size(), &lo, &hi);
    return {lo, hi};
}

void ParticleSet::serialize_header(BufferWriter& w, std::uint64_t n,
                                   std::span<const std::string> attr_names) {
    w.write(n);
    w.write(static_cast<std::uint32_t>(attr_names.size()));
    for (const auto& name : attr_names) {
        w.write_string(name);
    }
}

void ParticleSet::serialize(BufferWriter& w) const {
    serialize_header(w, count(), attr_names_);
    w.write_span(std::span<const float>(positions_));
    for (const auto& a : attrs_) {
        w.write_span(std::span<const double>(a));
    }
}

ParticleSet ParticleSet::deserialize(BufferReader& r) {
    const auto n = r.read<std::uint64_t>();
    const auto nattrs = r.read<std::uint32_t>();
    std::vector<std::string> names(nattrs);
    for (auto& name : names) {
        name = r.read_string();
    }
    ParticleSet set(std::move(names));
    set.positions_.resize(3 * n);
    r.read_into(std::span<float>(set.positions_));
    for (auto& a : set.attrs_) {
        a.resize(n);
        r.read_into(std::span<double>(a));
    }
    return set;
}

std::vector<std::byte> ParticleSet::to_bytes() const {
    BufferWriter w(payload_bytes() + 64);
    serialize(w);
    return w.take();
}

ParticleSet ParticleSet::from_bytes(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    return deserialize(r);
}

std::size_t ParticleSet::deserialize_into(std::span<const std::byte> bytes,
                                          std::size_t at) {
    BufferReader r(bytes);
    const auto n = static_cast<std::size_t>(r.read<std::uint64_t>());
    const auto nattrs = r.read<std::uint32_t>();
    BAT_CHECK_MSG(nattrs == attrs_.size(),
                  "deserialize_into schema mismatch: payload has " << nattrs
                                                                  << " attrs, set has "
                                                                  << attrs_.size());
    for (const auto& name : attr_names_) {
        const std::string got = r.read_string();
        BAT_CHECK_MSG(got == name, "deserialize_into attr mismatch: payload '"
                                       << got << "' vs set '" << name << "'");
    }
    BAT_CHECK_MSG(at + n <= count(), "deserialize_into past the end of the set");
    r.read_into(std::span<float>(positions_.data() + 3 * at, 3 * n));
    for (auto& a : attrs_) {
        r.read_into(std::span<double>(a.data() + at, n));
    }
    return n;
}

}  // namespace bat
