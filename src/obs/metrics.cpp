#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "sched/sched.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace bat::obs {

namespace {

// Schedule-exploration annotation for the registry maps (one relaxed load
// when disarmed). Find-or-create accessors count as writes: they may insert.
void note_registry_access(const void* reg, bool is_write) {
    if (sched::maybe_active()) {
        sched::note_access(reg, "obs.metrics", is_write);
    }
}

}  // namespace

// ---- Histogram ------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    BAT_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                  "histogram bucket bounds must be ascending");
    counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::record(double x) {
    // lower_bound keeps the edges inclusive: x == bounds_[i] lands in bucket i.
    const std::size_t bucket =
        static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), x) -
                                 bounds_.begin());
    std::lock_guard<std::mutex> lock(mutex_);
    ++counts_[bucket];
    stats_.add(x);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
}

RunningStats Histogram::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

namespace {

/// Shared quantile estimator over a bucket-count snapshot: find the bucket
/// holding rank q*total, interpolate linearly inside it, clamp to the
/// observed extremes.
double percentile_impl(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts,
                       const RunningStats& stats, double q) {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) {
        total += c;
    }
    if (total == 0) {
        return 0.0;
    }
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * static_cast<double>(total);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) {
            continue;
        }
        const double next = static_cast<double>(cum + counts[i]);
        if (next >= target) {
            // Bucket i covers (lo, hi]; the first and overflow buckets use
            // the observed extremes as their missing edge.
            const double lo = i == 0 ? stats.min() : bounds[i - 1];
            const double hi = i < bounds.size() ? bounds[i] : stats.max();
            const double frac =
                (target - static_cast<double>(cum)) / static_cast<double>(counts[i]);
            const double v = lo + frac * (hi - lo);
            return std::min(stats.max(), std::max(stats.min(), v));
        }
        cum += counts[i];
    }
    return stats.max();
}

}  // namespace

double Histogram::percentile(double q) const {
    std::vector<std::uint64_t> counts;
    RunningStats stats;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counts = counts_;
        stats = stats_;
    }
    return percentile_impl(bounds_, counts, stats, q);
}

// ---- MetricsRegistry ------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
    static MetricsRegistry registry;
    return registry;
}

std::vector<double> MetricsRegistry::default_us_bounds() {
    // Powers of four: 1us, 4us, ..., ~17.9 minutes; 16 buckets + overflow.
    std::vector<double> bounds;
    double b = 1.0;
    for (int i = 0; i < 16; ++i) {
        bounds.push_back(b);
        b *= 4.0;
    }
    return bounds;
}

std::vector<double> MetricsRegistry::hdr_us_bounds() {
    // 4 sub-buckets per octave, 1us .. 2^19us (~8.7 min): 1, 1.25, 1.5,
    // 1.75, 2, 2.5, ... — 76 buckets + overflow.
    std::vector<double> bounds;
    bounds.reserve(76);
    for (int octave = 0; octave < 19; ++octave) {
        const double base = static_cast<double>(1u << octave);
        for (int sub = 0; sub < 4; ++sub) {
            bounds.push_back(base * (1.0 + 0.25 * sub));
        }
    }
    return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
    std::lock_guard<CheckedMutex> lock(mutex_);
    note_registry_access(this, /*is_write=*/true);
    auto& slot = counters_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Counter>();
    }
    return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    std::lock_guard<CheckedMutex> lock(mutex_);
    note_registry_access(this, /*is_write=*/true);
    auto& slot = gauges_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Gauge>();
    }
    return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
    std::lock_guard<CheckedMutex> lock(mutex_);
    note_registry_access(this, /*is_write=*/true);
    auto& slot = histograms_[name];
    if (slot == nullptr) {
        slot = std::make_unique<Histogram>(bounds.empty() ? default_us_bounds()
                                                          : std::move(bounds));
    }
    return *slot;
}

void MetricsRegistry::clear() {
    std::lock_guard<CheckedMutex> lock(mutex_);
    note_registry_access(this, /*is_write=*/true);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counter_values()
    const {
    std::lock_guard<CheckedMutex> lock(mutex_);
    note_registry_access(this, /*is_write=*/false);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
        out.emplace_back(name, c->value());
    }
    return out;
}

void MetricsRegistry::write_members(json::Writer& w) const {
    std::lock_guard<CheckedMutex> lock(mutex_);
    w.key("counters").begin_object();
    for (const auto& [name, c] : counters_) {
        w.field(name, c->value());
    }
    w.end_object().key("gauges").begin_object();
    for (const auto& [name, g] : gauges_) {
        w.field(name, g->value());
    }
    w.end_object().key("histograms").begin_object();
    for (const auto& [name, h] : histograms_) {
        const RunningStats stats = h->stats();
        const std::vector<std::uint64_t> counts = h->bucket_counts();
        const std::vector<double>& bounds = h->bounds();
        w.key(name).begin_object();
        w.field("count", stats.count()).field("mean", stats.mean());
        w.field("stddev", stats.stddev()).field("min", stats.min());
        w.field("max", stats.max());
        w.field("p50", percentile_impl(bounds, counts, stats, 0.50));
        w.field("p90", percentile_impl(bounds, counts, stats, 0.90));
        w.field("p99", percentile_impl(bounds, counts, stats, 0.99));
        w.key("buckets").begin_array();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            w.begin_object();
            if (i < bounds.size()) {
                w.field("le", bounds[i]);
            } else {
                w.field("le", "inf");
            }
            w.field("count", counts[i]).end_object();
        }
        w.end_array().end_object();
    }
    w.end_object();
}

std::string MetricsRegistry::to_json() const {
    std::string out;
    json::Writer w(out);
    w.begin_object();
    write_members(w);
    w.end_object();
    return out;
}

}  // namespace bat::obs
