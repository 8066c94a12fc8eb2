#pragma once
// Metrics registry (docs/OBSERVABILITY.md): named counters, gauges, and
// fixed-bucket histograms, recorded process-wide and exported as JSON in
// the run bundle and embedded in the run report. vmpi ranks are threads of
// one process, so the global registry already sees every rank.
//
// Entry references returned by counter()/gauge()/histogram() stay valid for
// the registry's lifetime; recording on them is thread-safe.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/lock_order.hpp"
#include "util/stats.hpp"

namespace bat::obs {

class Counter {
public:
    void add(std::uint64_t delta = 1) {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

class Gauge {
public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper edges,
/// with an implicit overflow bucket past the last edge. Also tracks
/// min/max/mean/stddev of the raw samples via RunningStats.
class Histogram {
public:
    explicit Histogram(std::vector<double> bounds);

    void record(double x);

    const std::vector<double>& bounds() const { return bounds_; }
    std::vector<std::uint64_t> bucket_counts() const;
    RunningStats stats() const;

    /// Estimate the q-quantile (q in [0, 1]) by linear interpolation inside
    /// the bucket holding the target rank, clamped to the observed
    /// [min, max]. With HDR-style log-spaced buckets (hdr_us_bounds) the
    /// relative error is bounded by the sub-octave resolution. 0 when empty.
    double percentile(double q) const;

private:
    mutable std::mutex mutex_;
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow last)
    RunningStats stats_;
};

class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Process-wide registry used by the built-in instrumentation.
    static MetricsRegistry& global();

    /// Default exponential latency buckets in microseconds (1us .. ~17min).
    static std::vector<double> default_us_bounds();

    /// HDR-style log-bucketed latency bounds in microseconds: every octave
    /// from 1us to ~8.7min split into 4 sub-buckets, so percentile
    /// interpolation stays within ~12% of the true quantile at any scale.
    static std::vector<double> hdr_us_bounds();

    /// Find-or-create; a histogram's bucket bounds are fixed by the first
    /// call (later `bounds` arguments are ignored). Empty bounds mean
    /// default_us_bounds().
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

    /// Drop every entry. Callers must not hold entry references across this.
    void clear();

    /// Point-in-time counter values, name-sorted.
    std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;

    /// Emit the "counters", "gauges" and "histograms" members into an open
    /// JSON object; to_json() wraps them, the run report embeds them.
    void write_members(json::Writer& w) const;
    std::string to_json() const;

private:
    // Guards the maps; entries synchronize themselves. CheckedMutex: the
    // registry participates in lock-order checking and in schedule
    // exploration (find-or-create and snapshots are annotated accesses).
    mutable CheckedMutex mutex_{"obs.metrics"};
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace bat::obs
