#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace bat {

double mean(std::span<const double> xs) {
    if (xs.empty()) {
        return 0.0;
    }
    double s = 0.0;
    for (double x : xs) {
        s += x;
    }
    return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
    if (xs.size() < 2) {
        return 0.0;
    }
    const double m = mean(xs);
    double s = 0.0;
    for (double x : xs) {
        s += (x - m) * (x - m);
    }
    return std::sqrt(s / static_cast<double>(xs.size()));
}

double geomean(std::span<const double> xs) {
    if (xs.empty()) {
        return 0.0;
    }
    double logsum = 0.0;
    for (double x : xs) {
        BAT_CHECK_MSG(x > 0.0, "geomean requires positive samples");
        logsum += std::log(x);
    }
    return std::exp(logsum / static_cast<double>(xs.size()));
}

double median(std::vector<double> xs) {
    if (xs.empty()) {
        return 0.0;
    }
    const std::size_t mid = xs.size() / 2;
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid), xs.end());
    double hi = xs[mid];
    if (xs.size() % 2 == 1) {
        return hi;
    }
    const double lo = *std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lo + hi);
}

double percentile(std::vector<double> xs, double p) {
    if (xs.empty()) {
        return 0.0;
    }
    BAT_CHECK(p >= 0.0 && p <= 100.0);
    std::sort(xs.begin(), xs.end());
    const double idx = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
    if (other.n_ == 0) {
        return;
    }
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ += other.n_;
}

double RunningStats::stddev() const {
    if (n_ < 2) {
        return 0.0;
    }
    return std::sqrt(m2_ / static_cast<double>(n_));
}

}  // namespace bat
