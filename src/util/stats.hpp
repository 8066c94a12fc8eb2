#pragma once
// Small statistics helpers used by the benchmark harnesses: the paper
// reports the geometric mean of bandwidth over 15 write/read repetitions
// (following the IO500 methodology) and mean/stddev of output file sizes.

#include <cstddef>
#include <span>
#include <vector>

namespace bat {

double mean(std::span<const double> xs);
double stddev(std::span<const double> xs);  // population stddev
double geomean(std::span<const double> xs);
double median(std::vector<double> xs);  // by value: needs to sort
double percentile(std::vector<double> xs, double p);  // p in [0,100]

/// Online accumulator for min/max/mean/stddev without storing samples.
class RunningStats {
public:
    void add(double x);
    /// Combine with another accumulator as if both sample streams had been
    /// added to one (parallel Welford / Chan et al. pairwise update).
    void merge(const RunningStats& other);
    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double stddev() const;
    double min() const { return min_; }
    double max() const { return max_; }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

}  // namespace bat
