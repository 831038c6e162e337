// Descriptive statistics used by the experiment harnesses: exact
// percentiles over stored samples, the five-number summary that backs
// the paper's Figure 3 box plot, and a fixed-memory log histogram.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace daiet {

/// Stores samples; provides exact order statistics.
class Samples {
public:
    void add(double x) { xs_.push_back(x); }
    void reserve(std::size_t n) { xs_.reserve(n); }

    std::size_t count() const noexcept { return xs_.size(); }
    bool empty() const noexcept { return xs_.empty(); }
    double mean() const noexcept;
    double sum() const noexcept;

    /// Exact percentile with linear interpolation, p in [0, 100].
    double percentile(double p) const;

    double min() const { return percentile(0.0); }
    double median() const { return percentile(50.0); }
    double max() const { return percentile(100.0); }

    const std::vector<double>& values() const noexcept { return xs_; }

private:
    mutable std::vector<double> xs_;
    mutable bool sorted_{false};

    void sort_if_needed() const;
};

/// Five-number summary (plus mean) of a sample set — one box of a box plot.
struct BoxPlot {
    double min{0.0};
    double q1{0.0};
    double median{0.0};
    double q3{0.0};
    double max{0.0};
    double mean{0.0};
    std::size_t n{0};

    static BoxPlot of(const Samples& s);

    /// "min=.. q1=.. median=.. q3=.. max=.." with fixed precision.
    std::string to_string(int precision = 2) const;
};

/// Fixed-memory log-bucketed histogram (HdrHistogram-style): 64 octaves
/// of 32 log-linear sub-buckets plus one underflow bucket for x < 1,
/// ~16 KB regardless of sample count. Quantiles come from a bucket walk
/// and carry ≤ ~1.6% relative error (half a sub-bucket width); count,
/// sum, mean, min and max are exact. Backs the metrics registry and the
/// per-op latency paths that previously stored every sample in an
/// unbounded `Samples`.
class LogHistogram {
public:
    static constexpr std::size_t kSubBuckets = 32;  ///< per octave
    static constexpr std::size_t kOctaves = 64;
    static constexpr std::size_t kBuckets = 1 + kOctaves * kSubBuckets;

    /// Record one sample. Values < 1 (latencies are ns, so sub-ns only)
    /// land in the underflow bucket; NaN is ignored.
    void add(double x) noexcept;

    /// Pointwise sum — merge(a,b).quantile == quantile over a∪b within
    /// bucket resolution.
    void merge(const LogHistogram& other) noexcept;

    std::uint64_t count() const noexcept { return n_; }
    bool empty() const noexcept { return n_ == 0; }
    double sum() const noexcept { return sum_; }
    double mean() const noexcept { return n_ > 0 ? sum_ / static_cast<double>(n_) : 0.0; }
    double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
    double max() const noexcept { return n_ > 0 ? max_ : 0.0; }

    /// q in [0, 1]; returns the midpoint of the bucket holding the
    /// rank-q sample, clamped into [min, max] (so q=0/1 are exact).
    double quantile(double q) const noexcept;
    double percentile(double p) const noexcept { return quantile(p / 100.0); }

private:
    static std::size_t bucket_of(double x) noexcept;
    static double bucket_mid(std::size_t index) noexcept;

    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t n_{0};
    double sum_{0.0};
    double min_{0.0};
    double max_{0.0};
};

}  // namespace daiet
