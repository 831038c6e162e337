#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/contracts.hpp"

namespace daiet {

std::size_t LogHistogram::bucket_of(double x) noexcept {
    if (!(x >= 1.0)) return 0;  // underflow (and filters NaN at add())
    int exp = 0;
    const double frac = std::frexp(x, &exp);  // x = frac * 2^exp, frac in [0.5, 1)
    const int octave = exp - 1;               // x = m * 2^octave, m in [1, 2)
    if (octave >= static_cast<int>(kOctaves)) return kBuckets - 1;
    auto sub = static_cast<std::size_t>((frac * 2.0 - 1.0) * static_cast<double>(kSubBuckets));
    sub = std::min(sub, kSubBuckets - 1);
    return 1 + static_cast<std::size_t>(octave) * kSubBuckets + sub;
}

double LogHistogram::bucket_mid(std::size_t index) noexcept {
    if (index == 0) return 0.5;
    const std::size_t octave = (index - 1) / kSubBuckets;
    const std::size_t sub = (index - 1) % kSubBuckets;
    const double m = 1.0 + (static_cast<double>(sub) + 0.5) / static_cast<double>(kSubBuckets);
    return std::ldexp(m, static_cast<int>(octave));
}

void LogHistogram::add(double x) noexcept {
    if (std::isnan(x)) return;
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++counts_[bucket_of(x)];
    ++n_;
    sum_ += x;
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    n_ += other.n_;
    sum_ += other.sum_;
}

double LogHistogram::quantile(double q) const noexcept {
    if (n_ == 0) return 0.0;
    if (q <= 0.0) return min_;
    if (q >= 1.0) return max_;
    // 1-based rank of the order statistic nearest to q (same convention
    // as Samples::percentile rounded to a sample).
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1) + 0.5) + 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        cum += counts_[i];
        if (cum >= target) {
            return std::clamp(bucket_mid(i), min_, max_);
        }
    }
    return max_;
}

double Samples::mean() const noexcept {
    if (xs_.empty()) return 0.0;
    return sum() / static_cast<double>(xs_.size());
}

double Samples::sum() const noexcept {
    return std::accumulate(xs_.begin(), xs_.end(), 0.0);
}

void Samples::sort_if_needed() const {
    if (!sorted_) {
        std::sort(xs_.begin(), xs_.end());
        sorted_ = true;
    }
}

double Samples::percentile(double p) const {
    DAIET_EXPECTS(p >= 0.0 && p <= 100.0);
    DAIET_EXPECTS(!xs_.empty());
    sort_if_needed();
    if (xs_.size() == 1) return xs_.front();
    const double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= xs_.size()) return xs_.back();
    return xs_[lo] * (1.0 - frac) + xs_[lo + 1] * frac;
}

BoxPlot BoxPlot::of(const Samples& s) {
    DAIET_EXPECTS(!s.empty());
    BoxPlot b;
    b.min = s.percentile(0.0);
    b.q1 = s.percentile(25.0);
    b.median = s.percentile(50.0);
    b.q3 = s.percentile(75.0);
    b.max = s.percentile(100.0);
    b.mean = s.mean();
    b.n = s.count();
    return b;
}

std::string BoxPlot::to_string(int precision) const {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "min=%.*f q1=%.*f median=%.*f q3=%.*f max=%.*f (mean=%.*f, n=%zu)",
                  precision, min, precision, q1, precision, median, precision, q3,
                  precision, max, precision, mean, n);
    return std::string{buf};
}

}  // namespace daiet
