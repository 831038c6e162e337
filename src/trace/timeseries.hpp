// Time-series counter tracks: continuous signals on a sim-time cadence.
//
// PR 7's tracer answers "what happened to this request"; these tracks
// answer "how did the fabric evolve" — queue depth, SRAM pressure,
// cache hit rate, retransmit counts sampled every N sim-nanoseconds
// into fixed-memory rings and exported as Perfetto counter tracks
// (ph:"C") next to the instant events, so a trace shows a congestion
// ramp as a curve above the drops it caused.
//
// Memory model mirrors the tracer's ring mode: each series is a
// fixed-capacity ring of (sim_ts, value) points, so a long run keeps
// the most recent window instead of growing without bound. Probes are
// registered at setup time; sampling is driven by a self-rescheduling
// sim event (runtime/sampler.hpp), on sequential runs only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace daiet::trace {

struct TsPoint {
    std::uint64_t ts{0};  ///< sim time, ns
    double value{0.0};
};

/// One named counter track: fixed ring of samples, single writer.
class TimeSeries {
public:
    TimeSeries(std::string name, std::string node, std::size_t capacity)
        : name_{std::move(name)}, node_{std::move(node)},
          ring_(capacity > 0 ? capacity : 1) {}

    const std::string& name() const noexcept { return name_; }
    const std::string& node() const noexcept { return node_; }
    std::size_t capacity() const noexcept { return ring_.size(); }

    void push(std::uint64_t ts, double value) noexcept {
        // Wrapping index instead of `total_ % size`: push runs once per
        // probe per sample, and the integer division is the single most
        // expensive instruction this function would otherwise execute.
        ring_[head_] = TsPoint{ts, value};
        if (++head_ == ring_.size()) head_ = 0;
        ++total_;
    }

    /// Points ever pushed (>= held()).
    std::uint64_t total() const noexcept { return total_; }
    /// Points currently held in the ring.
    std::size_t held() const noexcept {
        return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                     : ring_.size();
    }

    /// Held points in push order (oldest first).
    std::vector<TsPoint> snapshot() const {
        std::vector<TsPoint> out;
        const std::size_t n = held();
        out.reserve(n);
        const std::uint64_t start = total_ - n;
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(ring_[(start + i) % ring_.size()]);
        }
        return out;
    }

    void clear() noexcept {
        total_ = 0;
        head_ = 0;
    }

private:
    std::string name_;
    std::string node_;
    std::vector<TsPoint> ring_;
    std::size_t head_{0};  ///< next write position (== total_ mod size)
    std::uint64_t total_{0};
};

/// Process-wide home for tracks, so the Chrome-trace exporter can find
/// every series without threading objects through call sites (the same
/// singleton shape as Tracer and MetricsRegistry). Create tracks at
/// setup time only; push is lock-free single-writer.
class TimeSeriesRegistry {
public:
    static TimeSeriesRegistry& instance();

    /// Find-or-create by (name, node). Capacity applies on creation.
    TimeSeries& track(std::string_view name, std::string_view node = {},
                      std::size_t capacity = kDefaultCapacity);

    bool empty() const noexcept { return series_.empty(); }
    std::size_t size() const noexcept { return series_.size(); }
    const std::deque<TimeSeries>& series() const noexcept { return series_; }

    void clear();

    static constexpr std::size_t kDefaultCapacity = 1024;

private:
    TimeSeriesRegistry() = default;
    std::deque<TimeSeries> series_;  // deque: references stay valid
};

inline TimeSeriesRegistry& timeseries() { return TimeSeriesRegistry::instance(); }

/// Scrapes a set of probes into their tracks on a fixed sim-time
/// cadence. Owns no sim machinery: the caller decides when "now"
/// advances (FabricSampler pumps it from a self-rescheduling event).
class TsSampler {
public:
    explicit TsSampler(std::uint64_t period_ns) : period_{period_ns} {}

    void add(TimeSeries& track, std::function<double()> fn) {
        probes_.push_back(Probe{&track, std::move(fn)});
    }

    std::uint64_t period() const noexcept { return period_; }
    std::size_t probes() const noexcept { return probes_.size(); }
    std::uint64_t samples_taken() const noexcept { return samples_; }

    /// Unconditionally scrape every probe, stamping `now`.
    void sample(std::uint64_t now) {
        for (Probe& p : probes_) p.track->push(now, p.fn());
        ++samples_;
    }

private:
    struct Probe {
        TimeSeries* track;
        std::function<double()> fn;
    };
    std::vector<Probe> probes_;
    std::uint64_t period_;
    std::uint64_t samples_{0};
};

}  // namespace daiet::trace
