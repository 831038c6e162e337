// Sim self-profiler: per-shard wall-time attribution for the
// conservative-window parallel driver.
//
// Answers "where does the parallel run's wall time go?" with numbers
// instead of guesses: every shard slot accumulates how long its event
// windows took to EXECUTE, how long its worker sat at the inter-window
// BARRIER, and how long the coordinator spent DRAINING mailboxes and
// sizing windows. The summary turns those into per-shard utilization
// (exec / run wall-clock) and an imbalance ratio (max/min shard exec).
// Only the parallel driver (netsim/parallel.cpp) feeds it; a sequential
// run has no windows to attribute.
//
// Cost model mirrors trace::enabled(): profiling is OFF by default and
// every hook is a single predictable branch on a plain global. When ON,
// the parallel driver threads ONE chained clock through each worker's
// loop — every read closes one span (exec, barrier, drain) and opens
// the next, never per event and never a begin/end pair. The
// conservative driver runs tens of thousands of windows per second, so
// the clock itself must be cheap too: on x86-64 the hooks read the raw
// TSC (a few ns, even in containers where clock_gettime is a slow
// path) and the tick sums are converted to ns once, at report time,
// against a steady_clock calibration bracket taken across
// enable()..report().
//
// Threading contract (TSan-proof, no atomics on the hot path): slot i's
// exec fields are written only by the worker executing shard i's window
// (the inter-window barrier hands shards off); slot j's barrier/drain
// fields are written only by worker j; the wall clock only by the
// thread driving run(). Reports are taken after the workers joined.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace daiet::trace {

namespace detail {
/// Backing flag for profiling(); flip only through Profiler.
extern bool g_prof_enabled;
}  // namespace detail

/// The per-hook gate: an inline read of a plain global, the same idiom
/// as trace::enabled().
inline bool profiling() noexcept { return detail::g_prof_enabled; }

class Profiler {
public:
    /// Fixed slot count: no allocation ever, and a shard index beyond
    /// the table clamps into the last slot (aggregate overflow bucket)
    /// instead of writing out of bounds.
    static constexpr std::size_t kMaxLanes = 64;

    static Profiler& instance();

    /// Zero every slot and start accumulating.
    void enable();
    /// Stop accumulating (slots keep their numbers for report()).
    void disable();
    void reset();

    static std::uint64_t now_ns() noexcept {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /// The hot-path clock: raw TSC ticks on x86-64 (invariant-TSC
    /// machines; a few ns per read), steady_clock ns elsewhere (the
    /// calibration ratio then converges to 1.0). All hook arguments are
    /// in THESE units; report() converts to ns.
    static std::uint64_t now_ticks() noexcept {
#if defined(__x86_64__)
        return __builtin_ia32_rdtsc();
#else
        return now_ns();
#endif
    }

    /// One executed window on lane `lane`; `ticks` is a now_ticks() delta.
    void add_exec(std::size_t lane, std::uint64_t ticks,
                  std::uint64_t events) noexcept {
        Slot& s = slot(lane);
        s.exec_ticks += ticks;
        s.events += events;
        ++s.windows;
    }
    /// Ticks worker `lane` spent parked at an inter-window barrier.
    void add_barrier(std::size_t lane, std::uint64_t ticks) noexcept {
        slot(lane).barrier_ticks += ticks;
    }
    /// Coordinator ticks: mailbox drain + window sizing, charged to the
    /// coordinating worker's lane.
    void add_drain(std::size_t lane, std::uint64_t ticks) noexcept {
        slot(lane).drain_ticks += ticks;
    }

    /// Bracket one run() for the wall-clock denominator (accumulates,
    /// so a bench driving several runs reports their sum).
    void begin_run() noexcept { run_t0_ = now_ticks(); }
    void end_run() noexcept {
        if (run_t0_ != 0) wall_ticks_ += now_ticks() - run_t0_;
        run_t0_ = 0;
    }

    struct LaneReport {
        std::size_t lane{0};
        std::uint64_t exec_ns{0};
        std::uint64_t barrier_ns{0};
        std::uint64_t drain_ns{0};
        std::uint64_t windows{0};
        std::uint64_t events{0};
        double utilization{0.0};  ///< exec_ns / report wall_ns
    };
    struct Report {
        std::uint64_t wall_ns{0};  ///< max lane exec when no run bracket ran
        std::uint64_t exec_ns{0};  ///< summed over lanes
        std::uint64_t barrier_ns{0};
        std::uint64_t drain_ns{0};
        std::uint64_t events{0};
        double utilization_min{0.0};
        double utilization_max{0.0};
        /// max/min shard exec time — 1.0 is a perfectly balanced
        /// partition, big numbers name the straggler shard.
        double imbalance{1.0};
        std::vector<LaneReport> lanes;  ///< only lanes that saw work
    };
    Report report() const;

private:
    Profiler() = default;

    /// One cache line per lane: workers never false-share counters.
    struct alignas(64) Slot {
        std::uint64_t exec_ticks{0};
        std::uint64_t barrier_ticks{0};
        std::uint64_t drain_ticks{0};
        std::uint64_t windows{0};
        std::uint64_t events{0};
    };

    Slot& slot(std::size_t lane) noexcept {
        return slots_[lane < kMaxLanes ? lane : kMaxLanes - 1];
    }

    /// ns per now_ticks() tick, from the enable()..now calibration
    /// bracket (1.0 when now_ticks IS steady_clock ns).
    double ns_per_tick() const noexcept;

    Slot slots_[kMaxLanes];
    std::uint64_t wall_ticks_{0};
    std::uint64_t run_t0_{0};
    std::uint64_t calib_ticks0_{0};
    std::uint64_t calib_ns0_{0};
};

inline Profiler& profiler() { return Profiler::instance(); }

}  // namespace daiet::trace
