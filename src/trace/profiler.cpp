#include "trace/profiler.hpp"

#include <algorithm>

namespace daiet::trace {

namespace detail {
bool g_prof_enabled = false;
}  // namespace detail

Profiler& Profiler::instance() {
    static Profiler p;
    return p;
}

void Profiler::enable() {
    reset();
    // Calibration anchor: report() divides the steady_clock ns elapsed
    // since here by the ticks elapsed to turn raw tick sums into ns.
    calib_ticks0_ = now_ticks();
    calib_ns0_ = now_ns();
    detail::g_prof_enabled = true;
}

void Profiler::disable() { detail::g_prof_enabled = false; }

void Profiler::reset() {
    for (Slot& s : slots_) s = Slot{};
    wall_ticks_ = 0;
    run_t0_ = 0;
    calib_ticks0_ = 0;
    calib_ns0_ = 0;
}

double Profiler::ns_per_tick() const noexcept {
    const std::uint64_t ticks = now_ticks() - calib_ticks0_;
    const std::uint64_t ns = now_ns() - calib_ns0_;
    if (calib_ticks0_ == 0 || ticks == 0 || ns == 0) return 1.0;
    return static_cast<double>(ns) / static_cast<double>(ticks);
}

Profiler::Report Profiler::report() const {
    Report r;
    const double scale = ns_per_tick();
    const auto to_ns = [scale](std::uint64_t ticks) {
        return static_cast<std::uint64_t>(static_cast<double>(ticks) * scale);
    };
    r.wall_ns = to_ns(wall_ticks_);
    std::uint64_t exec_max = 0;
    std::uint64_t exec_min = 0;
    for (std::size_t i = 0; i < kMaxLanes; ++i) {
        const Slot& s = slots_[i];
        if (s.exec_ticks == 0 && s.barrier_ticks == 0 && s.drain_ticks == 0 &&
            s.windows == 0) {
            continue;
        }
        LaneReport lane;
        lane.lane = i;
        lane.exec_ns = to_ns(s.exec_ticks);
        lane.barrier_ns = to_ns(s.barrier_ticks);
        lane.drain_ns = to_ns(s.drain_ticks);
        lane.windows = s.windows;
        lane.events = s.events;
        r.lanes.push_back(lane);
        r.exec_ns += lane.exec_ns;
        r.barrier_ns += lane.barrier_ns;
        r.drain_ns += lane.drain_ns;
        r.events += s.events;
        exec_max = std::max(exec_max, lane.exec_ns);
        exec_min = r.lanes.size() == 1 ? lane.exec_ns
                                       : std::min(exec_min, lane.exec_ns);
    }
    // Without an explicit begin_run/end_run bracket (synthetic add_*
    // calls under a unit test), the critical path is the slowest lane's
    // exec time.
    if (r.wall_ns == 0) r.wall_ns = exec_max;
    if (r.wall_ns > 0) {
        bool first = true;
        for (LaneReport& lane : r.lanes) {
            lane.utilization =
                static_cast<double>(lane.exec_ns) / static_cast<double>(r.wall_ns);
            r.utilization_min = first
                                    ? lane.utilization
                                    : std::min(r.utilization_min, lane.utilization);
            r.utilization_max = std::max(r.utilization_max, lane.utilization);
            first = false;
        }
    }
    if (exec_min > 0) {
        r.imbalance =
            static_cast<double>(exec_max) / static_cast<double>(exec_min);
    }
    return r;
}

}  // namespace daiet::trace
