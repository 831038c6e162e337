// TelemetryService: the telemetry tenant deployed on a ClusterRuntime
// fabric, the way KvService deploys the kv workload.
//
// Attaches a TelemetrySwitchProgram to every programmable switch
// through the runtime's switch-program registry — each
// charged to its chip's SramBook alongside the resident DAIET and kv
// tenants, which is the three-family arbiter stress the ROADMAP asked
// for — makes each chip addressable by installing its virtual address
// into the fabric's routing tables, and runs a TelemetryCollector on a
// chosen host.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/cluster.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/switch_program.hpp"

namespace daiet::telemetry {

struct TelemetryOptions {
    TelemetryConfig config{};
    /// Index (into ClusterRuntime::hosts()) of the collector host.
    std::size_t collector_host{0};
};

class TelemetryService {
public:
    TelemetryService(rt::ClusterRuntime& rt, TelemetryOptions options = {});

    TelemetryService(const TelemetryService&) = delete;
    TelemetryService& operator=(const TelemetryService&) = delete;

    TelemetryCollector& collector() noexcept { return *collector_; }
    const TelemetryCollector& collector() const noexcept { return *collector_; }

    /// The telemetry tenant on switch `node`; nullptr when the switch
    /// is not programmable.
    TelemetrySwitchProgram* program_at(sim::NodeId node) const;
    std::size_t num_programs() const noexcept { return programs_.size(); }

    /// Begin polling every instrumented switch each `interval`, ending
    /// at `horizon` (the workload's expected completion time; bounded
    /// so the simulation quiesces).
    void start(sim::SimTime interval, sim::SimTime horizon) {
        collector_->start(interval, horizon);
    }

private:
    std::vector<std::shared_ptr<TelemetrySwitchProgram>> programs_;
    std::unique_ptr<TelemetryCollector> collector_;
};

}  // namespace daiet::telemetry
