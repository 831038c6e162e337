// FabricSampler: continuous signals from a live cluster.
//
// Binds a TsSampler to a ClusterRuntime's fabric: per-link-direction
// queue depth, per-switch SRAM occupancy (total and per tenant via
// SwitchProgramMux::sram_report), plus any caller-registered probe
// (services add cache hit/miss and retransmit counters through their
// install_probes hooks). Samples land in the process-wide
// TimeSeriesRegistry, so write_chrome_trace() exports them as Perfetto
// counter tracks with no further plumbing.
//
// A self-rescheduling sim event pumps the sampler every period until
// the horizon. The pump adds events to the schedule but changes no
// outcome. Sequential fabrics only: start() throws on a fabric
// partitioned for the parallel driver.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "netsim/time.hpp"
#include "trace/timeseries.hpp"

namespace daiet::rt {

class ClusterRuntime;

class FabricSampler {
public:
    /// `period_ns` is the sim-time cadence; `capacity` the per-track
    /// ring size. Registers no probes yet — call add_fabric_probes()
    /// and/or add_probe(), then start().
    FabricSampler(ClusterRuntime& rt, std::uint64_t period_ns,
                  std::size_t capacity = trace::TimeSeriesRegistry::kDefaultCapacity);

    FabricSampler(const FabricSampler&) = delete;
    FabricSampler& operator=(const FabricSampler&) = delete;

    /// Queue-depth track per link direction ("queue.bytes-><peer>" at
    /// the sender node) and SRAM tracks per programmable switch
    /// ("sram.used_bytes" plus "sram.<tenant>" from sram_report).
    void add_fabric_probes();

    /// Any scalar the caller can close over; the probe runs inside the
    /// pump's sim event.
    void add_probe(std::string_view name, std::string_view node,
                   std::function<double()> fn);

    /// Begin sampling: pump via sim events until `horizon`. Throws
    /// std::runtime_error on a partitioned fabric.
    void start(sim::SimTime horizon);

    trace::TsSampler& sampler() noexcept { return sampler_; }
    std::uint64_t samples_taken() const noexcept { return sampler_.samples_taken(); }

private:
    void pump(sim::SimTime horizon);

    ClusterRuntime& rt_;
    trace::TsSampler sampler_;
    std::size_t capacity_;
};

}  // namespace daiet::rt
