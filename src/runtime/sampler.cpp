#include "runtime/sampler.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/tenancy.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "netsim/link.hpp"
#include "netsim/network.hpp"
#include "netsim/switch_node.hpp"
#include "runtime/cluster.hpp"

namespace daiet::rt {

FabricSampler::FabricSampler(ClusterRuntime& rt, std::uint64_t period_ns,
                             std::size_t capacity)
    : rt_{rt}, sampler_{period_ns}, capacity_{capacity} {}

void FabricSampler::add_probe(std::string_view name, std::string_view node,
                              std::function<double()> fn) {
    trace::TimeSeries& track = trace::timeseries().track(name, node, capacity_);
    sampler_.add(track, std::move(fn));
}

void FabricSampler::add_fabric_probes() {
    for (const auto& owned : rt_.network().links()) {
        sim::Link* link = owned.get();
        for (const int side : {0, 1}) {
            const std::string from = link->end_of(side).name();
            const std::string name = "queue.bytes->" + link->peer_of(side).name();
            add_probe(name, from, [link, side] {
                return static_cast<double>(link->backlog_bytes(side));
            });
        }
    }
    for (sim::PipelineSwitchNode* sw : rt_.daiet_switches()) {
        add_probe("sram.used_bytes", sw->name(), [sw] {
            return static_cast<double>(sw->chip().sram().used_bytes());
        });
        const SwitchProgramMux* mux = rt_.mux_at(sw->id());
        if (mux == nullptr) continue;
        // Tenant set is fixed after cluster setup, so one track per
        // tenant registered now covers the whole run. Resolve each
        // tenant to its program pointer HERE: sram_report() builds a
        // vector of name/byte pairs, and a probe runs once per sample
        // per tenant — allocating that report inside the hot sampling
        // loop is exactly the kind of observer cost the profiler's
        // drain lane would then charge back to us.
        for (const auto& entry : mux->sram_report()) {
            const std::string& tenant = entry.first;
            if (TenantProgram* prog = rt_.tenant_at(sw->id(), tenant)) {
                add_probe("sram." + tenant, sw->name(), [prog] {
                    return static_cast<double>(prog->sram_bytes());
                });
            } else if (tenant == "shared:router") {
                const std::shared_ptr<FabricRouter> router =
                    rt_.router_at(sw->id());
                add_probe("sram." + tenant, sw->name(), [router] {
                    return static_cast<double>(router->sram_bytes());
                });
            }
        }
    }
}

void FabricSampler::start(sim::SimTime horizon) {
    if (rt_.network().parallel() != nullptr) {
        throw std::runtime_error{
            "FabricSampler: refuses a partitioned fabric — its probes read "
            "every shard's state from one shard's events; sample a sequential run"};
    }
    pump(horizon);
}

void FabricSampler::pump(sim::SimTime horizon) {
    sim::Simulator& simulator = rt_.simulator();
    sampler_.sample(static_cast<std::uint64_t>(simulator.now()));
    const sim::SimTime next =
        simulator.now() + static_cast<sim::SimTime>(sampler_.period());
    if (sampler_.period() == 0 || next > horizon) return;
    simulator.schedule_at(next, [this, horizon] { pump(horizon); });
}

}  // namespace daiet::rt
