#include "telemetry/service.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace daiet::telemetry {

TelemetryService::TelemetryService(rt::ClusterRuntime& rt, TelemetryOptions options) {
    DAIET_EXPECTS(options.collector_host < rt.hosts().size());
    DAIET_EXPECTS(!rt.daiet_switches().empty());

    collector_ = std::make_unique<TelemetryCollector>(rt.host(options.collector_host));

    std::vector<std::pair<const sim::Node*, sim::HostAddr>> vaddrs;
    vaddrs.reserve(rt.daiet_switches().size());
    for (sim::PipelineSwitchNode* sw : rt.daiet_switches()) {
        const sim::NodeId node = sw->id();
        auto program = std::make_shared<TelemetrySwitchProgram>(
            options.config, *sw, rt.chip_at(node), rt.router_at(node));
        programs_.push_back(program);
        rt.add_tenant(node, program);
        vaddrs.emplace_back(sw, switch_vaddr(node));
        collector_->add_target(node);
    }
    // Make every instrumented chip addressable: probes route to its
    // virtual address from anywhere on the fabric.
    rt.network().install_switch_addresses(vaddrs);
}

TelemetrySwitchProgram* TelemetryService::program_at(sim::NodeId node) const {
    for (const auto& program : programs_) {
        if (program->vaddr() == switch_vaddr(node)) return program.get();
    }
    return nullptr;
}

}  // namespace daiet::telemetry
