// Switch nodes: plain L2 forwarding (the baseline network) and the
// programmable switch (a dataplane pipeline wired into the topology).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataplane/pipeline_switch.hpp"
#include "netsim/headers.hpp"
#include "netsim/node.hpp"

namespace daiet::sim {

struct SwitchStats {
    std::uint64_t frames_forwarded{0};
    std::uint64_t frames_dropped_no_route{0};
};

/// Interface a switch's forwarding table implements to accept route
/// installation from the network controller (the forwarding half of
/// DAIET's "flow rules": tree id -> output port is handled by the DAIET
/// tables; plain destination routing is handled here). `ports` is the
/// ECMP next-hop set, valid only for the call.
class RouteSink {
public:
    virtual ~RouteSink() = default;
    virtual void install_route(HostAddr dst, std::span<const dp::PortId> ports) = 0;
};

/// Classic store-and-forward L2/L3 switch with ECMP.
class L2Switch : public Node, public RouteSink {
public:
    L2Switch(Simulator& sim, NodeId id, std::string name)
        : Node{sim, id, std::move(name)} {}

    void install_route(HostAddr dst, std::span<const PortId> ports) override {
        DAIET_EXPECTS(!ports.empty());
        routes_[dst].assign(ports.begin(), ports.end());
    }
    RouteSink* route_sink() override { return this; }

    void handle_frame(FrameBuf frame, PortId in_port) override;

    const SwitchStats& stats() const noexcept { return stats_; }

private:
    std::unordered_map<HostAddr, std::vector<PortId>> routes_;
    SwitchStats stats_;
};

/// A node wrapping a programmable dataplane switch. Every frame goes
/// through the loaded pipeline program; the program sets the egress port
/// (and may emit extra packets, e.g. DAIET flushes).
class PipelineSwitchNode : public Node {
public:
    PipelineSwitchNode(Simulator& sim, NodeId id, std::string name,
                       dp::SwitchConfig config)
        : Node{sim, id, name}, chip_{std::move(name), config} {}

    dp::PipelineSwitch& chip() noexcept { return chip_; }
    const dp::PipelineSwitch& chip() const noexcept { return chip_; }

    /// The loaded program, which must accept routes: a programmable
    /// chip's destination table lives in its program.
    RouteSink* route_sink() override;

    void handle_frame(FrameBuf frame, PortId in_port) override;

    const SwitchStats& stats() const noexcept { return stats_; }

private:
    dp::PipelineSwitch chip_;
    SwitchStats stats_;
};

/// Flow-hash based ECMP selection shared by both switch types.
std::size_t ecmp_index(const ParsedFrame& frame, std::size_t n_choices);

}  // namespace daiet::sim
