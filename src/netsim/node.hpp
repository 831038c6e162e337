// Base class for simulated network elements (hosts and switches).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/framebuf.hpp"
#include "netsim/time.hpp"

namespace daiet::sim {

class Link;
class RouteSink;
class Simulator;

using NodeId = std::uint32_t;
using PortId = std::uint16_t;

/// Point-in-time view of one egress drop-tail queue (the direction
/// *away* from the sampling node) — the queue-depth registers a real
/// traffic manager exposes to telemetry.
struct EgressQueueSample {
    std::size_t backlog_bytes{0};
    std::size_t peak_backlog_bytes{0};  ///< watermark since the last reset
    std::uint64_t frames_dropped_queue{0};  ///< cumulative drop-tail drops
    std::uint64_t frames_dropped_loss{0};   ///< cumulative injected losses
    std::uint64_t frames_marked_ecn{0};     ///< cumulative CE stamps
};

class Node {
public:
    Node(Simulator& sim, NodeId id, std::string name)
        : sim_{&sim}, id_{id}, name_{std::move(name)} {}

    virtual ~Node() = default;
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    /// Deliver a frame arriving on `in_port`.
    virtual void handle_frame(FrameBuf frame, PortId in_port) = 0;

    /// Where Network::install_routes puts this node's next hops; nullptr
    /// for a node that only terminates traffic (a host).
    virtual RouteSink* route_sink() { return nullptr; }

    NodeId id() const noexcept { return id_; }
    const std::string& name() const noexcept { return name_; }
    Simulator& simulator() noexcept { return *sim_; }

    /// Re-home this node onto a shard's simulator (Network::
    /// enable_parallel). Everything the node schedules afterwards —
    /// timers, sends — lands on its shard's queue. Must be called
    /// before any traffic flows.
    void rebind_simulator(Simulator& sim) noexcept { sim_ = &sim; }

    /// Wiring (called by Network::connect): attach `link` at the next
    /// free port; returns the port number.
    PortId attach_link(Link* link, int side) {
        ports_.push_back({link, side});
        return static_cast<PortId>(ports_.size() - 1);
    }

    std::size_t port_count() const noexcept { return ports_.size(); }

    /// Transmit a frame out of `port`.
    void transmit(PortId port, FrameBuf frame);

    /// Sample the egress queue behind `port` (telemetry instrumentation;
    /// `reset_peak` opens a fresh watermark window after reading).
    EgressQueueSample sample_egress_queue(PortId port, bool reset_peak = false);

protected:
    struct PortBinding {
        Link* link{nullptr};
        int side{0};
    };

    const PortBinding& port(PortId p) const {
        DAIET_EXPECTS(p < ports_.size());
        return ports_[p];
    }

private:
    Simulator* sim_;
    NodeId id_;
    std::string name_;
    std::vector<PortBinding> ports_;
};

}  // namespace daiet::sim
