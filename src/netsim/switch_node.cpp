#include "netsim/switch_node.hpp"

#include <utility>

#include "common/hash.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"

namespace daiet::sim {

std::size_t ecmp_index(const ParsedFrame& frame, std::size_t n_choices) {
    DAIET_EXPECTS(n_choices > 0);
    if (n_choices == 1) return 0;
    std::uint64_t h = static_cast<std::uint64_t>(frame.ip.src) << 32 | frame.ip.dst;
    std::uint32_t ports = 0;
    if (frame.udp) {
        ports = static_cast<std::uint32_t>(frame.udp->src_port) << 16 |
                frame.udp->dst_port;
    } else if (frame.tcp) {
        ports = static_cast<std::uint32_t>(frame.tcp->src_port) << 16 |
                frame.tcp->dst_port;
    }
    h = mix64(h ^ (static_cast<std::uint64_t>(frame.ip.protocol) << 32) ^ ports);
    return static_cast<std::size_t>(h % n_choices);
}

void L2Switch::handle_frame(FrameBuf frame, PortId in_port) {
    ParsedFrame parsed;
    if (!parse_frame_into(frame, parsed)) {
        ++stats_.frames_dropped_no_route;
        return;
    }
    const auto it = routes_.find(parsed.ip.dst);
    if (it == routes_.end()) {
        ++stats_.frames_dropped_no_route;
        return;
    }
    const auto& ports = it->second;
    PortId out = ports[ecmp_index(parsed, ports.size())];
    if (out == in_port && ports.size() > 1) {
        // Never bounce a frame back where it came from if there is an
        // alternative equal-cost port.
        out = ports[(ecmp_index(parsed, ports.size()) + 1) % ports.size()];
    }
    ++stats_.frames_forwarded;
    transmit(out, std::move(frame));
}

RouteSink* PipelineSwitchNode::route_sink() {
    auto* sink = dynamic_cast<RouteSink*>(&chip_.program());
    DAIET_EXPECTS(sink != nullptr);
    return sink;
}

void PipelineSwitchNode::handle_frame(FrameBuf frame, PortId in_port) {
    if (trace::enabled()) {
        // Dataplane hooks (tenant dispatch, cache/directory programs)
        // have no Simulator reference; refresh the trace clock here so
        // their events carry this frame's arrival time.
        trace::tracer().set_now(simulator().now());
    }
    dp::Packet packet{std::move(frame)};
    // One result vector per thread, reused across frames and switches so
    // steady-state forwarding allocates none and touches one warm
    // buffer. Safe because frame delivery is a future simulator event,
    // never a synchronous re-entry of handle_frame.
    thread_local std::vector<dp::Packet> rx_scratch;
    rx_scratch.clear();
    chip_.receive_into(std::move(packet), in_port, rx_scratch);
    for (auto& out : rx_scratch) {
        const dp::PortId egress = out.meta().egress_port;
        if (egress == dp::kPortInvalid || egress >= port_count()) {
            ++stats_.frames_dropped_no_route;
            continue;
        }
        ++stats_.frames_forwarded;
        transmit(egress, std::move(out.mutable_payload()));
    }
    // A dropped packet's frame must not stay parked here: it could
    // outlive the thread's frame pool.
    rx_scratch.clear();
}

}  // namespace daiet::sim
