#include "netsim/host.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "netsim/simulator.hpp"
#include "netsim/tcp.hpp"
#include "trace/trace.hpp"

namespace daiet::sim {

void Host::udp_bind(std::uint16_t port, UdpHandler handler) {
    DAIET_EXPECTS(handler != nullptr);
    DAIET_EXPECTS(!udp_sockets_.contains(port));
    udp_sockets_[port] = std::move(handler);
}

void Host::udp_unbind(std::uint16_t port) { udp_sockets_.erase(port); }

void Host::udp_send(HostAddr dst, std::uint16_t src_port, std::uint16_t dst_port,
                    std::span<const std::byte> payload) {
    auto frame = build_udp_frame(addr_, dst, src_port, dst_port, payload);
    ++counters_.udp_frames_tx;
    send_frame(std::move(frame));
}

TimerRef Host::timer_after(SimTime delay, std::function<void()> fn) {
    DAIET_EXPECTS(fn != nullptr);
    auto timer = std::make_shared<Timer>();
    timer->fn_ = std::move(fn);
    timer->reclaimed_ = tombstones_reclaimed_;
    // The queued event holds only a weak handle: cancelling (or dropping)
    // the timer frees the callback and its captures right away, and the
    // eventual firing of this tombstone touches nothing.
    simulator().schedule_after(delay, [weak = std::weak_ptr<Timer>{timer}] {
        const auto timer = weak.lock();
        if (!timer || !timer->armed()) return;
        // Move the callback out first so a self-cancelling callback (a
        // retransmit handler re-arming itself) finds a disarmed timer.
        auto fn = std::move(timer->fn_);
        timer->fn_ = nullptr;
        if (fn) fn();
    });
    return timer;
}

TcpListener& Host::tcp_listen(std::uint16_t port,
                              std::function<void(TcpConnection&)> on_accept) {
    DAIET_EXPECTS(!tcp_listeners_.contains(port));
    auto listener = std::make_unique<TcpListener>(*this, port, std::move(on_accept));
    auto& ref = *listener;
    tcp_listeners_[port] = std::move(listener);
    return ref;
}

TcpConnection& Host::tcp_connect(HostAddr dst, std::uint16_t dst_port) {
    const std::uint16_t local = next_ephemeral_port_++;
    TcpKey key{dst, dst_port, local};
    DAIET_EXPECTS(!tcp_connections_.contains(key));
    auto conn = std::unique_ptr<TcpConnection>{
        new TcpConnection{*this, dst, dst_port, local, TcpParams{}}};
    auto& ref = *conn;
    tcp_connections_[key] = std::move(conn);
    ref.start_connect();
    return ref;
}

void Host::send_frame(FrameBuf frame) {
    DAIET_EXPECTS(port_count() >= 1);
    ++counters_.frames_tx;
    counters_.bytes_tx += frame.size();
    if (trace::enabled()) {
        auto& t = trace::tracer();
        t.set_now(simulator().now());
        // take_tx_annotation: a transport send (or a server reply) may
        // have tagged this tx with its request tag — binding tag to the
        // frame's trace id for forensics.
        t.record({simulator().now(), frame.trace_id(), t.take_tx_annotation(), frame.size(),
                  t.intern(name()), trace::EventKind::kHostTx});
    }
    transmit(0, std::move(frame));
}

void Host::handle_frame(FrameBuf frame, PortId /*in_port*/) {
    ++counters_.frames_rx;
    counters_.bytes_rx += frame.size();
    counters_.last_rx_time = simulator().now();
    if (trace::enabled()) {
        auto& t = trace::tracer();
        t.set_now(simulator().now());
        t.record({simulator().now(), frame.trace_id(), 0, frame.size(), t.intern(name()),
                  trace::EventKind::kHostRx});
    }

    ParsedFrame parsed;
    if (!parse_frame_into(frame, parsed) || parsed.ip.dst != addr_) {
        ++counters_.frames_rx_unclaimed;
        return;
    }

    if (parsed.udp) {
        ++counters_.udp_frames_rx;
        const auto payload = parsed.payload_of(frame);
        counters_.udp_payload_bytes_rx += payload.size();
        const auto it = udp_sockets_.find(parsed.udp->dst_port);
        if (it == udp_sockets_.end()) {
            ++counters_.frames_rx_unclaimed;
            return;
        }
        rx_ecn_ce_ = parsed.ip.congestion_experienced();
        if (rx_ecn_ce_) ++counters_.udp_frames_rx_ce;
        it->second(parsed.ip.src, parsed.udp->src_port, payload);
        rx_ecn_ce_ = false;
        return;
    }

    if (parsed.tcp) {
        ++counters_.tcp_frames_rx;
        const auto payload = parsed.payload_of(frame);
        counters_.tcp_payload_bytes_rx += payload.size();
        const TcpHeader& tcp = *parsed.tcp;

        TcpKey key{parsed.ip.src, tcp.src_port, tcp.dst_port};
        auto it = tcp_connections_.find(key);
        if (it == tcp_connections_.end()) {
            // New inbound connection? Only a SYN addressed to a listener.
            if (tcp.syn() && !tcp.ack_flag()) {
                const auto lit = tcp_listeners_.find(tcp.dst_port);
                if (lit != tcp_listeners_.end()) {
                    auto conn = std::unique_ptr<TcpConnection>{new TcpConnection{
                        *this, parsed.ip.src, tcp.src_port, tcp.dst_port, TcpParams{}}};
                    auto& ref = *conn;
                    tcp_connections_[key] = std::move(conn);
                    lit->second->on_accept_(ref);
                    ref.start_accept(tcp.seq);
                    return;
                }
            }
            ++counters_.frames_rx_unclaimed;
            return;
        }
        it->second->on_segment(tcp, payload);
        return;
    }

    ++counters_.frames_rx_unclaimed;
}

}  // namespace daiet::sim
