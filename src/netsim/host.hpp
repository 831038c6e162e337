// End host: UDP socket table, TCP endpoint table, per-protocol counters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netsim/headers.hpp"
#include "netsim/node.hpp"
#include "netsim/tcp.hpp"

namespace daiet::sim {

/// What a host has sent/received, by protocol. "Packets received at the
/// reducers" in Figure 3 is read straight off these counters.
struct HostCounters {
    std::uint64_t frames_tx{0};
    std::uint64_t frames_rx{0};
    std::uint64_t bytes_tx{0};
    std::uint64_t bytes_rx{0};
    std::uint64_t udp_frames_tx{0};
    std::uint64_t udp_frames_rx{0};
    std::uint64_t udp_frames_rx_ce{0};  ///< delivered with Congestion Experienced
    std::uint64_t udp_payload_bytes_rx{0};
    std::uint64_t tcp_frames_tx{0};
    std::uint64_t tcp_frames_rx{0};
    std::uint64_t tcp_payload_bytes_rx{0};
    std::uint64_t frames_rx_unclaimed{0};  ///< no socket/endpoint matched
    SimTime last_rx_time{0};               ///< arrival time of the latest frame
};

/// Datagram delivery callback: (source address, source port, payload).
using UdpHandler =
    std::function<void(HostAddr, std::uint16_t, std::span<const std::byte>)>;

/// Handle for a cancellable one-shot host timer (Host::timer_after).
/// Cancelling — or simply dropping the last reference — disarms it; the
/// underlying simulator event still fires but runs nothing. The timer
/// owns its callback, so cancellation (or handle drop) frees the
/// captured state immediately instead of leaving a tombstone closure in
/// the event queue until the original fire time — retransmission timers
/// that almost always cancel would otherwise pin their request payloads
/// for a full timeout.
class Timer {
public:
    ~Timer() { reclaim(); }
    void cancel() noexcept {
        armed_ = false;
        reclaim();
    }
    bool armed() const noexcept { return armed_; }

private:
    friend class Host;

    /// Drop the payload before fire time; counts once per tombstone.
    void reclaim() noexcept {
        if (!fn_) return;
        fn_ = nullptr;
        if (reclaimed_ != nullptr) ++*reclaimed_;
    }

    std::function<void()> fn_;
    std::shared_ptr<std::uint64_t> reclaimed_;
    bool armed_{true};
};
using TimerRef = std::shared_ptr<Timer>;

class Host : public Node {
public:
    Host(Simulator& sim, NodeId id, std::string name, HostAddr addr)
        : Node{sim, id, std::move(name)}, addr_{addr} {}

    HostAddr addr() const noexcept { return addr_; }

    // --- UDP --------------------------------------------------------------
    /// Bind `handler` to a local UDP port. One handler per port.
    void udp_bind(std::uint16_t port, UdpHandler handler);
    void udp_unbind(std::uint16_t port);

    /// Send one UDP datagram (one frame; no fragmentation — callers must
    /// respect the MTU, which DAIET's packetizer does by construction).
    void udp_send(HostAddr dst, std::uint16_t src_port, std::uint16_t dst_port,
                  std::span<const std::byte> payload);

    // --- TCP --------------------------------------------------------------
    /// Start listening; `on_accept` fires once per inbound connection.
    TcpListener& tcp_listen(std::uint16_t port,
                            std::function<void(TcpConnection&)> on_accept);

    /// Open a connection to dst:port. The returned reference stays valid
    /// for the lifetime of the host.
    TcpConnection& tcp_connect(HostAddr dst, std::uint16_t dst_port);

    // --- timers -----------------------------------------------------------
    /// Arm a one-shot timer: `fn` runs `delay` from now unless the
    /// returned handle is cancelled (or dropped) first. The hook
    /// retransmission clocks and lease expiries hang off.
    TimerRef timer_after(SimTime delay, std::function<void()> fn);

    const HostCounters& counters() const noexcept { return counters_; }

    /// Timers whose callback payload was dropped at cancel/release time
    /// instead of lingering in the event queue until fire time.
    std::uint64_t timer_tombstones_reclaimed() const noexcept {
        return *tombstones_reclaimed_;
    }

    /// Ancillary data of the datagram being delivered (IP_RECVTOS
    /// flavoured): true while a UDP handler runs for a frame that
    /// arrived with the Congestion Experienced mark. Only meaningful
    /// inside a handler invocation.
    bool rx_ecn_ce() const noexcept { return rx_ecn_ce_; }

    void handle_frame(FrameBuf frame, PortId in_port) override;

    /// Hosts are single-homed: all egress uses port 0.
    void send_frame(FrameBuf frame);

private:
    friend class TcpConnection;
    friend class TcpListener;

    struct TcpKey {
        HostAddr peer;
        std::uint16_t peer_port;
        std::uint16_t local_port;
        auto operator<=>(const TcpKey&) const = default;
    };

    HostAddr addr_;
    HostCounters counters_;
    bool rx_ecn_ce_{false};
    std::map<std::uint16_t, UdpHandler> udp_sockets_;
    std::map<std::uint16_t, std::unique_ptr<TcpListener>> tcp_listeners_;
    std::map<TcpKey, std::unique_ptr<TcpConnection>> tcp_connections_;
    std::uint16_t next_ephemeral_port_{49152};
    /// Shared with every Timer so a handle outliving the host still has
    /// somewhere safe to count its reclaim.
    std::shared_ptr<std::uint64_t> tombstones_reclaimed_{
        std::make_shared<std::uint64_t>(0)};
};

}  // namespace daiet::sim
