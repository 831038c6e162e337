// Simplified TCP, sufficient for a faithful *baseline*:
//
//  * three-way handshake (SYN, SYN+ACK, ACK) and FIN teardown;
//  * MSS segmentation of application writes (Nagle disabled — each
//    write is flushed immediately, like the MapReduce baseline that
//    writes spill-buffer chunks with TCP_NODELAY);
//  * cumulative ACKs with delayed-ACK (one ACK per two segments, plus
//    an immediate ACK on FIN);
//  * in-order delivery with go-back-N retransmission on a fixed RTO.
//
// What Figure 3 needs from this model is the *packet and byte count* a
// reducer observes for a given shuffle volume; handshake, segmentation
// and ACK policy are what determine that count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "netsim/headers.hpp"
#include "netsim/time.hpp"

namespace daiet::sim {

class Host;

struct TcpParams {
    std::uint32_t mss{1460};
    SimTime rto{10 * kMillisecond};
    std::uint8_t max_retries{16};
    /// Delayed ACK: acknowledge every Nth segment (1 = every segment).
    std::uint32_t ack_every{2};
    /// Upper bound on how long an ACK may be delayed.
    SimTime delayed_ack_timeout{500 * kMicrosecond};
};

struct TcpStats {
    std::uint64_t segments_sent{0};
    std::uint64_t segments_retransmitted{0};
    std::uint64_t acks_sent{0};
    std::uint64_t payload_bytes_sent{0};
    std::uint64_t payload_bytes_received{0};
};

class TcpConnection {
public:
    enum class State : std::uint8_t {
        kClosed,
        kSynSent,
        kSynReceived,
        kEstablished,
        kFinWait,    ///< we sent FIN, waiting for peer FIN/ACK
        kCloseWait,  ///< peer sent FIN, we may still flush
        kDone
    };

    /// Application hooks.
    std::function<void(std::span<const std::byte>)> on_data;
    std::function<void()> on_established;
    std::function<void()> on_closed;

    /// Queue application bytes for transmission (segmentation happens
    /// per call: one call = ceil(size/MSS) segments, Nagle off).
    void send(std::span<const std::byte> data);

    /// Graceful close: FIN goes out once all queued data is ACKed.
    void close();

    State state() const noexcept { return state_; }
    const TcpStats& stats() const noexcept { return stats_; }
    HostAddr peer() const noexcept { return peer_; }
    std::uint16_t peer_port() const noexcept { return peer_port_; }
    std::uint16_t local_port() const noexcept { return local_port_; }

private:
    friend class Host;
    friend class TcpListener;

    TcpConnection(Host& host, HostAddr peer, std::uint16_t peer_port,
                  std::uint16_t local_port, TcpParams params);

    void start_connect();                 ///< active open (client side)
    void start_accept(std::uint32_t peer_isn);  ///< passive open (server side)
    void on_segment(const TcpHeader& tcp, std::span<const std::byte> payload);

    /// Transmit what send() queued before establishment.
    void pump_send_queue();
    /// Segment `data` at MSS and send it (PSH on the last segment), then
    /// send a pending FIN and re-arm the retransmit timer.
    void transmit(std::span<const std::byte> data);
    void send_segment(std::uint8_t flags, std::span<const std::byte> payload,
                      bool retransmission = false);
    void send_ack();
    void schedule_delayed_ack();
    void maybe_send_fin();
    void arm_timer();
    void on_timer();
    std::span<const std::byte> unacked() const noexcept {
        return std::span{unacked_}.subspan(unacked_head_);
    }

    Host* host_;
    HostAddr peer_;
    std::uint16_t peer_port_;
    std::uint16_t local_port_;
    TcpParams params_;
    State state_{State::kClosed};
    TcpStats stats_;

    // Send side.
    std::uint32_t snd_nxt_{0};  ///< next seq to send
    std::uint32_t snd_una_{0};  ///< oldest unacknowledged seq
    /// Bytes sent before establishment, not yet transmitted.
    std::vector<std::byte> send_buffer_;
    /// Transmitted bytes; those past unacked_head_ are not yet ACKed.
    /// The acknowledged prefix is compacted away once it is half the
    /// vector, so an ACK costs no memmove of the whole window.
    std::vector<std::byte> unacked_;
    std::size_t unacked_head_{0};
    bool fin_pending_{false};
    bool fin_sent_{false};
    std::uint8_t retries_{0};
    std::uint64_t timer_generation_{0};

    // Receive side.
    std::uint32_t rcv_nxt_{0};
    std::uint32_t segments_since_ack_{0};
    std::uint64_t ack_timer_generation_{0};
    bool peer_fin_received_{false};
};

class TcpListener {
public:
    TcpListener(Host& host, std::uint16_t port,
                std::function<void(TcpConnection&)> on_accept)
        : host_{&host}, port_{port}, on_accept_{std::move(on_accept)} {}

    std::uint16_t port() const noexcept { return port_; }

private:
    friend class Host;

    Host* host_;
    std::uint16_t port_;
    std::function<void(TcpConnection&)> on_accept_;
};

}  // namespace daiet::sim
