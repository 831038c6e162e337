#include "netsim/tcp.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "netsim/host.hpp"
#include "netsim/simulator.hpp"

namespace daiet::sim {

namespace {
/// Sequence-space comparison (wrap-around safe for our modest volumes).
bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::int32_t>(a - b) < 0;
}
}  // namespace

TcpConnection::TcpConnection(Host& host, HostAddr peer, std::uint16_t peer_port,
                             std::uint16_t local_port, TcpParams params)
    : host_{&host}, peer_{peer}, peer_port_{peer_port}, local_port_{local_port},
      params_{params} {}

void TcpConnection::start_connect() {
    DAIET_EXPECTS(state_ == State::kClosed);
    state_ = State::kSynSent;
    send_segment(TcpHeader::kFlagSyn, {});
    snd_nxt_ += 1;  // SYN consumes one sequence number
    arm_timer();
}

void TcpConnection::start_accept(std::uint32_t peer_isn) {
    DAIET_EXPECTS(state_ == State::kClosed);
    state_ = State::kSynReceived;
    rcv_nxt_ = peer_isn + 1;
    send_segment(static_cast<std::uint8_t>(TcpHeader::kFlagSyn | TcpHeader::kFlagAck), {});
    snd_nxt_ += 1;
    arm_timer();
}

void TcpConnection::send(std::span<const std::byte> data) {
    DAIET_EXPECTS(state_ == State::kSynSent || state_ == State::kSynReceived ||
                  state_ == State::kEstablished);
    DAIET_EXPECTS(!fin_pending_ && !fin_sent_);
    if (state_ == State::kEstablished && send_buffer_.empty()) {
        // Nothing queued ahead of these bytes: segment them straight
        // from the caller's span.
        transmit(data);
        return;
    }
    // Before establishment, or behind bytes queued before it (a send
    // from the passive side's on_established): queue, so the segments
    // are the ones one queue of all these bytes gives.
    send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
    if (state_ == State::kEstablished) pump_send_queue();
}

void TcpConnection::close() {
    if (state_ == State::kDone) return;
    fin_pending_ = true;
    maybe_send_fin();
}

void TcpConnection::pump_send_queue() {
    // Empty the queue first: a FIN waits for it to be empty.
    const std::vector<std::byte> queued = std::move(send_buffer_);
    send_buffer_.clear();
    transmit(queued);
}

void TcpConnection::transmit(std::span<const std::byte> data) {
    // No congestion window: every byte goes out now, MSS at a time.
    for (std::size_t off = 0; off < data.size();) {
        const std::size_t len = std::min<std::size_t>(data.size() - off, params_.mss);
        const std::span<const std::byte> seg = data.subspan(off, len);
        off += len;
        std::uint8_t flags = TcpHeader::kFlagAck;
        if (off == data.size()) flags |= TcpHeader::kFlagPsh;
        unacked_.insert(unacked_.end(), seg.begin(), seg.end());
        send_segment(flags, seg);
        snd_nxt_ += static_cast<std::uint32_t>(len);
        stats_.payload_bytes_sent += len;
    }
    maybe_send_fin();
    if (snd_una_ != snd_nxt_) arm_timer();
}

void TcpConnection::send_segment(std::uint8_t flags, std::span<const std::byte> payload,
                                 bool retransmission) {
    TcpHeader tcp;
    tcp.src_port = local_port_;
    tcp.dst_port = peer_port_;
    tcp.seq = retransmission ? snd_una_ : snd_nxt_;
    tcp.ack = rcv_nxt_;
    tcp.flags = flags;

    auto frame = build_tcp_frame(host_->addr(), peer_, tcp, payload);
    ++host_->counters_.tcp_frames_tx;
    ++stats_.segments_sent;
    if (retransmission) ++stats_.segments_retransmitted;
    host_->send_frame(std::move(frame));
}

void TcpConnection::send_ack() {
    ++stats_.acks_sent;
    segments_since_ack_ = 0;
    ++ack_timer_generation_;  // cancel any pending delayed ACK
    send_segment(TcpHeader::kFlagAck, {});
}

void TcpConnection::schedule_delayed_ack() {
    const std::uint64_t generation = ++ack_timer_generation_;
    host_->simulator().schedule_after(params_.delayed_ack_timeout, [this, generation] {
        if (generation == ack_timer_generation_ && segments_since_ack_ > 0 &&
            state_ != State::kDone) {
            send_ack();
        }
    });
}

void TcpConnection::maybe_send_fin() {
    if (!fin_pending_ || fin_sent_) return;
    if (!send_buffer_.empty() || snd_una_ != snd_nxt_) return;
    if (state_ != State::kEstablished && state_ != State::kCloseWait) return;
    fin_sent_ = true;
    send_segment(static_cast<std::uint8_t>(TcpHeader::kFlagFin | TcpHeader::kFlagAck), {});
    snd_nxt_ += 1;  // FIN consumes one sequence number
    state_ = State::kFinWait;
    arm_timer();
}

void TcpConnection::on_segment(const TcpHeader& tcp, std::span<const std::byte> payload) {
    if (state_ == State::kDone) return;

    // --- handshake ---------------------------------------------------------
    if (tcp.syn() && tcp.ack_flag() && state_ == State::kSynSent) {
        rcv_nxt_ = tcp.seq + 1;
        snd_una_ = tcp.ack;
        state_ = State::kEstablished;
        send_ack();
        if (on_established) on_established();
        pump_send_queue();
        return;
    }

    // --- ACK processing ----------------------------------------------------
    if (tcp.ack_flag() && seq_lt(snd_una_, tcp.ack)) {
        std::uint32_t acked = tcp.ack - snd_una_;
        if (state_ == State::kSynReceived) {
            acked -= 1;  // our SYN
            state_ = State::kEstablished;
            if (on_established) on_established();
        }
        if (fin_sent_ && tcp.ack == snd_nxt_ && acked > 0) {
            acked -= 1;  // our FIN
        }
        unacked_head_ += std::min<std::size_t>(acked, unacked().size());
        if (unacked_head_ * 2 >= unacked_.size()) {
            unacked_.erase(unacked_.begin(),
                           unacked_.begin() + static_cast<std::ptrdiff_t>(unacked_head_));
            unacked_head_ = 0;
        }
        snd_una_ = tcp.ack;
        retries_ = 0;
        if (snd_una_ != snd_nxt_) {
            arm_timer();
        }
        pump_send_queue();
    }

    // --- data --------------------------------------------------------------
    if (!payload.empty()) {
        if (tcp.seq == rcv_nxt_) {
            rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
            stats_.payload_bytes_received += payload.size();
            if (on_data) on_data(payload);
            if (++segments_since_ack_ >= params_.ack_every) {
                send_ack();
            } else {
                schedule_delayed_ack();
            }
        } else {
            // Out-of-order or duplicate: go-back-N receiver drops it and
            // re-announces the expected sequence number.
            send_ack();
        }
    }

    // --- FIN ---------------------------------------------------------------
    if (tcp.fin()) {
        if (tcp.seq == rcv_nxt_) {
            rcv_nxt_ += 1;
            peer_fin_received_ = true;
            send_ack();
            if (state_ == State::kEstablished) {
                state_ = State::kCloseWait;
                // Passive close: answer with our own FIN once the send
                // queue drains (a read-only server's natural behaviour;
                // the shuffle reducers never write back).
                fin_pending_ = true;
                maybe_send_fin();
            }
        } else {
            send_ack();
        }
    }

    // --- teardown completion -------------------------------------------------
    if (fin_sent_ && peer_fin_received_ && snd_una_ == snd_nxt_ &&
        state_ != State::kDone) {
        state_ = State::kDone;
        if (on_closed) on_closed();
    }
}

void TcpConnection::arm_timer() {
    const std::uint64_t generation = ++timer_generation_;
    host_->simulator().schedule_after(params_.rto, [this, generation] {
        if (generation == timer_generation_) on_timer();
    });
}

void TcpConnection::on_timer() {
    if (state_ == State::kDone) return;
    const bool syn_outstanding =
        state_ == State::kSynSent || state_ == State::kSynReceived;
    const bool data_outstanding = snd_una_ != snd_nxt_;
    if (!syn_outstanding && !data_outstanding) return;

    if (++retries_ > params_.max_retries) {
        state_ = State::kDone;
        if (on_closed) on_closed();
        return;
    }

    if (state_ == State::kSynSent) {
        send_segment(TcpHeader::kFlagSyn, {}, /*retransmission=*/true);
    } else if (state_ == State::kSynReceived) {
        send_segment(static_cast<std::uint8_t>(TcpHeader::kFlagSyn | TcpHeader::kFlagAck),
                     {}, /*retransmission=*/true);
    } else if (!unacked().empty()) {
        // Go-back-N: resend everything unacknowledged, MSS at a time.
        const std::span<const std::byte> pending = unacked();
        std::uint32_t seq = snd_una_;
        std::size_t off = 0;
        while (off < pending.size()) {
            const std::size_t len =
                std::min<std::size_t>(pending.size() - off, params_.mss);
            TcpHeader tcp;
            tcp.src_port = local_port_;
            tcp.dst_port = peer_port_;
            tcp.seq = seq;
            tcp.ack = rcv_nxt_;
            tcp.flags = TcpHeader::kFlagAck;
            auto frame = build_tcp_frame(
                host_->addr(), peer_, tcp,
                pending.subspan(off, len));
            ++host_->counters_.tcp_frames_tx;
            ++stats_.segments_sent;
            ++stats_.segments_retransmitted;
            host_->send_frame(std::move(frame));
            off += len;
            seq += static_cast<std::uint32_t>(len);
        }
    } else if (fin_sent_) {
        send_segment(static_cast<std::uint8_t>(TcpHeader::kFlagFin | TcpHeader::kFlagAck),
                     {}, /*retransmission=*/true);
    }
    arm_timer();
}

}  // namespace daiet::sim
