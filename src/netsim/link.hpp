// Full-duplex point-to-point link with bandwidth, propagation delay,
// a drop-tail queue and optional random loss injection.
//
// Parallel-sim aware: each direction is owned by the shard of its
// *sending* node (Network::enable_parallel re-binds the per-side
// simulators), so all of a direction's mutable state — busy clock,
// backlog, stats, loss RNG, serialization memo, pending-delivery FIFO —
// is touched by exactly one worker thread. Deliveries on a boundary
// link (the two ends live on different shards) are shipped through a
// cross-shard mailbox instead of being scheduled directly; the parallel
// driver drains mailboxes at window barriers (netsim/parallel.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "netsim/node.hpp"
#include "netsim/time.hpp"

namespace daiet::sim {

struct LinkParams {
    double gbps{10.0};
    SimTime propagation_delay{1 * kMicrosecond};
    /// Drop-tail queue capacity in bytes per direction; 0 = unbounded.
    std::size_t queue_bytes{0};
    /// Independent per-frame loss probability (failure injection; the
    /// paper's prototype does not handle loss, and neither does DAIET's
    /// default configuration — see DESIGN.md §4).
    double loss_probability{0.0};
    /// ECN marking threshold in bytes per direction; a frame enqueued
    /// while the backlog sits above it is stamped Congestion
    /// Experienced in flight. 0 disables marking.
    std::size_t ecn_threshold_bytes{0};
};

struct LinkDirectionStats {
    std::uint64_t frames_sent{0};
    std::uint64_t bytes_sent{0};
    std::uint64_t frames_delivered{0};
    std::uint64_t frames_dropped_queue{0};
    std::uint64_t frames_dropped_loss{0};
    std::uint64_t frames_marked_ecn{0};
};

/// One frame crossing a shard boundary, stamped with the sender-side
/// arrival instant. Mailboxes are plain vectors written by exactly one
/// worker (the sending shard's) during a window and drained by the
/// coordinator between barriers, in a fixed (dst shard, src shard,
/// FIFO) order — that fixed drain order is what makes the receiving
/// shard's sequence numbers, and hence the whole schedule,
/// thread-count-independent.
struct CrossFrame {
    SimTime at{0};
    Node* dst{nullptr};
    PortId port{0};
    FrameBuf frame;
};

class Link {
public:
    Link(Simulator& sim, Node& a, Node& b, LinkParams params, std::uint64_t loss_seed = 0);

    /// Enqueue `frame` for transmission away from side `from_side`
    /// (0 = from a towards b, 1 = from b towards a).
    void transmit(int from_side, FrameBuf frame);

    const LinkParams& params() const noexcept { return params_; }
    const LinkDirectionStats& stats(int from_side) const {
        DAIET_EXPECTS(from_side == 0 || from_side == 1);
        return dir_[from_side].stats;
    }

    // --- queue instrumentation (telemetry hooks) ---------------------------
    /// Bytes currently queued for transmission away from `from_side`.
    std::size_t backlog_bytes(int from_side) const {
        DAIET_EXPECTS(from_side == 0 || from_side == 1);
        return dir_[from_side].backlog_bytes;
    }
    /// High watermark of the drop-tail backlog since construction or the
    /// last reset — what a telemetry poll reports per egress queue.
    std::size_t peak_backlog_bytes(int from_side) const {
        DAIET_EXPECTS(from_side == 0 || from_side == 1);
        return dir_[from_side].peak_backlog_bytes;
    }
    /// Open a new watermark observation window.
    void reset_peak_backlog(int from_side) {
        DAIET_EXPECTS(from_side == 0 || from_side == 1);
        dir_[from_side].peak_backlog_bytes = dir_[from_side].backlog_bytes;
    }

    Node& peer_of(int side) noexcept { return *dir_[side].dst; }
    PortId peer_port(int side) const noexcept { return dir_[side].dst_port; }
    /// The node *at* `side` (peer_of gives the node across the wire).
    Node& end_of(int side) noexcept { return *dir_[1 - side].dst; }

    /// Re-home the two directions onto their sending nodes' shard
    /// simulators and, for a boundary link, attach the cross-shard
    /// mailboxes (`a_to_b` carries side-0 traffic; null = same shard).
    /// Called by Network::enable_parallel before any traffic flows.
    void bind_parallel(Simulator& sim_a, Simulator& sim_b,
                       std::vector<CrossFrame>* a_to_b,
                       std::vector<CrossFrame>* b_to_a) noexcept {
        dir_[0].sim = &sim_a;
        dir_[1].sim = &sim_b;
        mailbox_[0] = a_to_b;
        mailbox_[1] = b_to_a;
    }

private:
    /// A frame in flight on one direction. Arrivals on a direction are
    /// sorted by construction: each is the previous frame's serialization
    /// end plus its own serialization time plus a fixed propagation delay.
    struct PendingDelivery {
        SimTime at{0};
        FrameBuf frame;
    };

    /// One direction of the wire. Everything a transmit or a delivery
    /// reads and writes on every frame sits in the first cache line;
    /// counters, the loss RNG and the serialization memo follow.
    struct alignas(64) Direction {
        /// Scheduling clock of the sending node: the Network's simulator
        /// until bind_parallel re-homes it onto the sender's shard.
        Simulator* sim{nullptr};
        Node* dst{nullptr};
        SimTime busy_until{0};
        std::size_t backlog_bytes{0};
        /// Frames in flight, in arrival order, with one delivery event
        /// outstanding for the head (see transmit()).
        std::vector<PendingDelivery> pending;
        std::uint32_t pending_head{0};
        PortId dst_port{0};
        bool drainer_armed{false};

        std::size_t peak_backlog_bytes{0};
        LinkDirectionStats stats;
        /// Per-direction loss stream: both directions can execute
        /// concurrently on different shards, and a shared generator's
        /// draw order would depend on thread interleaving.
        Rng loss_rng{0};
        /// Serialization-delay memo (see transmit()); per direction for
        /// the same reason as the RNG.
        std::size_t ser_memo_bytes{~std::size_t{0}};
        SimTime ser_memo_ns{0};
    };

    void drain(int from_side);

    LinkParams params_;
    /// Boundary mailboxes; null for an intra-shard direction.
    std::vector<CrossFrame>* mailbox_[2]{nullptr, nullptr};
    /// Lazily interned per-direction trace labels ("a->b"); 0 = not yet
    /// interned. Only touched while tracing is enabled.
    std::uint32_t trace_dir_id_[2]{0, 0};
    Direction dir_[2];

    std::uint32_t trace_label(int from_side);
};

}  // namespace daiet::sim
