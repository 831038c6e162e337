// Conservative time-windowed parallel simulation driver.
//
// The Kohring recipe (PAPERS.md, "Implicit Simulations using Messaging
// Protocols") applied to the netsim event loop: the fabric is
// partitioned into shards — each shard a full Simulator owning a subset
// of the nodes plus every link direction whose *sender* lives there —
// and the shards advance in lockstep through conservative time windows.
// The window width is the lookahead: the minimum propagation delay over
// all shard-boundary links. Within a window [W, W+L) no shard can
// influence another before W+L (a frame crossing a boundary needs at
// least L of wire time), so every shard may execute its local queue up
// to — but not including — the window end with no cross-thread
// coordination at all.
//
// Cross-shard frame deliveries are shipped through per-(src,dst)
// mailboxes: plain vectors written by exactly one producer (the sending
// shard's worker, during the window) and read by exactly one consumer
// (the coordinator, strictly between window barriers) — single
// producer, single consumer, no locks, with the inter-window
// std::barrier providing the happens-before edge. Each CrossFrame
// carries the sender-side arrival stamp; the coordinator drains boxes
// in a fixed (destination shard, source shard, FIFO) order, so the
// sequence numbers the receiving queue assigns — and therefore the
// same-instant tie-break, and therefore the entire schedule — are
// identical no matter how many worker threads ran the windows. That is
// the determinism contract the ParallelSim tests gate on: 1-thread,
// 2-thread and N-thread runs produce bit-identical event counts,
// signatures and final times.
//
// Observers stay sequential: run() throws while the tracer is enabled,
// and the fabric sampler refuses a partitioned fabric. The profiler's
// exec/barrier/drain split is the one observer the windows feed.
//
// Shard ownership of *link directions* (not whole links) is what keeps
// windows coordination-free: drop-tail, loss draw, ECN mark and the
// busy clock all read sender-side direction state, so a boundary
// direction is entirely owned by its sender's shard; only the delivery
// hand-off crosses (netsim/link.cpp). The backlog decrement fires as a
// sender-shard event at the same arrival instant, costing one extra
// event per boundary delivery — the price of never sharing a byte of
// queue state across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/contracts.hpp"
#include "netsim/link.hpp"  // CrossFrame
#include "netsim/simulator.hpp"
#include "netsim/time.hpp"

namespace daiet::sim {

class ShardedSimulator {
public:
    /// `primary` (the Network's own simulator) becomes shard 0;
    /// `n_shards - 1` additional shard queues are created and owned
    /// here. `threads` is a cap: the run uses min(threads, n_shards)
    /// workers, each driving the shards `i % workers == j` — the shard
    /// count, and with it the whole event structure, never depends on
    /// the thread count.
    ShardedSimulator(Simulator* primary, std::size_t n_shards,
                     std::size_t threads);

    ShardedSimulator(const ShardedSimulator&) = delete;
    ShardedSimulator& operator=(const ShardedSimulator&) = delete;

    /// Set after the topology has been re-homed onto the shards (the
    /// Network computes it as the minimum boundary propagation delay).
    /// Must be > 0 when any boundary link exists: a zero-latency
    /// boundary admits no conservative window.
    void set_lookahead(SimTime lookahead) noexcept { lookahead_ = lookahead; }
    SimTime lookahead() const noexcept { return lookahead_; }

    Simulator& shard(std::size_t i) noexcept { return *shards_[i]; }

    /// The (src -> dst) mailbox boundary link directions push into.
    std::vector<CrossFrame>& mailbox(std::size_t src, std::size_t dst) {
        DAIET_EXPECTS(src != dst);
        return mailboxes_[src * shards_.size() + dst];
    }

    /// Run every shard to quiescence. Returns the final simulated time
    /// (the max over shards — identical to what one sequential queue
    /// would report, because run_window never inflates a shard's clock
    /// past its last executed event). Throws std::logic_error while
    /// tracing is enabled: the tracer records from one thread only.
    SimTime run();

    /// Max over shards — the fabric-wide clock between/after runs.
    SimTime now() const noexcept;

    /// Sum over shards (the bench's zero-steady-state-allocations gate).
    std::uint64_t actions_heap_allocated() const noexcept;
    std::uint64_t events_executed() const noexcept;

    /// Conservative windows executed by the last run() (diagnostics).
    std::uint64_t windows_run() const noexcept { return windows_; }

private:
    void drain_mailboxes();
    /// One thread's share of a window: shards j, j+T, j+2T, ...
    /// `chain` is the profiler's chained clock: non-null when profiling,
    /// holding the tick the previous span ended at; each shard's window
    /// costs ONE clock read (end == next start), and the final read is
    /// written back for the caller's next span.
    void run_shard_windows(std::size_t worker, std::size_t workers,
                           SimTime window_end, std::uint64_t* chain = nullptr);
    SimTime run_windows(std::size_t workers);

    std::vector<Simulator*> shards_;               ///< [0] = primary, borrowed
    std::vector<std::unique_ptr<Simulator>> owned_;  ///< shards 1..S-1
    std::vector<std::vector<CrossFrame>> mailboxes_;  ///< S*S, row = src
    SimTime lookahead_{Simulator::kNever};
    std::size_t threads_;
    std::uint64_t windows_{0};
};

}  // namespace daiet::sim
