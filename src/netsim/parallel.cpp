#include "netsim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <stdexcept>
#include <thread>
#include <utility>

#include "trace/profiler.hpp"
#include "trace/trace.hpp"

namespace daiet::sim {

namespace {

/// Window end = next + lookahead, saturating (an unbounded lookahead —
/// no boundary links — means one window runs everything).
SimTime window_end_after(SimTime next, SimTime lookahead) noexcept {
    return next > Simulator::kNever - lookahead ? Simulator::kNever
                                                : next + lookahead;
}

}  // namespace

ShardedSimulator::ShardedSimulator(Simulator* primary, std::size_t n_shards,
                                   std::size_t threads)
    : threads_{std::max<std::size_t>(threads, 1)} {
    DAIET_EXPECTS(primary != nullptr);
    DAIET_EXPECTS(n_shards >= 1);
    shards_.reserve(n_shards);
    shards_.push_back(primary);
    for (std::size_t i = 1; i < n_shards; ++i) {
        owned_.push_back(std::make_unique<Simulator>());
        shards_.push_back(owned_.back().get());
    }
    mailboxes_.resize(n_shards * n_shards);
}

SimTime ShardedSimulator::now() const noexcept {
    SimTime t = 0;
    for (const Simulator* s : shards_) t = std::max(t, s->now());
    return t;
}

std::uint64_t ShardedSimulator::actions_heap_allocated() const noexcept {
    std::uint64_t n = 0;
    for (const Simulator* s : shards_) n += s->actions_heap_allocated();
    return n;
}

std::uint64_t ShardedSimulator::events_executed() const noexcept {
    std::uint64_t n = 0;
    for (const Simulator* s : shards_) n += s->events_executed();
    return n;
}

void ShardedSimulator::drain_mailboxes() {
    // Fixed (dst, src, FIFO) order: the receiving queue's sequence
    // numbers — the same-instant tie-break — depend only on shard
    // contents, never on which thread ran what when.
    const std::size_t n = shards_.size();
    for (std::size_t dst = 0; dst < n; ++dst) {
        Simulator& ds = *shards_[dst];
        for (std::size_t src = 0; src < n; ++src) {
            if (src == dst) continue;
            auto& box = mailboxes_[src * n + dst];
            for (CrossFrame& cf : box) {
                // cf.at >= previous window end > the receiver's clock:
                // the conservative window guarantees this hand-off is
                // always a legal future schedule.
                ds.schedule_at(cf.at, [node = cf.dst, port = cf.port,
                                       f = std::move(cf.frame)]() mutable {
                    node->handle_frame(std::move(f), port);
                });
            }
            box.clear();
        }
    }
}

void ShardedSimulator::run_shard_windows(std::size_t worker,
                                         std::size_t workers,
                                         SimTime window_end,
                                         std::uint64_t* chain) {
    for (std::size_t i = worker; i < shards_.size(); i += workers) {
        if (chain == nullptr) {
            shards_[i]->run_window(window_end);
            continue;
        }
        // The profiler attributes per shard, not per thread, so exec
        // time is charged the same way whatever the worker count.
        const std::uint64_t ev0 = shards_[i]->events_executed();
        shards_[i]->run_window(window_end);
        const std::uint64_t t = trace::Profiler::now_ticks();
        trace::profiler().add_exec(i, t - *chain,
                                   shards_[i]->events_executed() - ev0);
        *chain = t;
    }
}

SimTime ShardedSimulator::run_windows(std::size_t workers) {
    std::barrier<> gate{static_cast<std::ptrdiff_t>(workers)};
    std::atomic<bool> stop{false};
    SimTime window_end = 0;  // written by worker 0, read after the barrier

    const bool prof = trace::profiling();
    if (prof) trace::profiler().begin_run();
    auto drive = [&](std::size_t j) {
        // Chained profiler clock: every read below closes one span and
        // opens the next, so a fully attributed window costs half the
        // clock reads of begin/end brackets (the hooks run tens of
        // thousands of times per second — read count IS the overhead).
        std::uint64_t chain = prof ? trace::Profiler::now_ticks() : 0;
        for (;;) {
            if (j == 0) {
                // The coordinator phase owns every shard queue: drain
                // the window's cross-shard traffic, then size the next
                // window while the other workers are parked at the
                // barrier below.
                drain_mailboxes();
                SimTime next = Simulator::kNever;
                for (Simulator* s : shards_) {
                    next = std::min(next, s->next_event_at());
                }
                if (next == Simulator::kNever) {
                    stop.store(true, std::memory_order_relaxed);
                } else {
                    ++windows_;
                    window_end = window_end_after(next, lookahead_);
                }
                if (prof) {
                    const std::uint64_t t = trace::Profiler::now_ticks();
                    trace::profiler().add_drain(0, t - chain);
                    chain = t;
                }
            }
            // Worker j's park time at either gate is its barrier-wait
            // share: for j != 0 the first gate's wait covers the whole
            // coordinator phase, the second covers straggler shards.
            gate.arrive_and_wait();
            if (prof) {
                const std::uint64_t t = trace::Profiler::now_ticks();
                trace::profiler().add_barrier(j, t - chain);
                chain = t;
            }
            if (stop.load(std::memory_order_relaxed)) break;
            run_shard_windows(j, workers, window_end, prof ? &chain : nullptr);
            gate.arrive_and_wait();
            if (prof) {
                const std::uint64_t t = trace::Profiler::now_ticks();
                trace::profiler().add_barrier(j, t - chain);
                chain = t;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t j = 1; j < workers; ++j) {
        pool.emplace_back([&drive, j] {
            drive(j);
            // Publish this worker's event tally before it disappears, so
            // process_events_executed() on the main thread sees it.
            Simulator::flush_process_counter();
        });
    }
    drive(0);
    for (std::thread& t : pool) t.join();
    if (prof) trace::profiler().end_run();
    return now();
}

SimTime ShardedSimulator::run() {
    if (trace::enabled()) {
        throw std::runtime_error{
            "ShardedSimulator: refuses to run while tracing is enabled — the "
            "tracer records from one thread only; trace a sequential run"};
    }
    if (shards_.size() == 1) {
        // Degenerate partition (e.g. every node landed in one shard):
        // plain sequential run, no windows, no barriers.
        return shards_[0]->run();
    }
    DAIET_EXPECTS(lookahead_ > 0);
    // One worker runs the same windows on the calling thread.
    return run_windows(std::min(threads_, shards_.size()));
}

}  // namespace daiet::sim
