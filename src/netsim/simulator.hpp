// Discrete-event simulation engine.
//
// A single-threaded event loop with a deterministic tie-break: events
// scheduled for the same instant fire in scheduling order. Determinism
// matters because every experiment in EXPERIMENTS.md must reproduce
// bit-for-bit from its seed.
//
// Queue layout: POD entries {time, seq, slot} over a slot pool of
// small-buffer-optimized actions — the common closures (link delivery,
// host timers) are stored inline, so steady-state scheduling touches no
// heap. The entries themselves live in a timing wheel for the near
// future (most events are link deliveries a few microseconds out) with
// a flat 4-ary heap as the far-future overflow. The pop order is
// exactly (time, seq); netsim_test replays randomized schedules against
// a std::priority_queue reference to pin it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "netsim/time.hpp"

namespace daiet::sim {

class Simulator {
public:
    Simulator() {
        for (auto& bucket : wheel_) bucket.reserve(kBucketReserve);
    }

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    ~Simulator() {
        for (std::uint32_t i = 0; i < slot_count_; ++i) {
            ActionSlot& slot = slot_at(i);
            if (slot.vt != nullptr) slot.vt->destroy(slot.buf);
        }
    }

    /// Schedule `action` to run at absolute time `at` (>= now).
    template <typename F>
    void schedule_at(SimTime at, F&& action) {
        DAIET_EXPECTS(at >= now_);
        // The packed 32-bit seq caps one Simulator at 2^32
        // scheduled events — far beyond any experiment here, and checked
        // rather than silently wrapping (a wrap would corrupt the
        // same-instant tie-break).
        DAIET_EXPECTS(next_seq_ <= 0xffffffffULL);
        const std::uint32_t slot = emplace_slot(std::forward<F>(action));
        push(HeapEntry{at, static_cast<std::uint32_t>(next_seq_++), slot});
    }

    /// Schedule `action` to run `delay` after the current time.
    template <typename F>
    void schedule_after(SimTime delay, F&& action) {
        schedule_at(now_ + delay, std::forward<F>(action));
    }

    SimTime now() const noexcept { return now_; }
    bool idle() const noexcept { return wheel_count_ + heap_.size() == 0; }
    std::uint64_t events_executed() const noexcept { return executed_; }

    /// Actions up to this size (nothrow-movable, max_align_t-aligned)
    /// are stored inline in their slot; larger ones are boxed.
    static constexpr std::size_t kInlineActionBytes = 48;

    /// "No pending event" sentinel for next_event_at().
    static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

    /// Timestamp of the earliest pending event, or kNever when idle.
    /// The sharded driver polls this to size conservative windows.
    SimTime next_event_at() {
        return idle() ? kNever : front_at();
    }

    /// Actions too large (or not nothrow-movable) for a slot's inline
    /// buffer, boxed on the heap instead. Zero in steady state — the
    /// bench's allocation gate.
    std::uint64_t actions_heap_allocated() const noexcept {
        return actions_heap_allocated_;
    }

    /// Events executed by every Simulator in this process (benches stamp
    /// sim speed from this without plumbing instances around). The
    /// counter is kept per thread so shard workers never contend on the
    /// hot path; workers publish their tally via flush_process_counter()
    /// before exiting, after which the calling thread sees the total.
    static std::uint64_t process_events_executed() noexcept {
        return process_flushed_.load(std::memory_order_relaxed) +
               tl_process_executed_;
    }

    /// Fold the calling thread's event tally into the process-wide
    /// counter. Shard workers call this once, right before joining.
    static void flush_process_counter() noexcept {
        process_flushed_.fetch_add(tl_process_executed_,
                                   std::memory_order_relaxed);
        tl_process_executed_ = 0;
    }

    /// Run until no events remain. Returns the final simulated time.
    SimTime run() {
        while (!idle()) step();
        return now_;
    }

    /// Run until the queue empties or simulated time would exceed
    /// `deadline`; events after the deadline stay queued and the clock
    /// lands exactly on `deadline`.
    SimTime run_until(SimTime deadline) {
        while (!idle() && front_at() <= deadline) step();
        now_ = std::max(now_, deadline);
        return now_;
    }

    /// Run every event strictly before `end`, leaving the clock on the
    /// last executed event (NOT inflated to `end`). This is the shard
    /// step of the conservative time-windowed parallel driver
    /// (netsim/parallel.hpp): windows are bounded by the cross-shard
    /// lookahead, and keeping now_ at the last real event makes the
    /// max-over-shards final time bit-identical to a sequential run.
    SimTime run_window(SimTime end) {
        while (!idle() && front_at() < end) step();
        return now_;
    }

private:
    // --- slot pool + flat heap ----------------------------------------------

    static constexpr std::uint32_t kNoSlot = 0xffffffff;

    /// run: invoke the action, then destroy it — even when the action
    /// unwinds via an exception. One indirect call per event instead of
    /// separate invoke/destroy dispatches. destroy alone exists for
    /// queue teardown (~Simulator), where nothing is invoked.
    struct VTable {
        void (*run)(void*);
        void (*destroy)(void*) noexcept;
    };

    struct ActionSlot {
        const VTable* vt{nullptr};
        std::uint32_t next_free{kNoSlot};
        alignas(std::max_align_t) std::byte buf[kInlineActionBytes];
    };

    /// 16 bytes, so the four children of a 4-ary heap node share one
    /// cache line. seq is the low 32 bits of next_seq_ (overflow is
    /// checked at schedule time, so the tie-break order is exact).
    struct HeapEntry {
        SimTime at;
        std::uint32_t seq;
        std::uint32_t slot;
    };
    static_assert(sizeof(HeapEntry) == 16);

    /// Slots live in fixed-size chunks so their addresses are stable:
    /// an action can be invoked in place even when it schedules more
    /// events (which may grow the pool but never moves existing slots).
    static constexpr std::size_t kSlotChunkShift = 9;
    static constexpr std::size_t kSlotChunkSize = 1u << kSlotChunkShift;

    ActionSlot& slot_at(std::uint32_t idx) noexcept {
        return chunks_[idx >> kSlotChunkShift][idx & (kSlotChunkSize - 1)];
    }

    template <typename Fn>
    static const VTable* inline_vtable() noexcept {
        static constexpr VTable vt{
            [](void* p) {
                Fn* fn = static_cast<Fn*>(p);
                struct Guard {
                    Fn* f;
                    ~Guard() { f->~Fn(); }
                } guard{fn};
                (*fn)();
            },
            [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
        };
        return &vt;
    }

    template <typename Fn>
    static const VTable* boxed_vtable() noexcept {
        static constexpr VTable vt{
            [](void* p) {
                Fn* fn = *static_cast<Fn**>(p);
                struct Guard {
                    Fn* f;
                    ~Guard() { delete f; }
                } guard{fn};
                (*fn)();
            },
            [](void* p) noexcept { delete *static_cast<Fn**>(p); },
        };
        return &vt;
    }

    template <typename F>
    std::uint32_t emplace_slot(F&& action) {
        using Fn = std::decay_t<F>;
        std::uint32_t idx;
        if (free_slot_ != kNoSlot) {
            idx = free_slot_;
            free_slot_ = slot_at(idx).next_free;
        } else {
            if (slot_count_ == chunks_.size() * kSlotChunkSize) {
                chunks_.emplace_back(new ActionSlot[kSlotChunkSize]);
            }
            idx = slot_count_++;
        }
        ActionSlot& slot = slot_at(idx);
        if constexpr (sizeof(Fn) <= kInlineActionBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void*>(slot.buf)) Fn(std::forward<F>(action));
            slot.vt = inline_vtable<Fn>();
        } else {
            auto* boxed = new Fn(std::forward<F>(action));
            std::memcpy(slot.buf, &boxed, sizeof boxed);
            slot.vt = boxed_vtable<Fn>();
            ++actions_heap_allocated_;
        }
        return idx;
    }

    static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
        if (a.at != b.at) return a.at < b.at;
        return a.seq < b.seq;
    }

    // --- timing wheel over the heap -----------------------------------------
    //
    // Nearly every scheduled event is a link delivery landing one
    // serialization+propagation delay ahead (a microsecond or two);
    // only timers (retransmission clocks, lease expiries) look further
    // out. The front of the queue is therefore a timing wheel: a ring
    // of buckets kWheelTickNs wide covering the next
    // kWheelBuckets*kWheelTickNs of simulated time, with the 4-ary heap
    // demoted to an overflow structure for events beyond the window
    // (they migrate into the wheel as it advances). Pushing into the
    // wheel is an append + a bitmap bit; popping sorts each bucket once
    // with the exact (at, seq) comparator, so the pop sequence is
    // bit-identical to any correct priority queue's — the wheel changes
    // how the next event is FOUND, never which event is next.
    static constexpr unsigned kWheelShift = 6;  ///< 64 ns per bucket
    static constexpr std::size_t kWheelBuckets = 256;  ///< 16 us window
    static constexpr std::uint64_t kWheelMask = kWheelBuckets - 1;
    /// Entries each bucket has room for from the start (32 KB in all).
    /// Buckets grow one by one as each sees a new occupancy high; with
    /// this floor a lightly loaded queue never has to, so its steady
    /// state allocates nothing.
    static constexpr std::size_t kBucketReserve = 8;

    static std::uint64_t tick_of(SimTime at) noexcept {
        return static_cast<std::uint64_t>(at) >> kWheelShift;
    }

    std::vector<HeapEntry>& bucket_of(std::uint64_t tick) noexcept {
        return wheel_[tick & kWheelMask];
    }

    void occupancy_set(std::uint64_t tick) noexcept {
        occupancy_[(tick & kWheelMask) >> 6] |= 1ULL << (tick & 63);
    }
    void occupancy_clear(std::uint64_t tick) noexcept {
        occupancy_[(tick & kWheelMask) >> 6] &= ~(1ULL << (tick & 63));
    }

    /// First tick >= `from` (within the window) whose bucket is
    /// non-empty. Pre: at least one wheel bucket is occupied.
    std::uint64_t next_occupied_tick(std::uint64_t from) const noexcept {
        std::uint64_t pos = from & kWheelMask;
        for (std::size_t probes = 0;; ++probes) {
            const std::uint64_t word =
                occupancy_[pos >> 6] & (~std::uint64_t{0} << (pos & 63));
            if (word != 0) {
                const std::uint64_t hit =
                    (pos & ~std::uint64_t{63}) + std::countr_zero(word);
                return from + ((hit - (from & kWheelMask)) & kWheelMask);
            }
            pos = (pos + 64) & ~std::uint64_t{63} & kWheelMask;
            DAIET_EXPECTS(probes <= kWheelBuckets / 64);
        }
    }

    void push(HeapEntry e) {
        const std::uint64_t tick = tick_of(e.at);
        if (tick >= wheel_tick_ + kWheelBuckets) {
            heap_.push_back(e);
            sift_up(heap_.size() - 1);
            return;
        }
        ++wheel_count_;
        // A push at (or behind) the bucket being drained — a same-instant
        // or sub-tick reschedule, or a run_until() that parked the wheel
        // past a quiet stretch — keeps the drained bucket's sort order by
        // inserting at its (at, seq) position among the unfired entries.
        if (tick <= wheel_tick_ && cur_ready_) {
            auto& b = bucket_of(wheel_tick_);
            b.insert(std::lower_bound(b.begin() +
                                          static_cast<std::ptrdiff_t>(drain_pos_),
                                      b.end(), e, before),
                     e);
            return;
        }
        bucket_of(tick < wheel_tick_ ? wheel_tick_ : tick).push_back(e);
        occupancy_set(tick < wheel_tick_ ? wheel_tick_ : tick);
    }

    /// Advance the wheel until the current bucket holds the next unfired
    /// event, sorted. Pre: !idle().
    void ensure_current() {
        if (cur_ready_) {
            if (drain_pos_ < bucket_of(wheel_tick_).size()) return;
            bucket_of(wheel_tick_).clear();
            occupancy_clear(wheel_tick_);
            drain_pos_ = 0;
            cur_ready_ = false;
            ++wheel_tick_;
        }
        for (;;) {
            // Overflow entries now inside the window migrate in.
            while (!heap_.empty() &&
                   tick_of(heap_.front().at) < wheel_tick_ + kWheelBuckets) {
                const HeapEntry e = heap_.front();
                heap_.front() = heap_.back();
                heap_.pop_back();
                if (!heap_.empty()) sift_down(0);
                bucket_of(tick_of(e.at)).push_back(e);
                occupancy_set(tick_of(e.at));
                ++wheel_count_;
            }
            if (wheel_count_ == 0) {
                // Quiet stretch: jump the window to the overflow's min.
                wheel_tick_ = tick_of(heap_.front().at);
                continue;
            }
            const std::uint64_t t = next_occupied_tick(wheel_tick_);
            if (t != wheel_tick_) {
                wheel_tick_ = t;  // window moved: re-check the overflow
                continue;
            }
            auto& b = bucket_of(wheel_tick_);
            std::sort(b.begin(), b.end(), before);
            drain_pos_ = 0;
            cur_ready_ = true;
            return;
        }
    }

    SimTime front_at() {
        ensure_current();
        return bucket_of(wheel_tick_)[drain_pos_].at;
    }

    // A 4-ary heap: half the depth of a binary heap, and the four
    // children of a node share two cache lines, so the pop-heavy
    // sift_down touches far less memory. The comparator is a strict
    // total order on (at, seq), so ANY correct priority queue — binary,
    // 4-ary, or std::priority_queue — pops the exact same sequence;
    // heap shape cannot affect determinism. Both sifts move a hole
    // instead of swapping: one 24-byte move per level rather than three.
    static constexpr std::size_t kHeapArity = 4;

    void sift_up(std::size_t i) noexcept {
        const HeapEntry x = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / kHeapArity;
            if (!before(x, heap_[parent])) break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = x;
    }

    void sift_down(std::size_t i) noexcept {
        const HeapEntry x = heap_[i];
        const std::size_t n = heap_.size();
        for (;;) {
            const std::size_t first = kHeapArity * i + 1;
            if (first >= n) break;
            const std::size_t last = std::min(first + kHeapArity, n);
            std::size_t best = first;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (before(heap_[c], heap_[best])) best = c;
            }
            if (!before(heap_[best], x)) break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = x;
    }

    void step() {
        ensure_current();
        const HeapEntry top = bucket_of(wheel_tick_)[drain_pos_++];
        --wheel_count_;

        now_ = top.at;
        ++executed_;
        ++tl_process_executed_;

        // Invoke in place: chunked slot storage never moves a live slot,
        // so the action survives any scheduling (or nested run()) it
        // performs. vt->run destroys the action itself (including when
        // it unwinds via an exception); this guard then returns the slot
        // to the free list.
        ActionSlot& slot = slot_at(top.slot);
        struct RecycleGuard {
            Simulator* s;
            ActionSlot* slot;
            std::uint32_t idx;
            ~RecycleGuard() {
                slot->vt = nullptr;
                slot->next_free = s->free_slot_;
                s->free_slot_ = idx;
            }
        } guard{this, &slot, top.slot};
        slot.vt->run(slot.buf);
    }

    std::vector<HeapEntry> heap_;  ///< overflow: events beyond the wheel window
    std::array<std::vector<HeapEntry>, kWheelBuckets> wheel_;
    std::array<std::uint64_t, kWheelBuckets / 64> occupancy_{};
    std::uint64_t wheel_tick_{0};  ///< tick of the bucket being drained
    std::size_t wheel_count_{0};   ///< entries across all wheel buckets
    std::size_t drain_pos_{0};     ///< fired prefix of the current bucket
    bool cur_ready_{false};        ///< current bucket sorted, drain_pos_ valid
    std::vector<std::unique_ptr<ActionSlot[]>> chunks_;
    std::uint32_t slot_count_{0};
    std::uint32_t free_slot_{kNoSlot};
    SimTime now_{0};
    std::uint64_t next_seq_{0};
    std::uint64_t executed_{0};
    std::uint64_t actions_heap_allocated_{0};
    inline static thread_local std::uint64_t tl_process_executed_{0};
    inline static std::atomic<std::uint64_t> process_flushed_{0};
};

}  // namespace daiet::sim
