// Pooled, ref-counted network frame buffers.
//
// Every hop of the simulated fabric used to copy frames through
// std::vector<std::byte>, which put one or more heap round-trips on the
// per-frame fast path (build, per-hop closure capture, switch fan-out).
// FrameBuf replaces that with pooled slabs recycled through per-thread
// free lists, one per size class: steady-state traffic allocates
// nothing, and copying a FrameBuf is a refcount bump with copy-on-write
// on the first mutation, so sharing is never observable.
//
// A frame sits in the smallest class that holds it. The classes are
// fitted to the frames the fabric builds, because slab padding is most
// of the simulator's frame memory: a WordCount shuffle keeps ~120K
// frames in flight, nearly all of them DAIET data packets <= 256 B.
//
// Thread model: the simulator is single-threaded; the pool and the
// refcounts are deliberately non-atomic and per-thread (each thread gets
// its own free list, so parallel test shards never contend or race).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace daiet {

/// Allocation counters for the per-thread slab pool (monotonic, never
/// reset): the observability behind the "zero steady-state heap
/// allocations per delivered frame" gate in bench_sim_throughput.
struct FramePoolStats {
    std::uint64_t slab_allocs{0};     ///< pooled-class slabs heap-allocated
    std::uint64_t oversize_allocs{0}; ///< > kSlabCapacity slabs (never pooled)
    std::uint64_t reuses{0};          ///< allocations served from a free list
    std::uint64_t cow_copies{0};      ///< copy-on-write clones of shared buffers
    std::uint64_t free_slabs{0};      ///< slabs currently parked in the free lists
    /// Pooled slab capacity handed out and not yet released, in bytes,
    /// and its high-water mark. Signed: under the parallel driver a
    /// frame can be released on another thread than the one that
    /// allocated it, so one thread's count may go negative.
    std::int64_t live_bytes{0};
    std::int64_t peak_live_bytes{0};
};

class FrameBuf {
public:
    /// The largest pooled slab — comfortably above the fabric's largest
    /// frame (MTU-sized DAIET data packets plus headers). Larger
    /// requests fall back to exact-size heap blocks that are freed, not
    /// pooled.
    static constexpr std::size_t kSlabCapacity = 2048;

    /// Payload capacities of the pooled size classes, smallest first:
    /// 46 B echo and 54 B TCP ACK frames, 74 B kv messages, DAIET data
    /// packets (<= 250 B at the default pairs per packet), short TCP
    /// segments, 1078 B TCP segments (a 1024 B application chunk), and
    /// 1514 B MTU frames.
    static constexpr std::array<std::uint32_t, 7> kSlabClasses{
        64, 128, 256, 512, 1088, 1536, kSlabCapacity};

    FrameBuf() noexcept = default;

    /// Bridge for callers that still assemble bytes in a std::vector
    /// (tests, hand-built probe frames). Copies into a slab.
    FrameBuf(const std::vector<std::byte>& bytes);  // NOLINT(google-explicit-constructor)

    /// An uninitialized buffer of exactly `size` bytes; the caller must
    /// write every byte (frame builders serialize the full wire image).
    static FrameBuf allocate(std::size_t size);

    /// Copy of `bytes` in a pooled slab.
    static FrameBuf copy_of(std::span<const std::byte> bytes);

    /// Copies are a refcount bump. Inline because the fabric copies a
    /// frame several times per hop (closure capture, fan-out, parse).
    FrameBuf(const FrameBuf& other) noexcept : slab_{other.slab_} {
        if (slab_ != nullptr) ++slab_->refs;
    }
    FrameBuf& operator=(const FrameBuf& other) noexcept;
    FrameBuf(FrameBuf&& other) noexcept : slab_{other.slab_} { other.slab_ = nullptr; }
    FrameBuf& operator=(FrameBuf&& other) noexcept {
        if (this != &other) {
            release();
            slab_ = other.slab_;
            other.slab_ = nullptr;
        }
        return *this;
    }
    ~FrameBuf() { release(); }

    std::size_t size() const noexcept { return slab_ ? slab_->size : 0; }
    bool empty() const noexcept { return size() == 0; }
    const std::byte* data() const noexcept {
        return slab_ ? payload(slab_) : nullptr;
    }
    const std::byte* begin() const noexcept { return data(); }
    const std::byte* end() const noexcept { return data() + size(); }

    std::span<const std::byte> bytes() const noexcept { return {data(), size()}; }
    operator std::span<const std::byte>() const noexcept {  // NOLINT
        return bytes();
    }

    /// Writable view. If the buffer is shared, this clones it first
    /// (copy-on-write), so mutation through one handle can never be
    /// observed through another — a switch marking ECN on one egress
    /// copy of a broadcast frame leaves the other copies clean.
    std::span<std::byte> mutable_bytes();

    /// Payload bytes the underlying slab can hold: its size class for a
    /// pooled slab, exactly size() for an oversize one.
    std::size_t capacity() const noexcept { return slab_ ? slab_->capacity : 0; }

    /// True when no other FrameBuf shares the underlying slab.
    bool unique() const noexcept { return slab_ == nullptr || slab_->refs == 1; }

    /// Causal trace id (trace/trace.hpp) riding in the slab header's
    /// spare bytes: every handle sharing the slab sees the same id, so
    /// propagation across link queues, fan-out copies and closure
    /// captures is the refcount bump itself. 0 = untraced. allocate()
    /// zeroes it (slab reuse must not leak ids across frames); the CoW
    /// clone preserves it.
    std::uint64_t trace_id() const noexcept { return slab_ ? slab_->trace_id : 0; }
    void set_trace_id(std::uint64_t id) noexcept {
        if (slab_ != nullptr) slab_->trace_id = id;
    }

    /// Pool counters for this thread.
    static FramePoolStats pool_stats() noexcept;
    /// Release every slab parked in this thread's free lists (tests, and
    /// a WordCount job once its cluster is gone).
    static void trim_pool() noexcept;

private:
    struct Slab {
        std::uint32_t refs{1};
        std::uint32_t size{0};
        std::uint32_t capacity{0};
        std::uint8_t size_class{kOversize};  ///< free list it returns to
        Slab* next_free{nullptr};
        std::uint64_t trace_id{0};  ///< shared causal id, see trace_id()
        // payload bytes trail the header
    };

    /// Slab header + payload live in one block; the payload starts at a
    /// fixed 32-byte offset so it stays max_align_t-aligned.
    static constexpr std::size_t kHeaderSize = 32;
    /// Slab::size_class of a slab that is freed, not pooled.
    static constexpr std::uint8_t kOversize = 0xff;

    static std::byte* payload(Slab* slab) noexcept {
        return reinterpret_cast<std::byte*>(slab) + kHeaderSize;
    }

    explicit FrameBuf(Slab* slab) noexcept : slab_{slab} {}

    /// Drop this handle's reference; the slab's last owner recycles or
    /// frees it out of line. Inline because releases outnumber frame
    /// deliveries roughly tenfold (every temporary copy ends in one).
    void release() noexcept {
        if (slab_ == nullptr) return;
        Slab* slab = slab_;
        slab_ = nullptr;
        if (--slab->refs == 0) release_slab(slab);
    }
    static void release_slab(Slab* slab) noexcept;

    Slab* slab_{nullptr};
};

}  // namespace daiet
