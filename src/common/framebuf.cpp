#include "common/framebuf.hpp"

#include <algorithm>
#include <cstring>
#include <new>

namespace daiet {

namespace {

static_assert(std::ranges::is_sorted(FrameBuf::kSlabClasses) &&
                  FrameBuf::kSlabClasses.back() == FrameBuf::kSlabCapacity,
              "size classes must ascend to kSlabCapacity");

/// The smallest size class that holds `size` (<= kSlabCapacity).
std::uint8_t class_of(std::size_t size) noexcept {
    return static_cast<std::uint8_t>(
        std::ranges::lower_bound(FrameBuf::kSlabClasses, size) - FrameBuf::kSlabClasses.begin());
}

/// Per-thread slab free lists, one per size class. The destructor
/// releases parked slabs at thread exit so leak checkers see a clean
/// heap.
struct FramePool {
    std::array<void*, FrameBuf::kSlabClasses.size()> free_head{};
    FramePoolStats stats;

    ~FramePool();
};

thread_local FramePool g_pool;

FramePool::~FramePool() { FrameBuf::trim_pool(); }

}  // namespace

FrameBuf FrameBuf::allocate(std::size_t size) {
    static_assert(sizeof(Slab) <= kHeaderSize);
    const bool pooled = size <= kSlabCapacity;
    const std::uint8_t cls = pooled ? class_of(size) : kOversize;
    Slab* slab = pooled ? static_cast<Slab*>(g_pool.free_head[cls]) : nullptr;
    if (slab != nullptr) {
        g_pool.free_head[cls] = slab->next_free;
        slab->refs = 1;
        slab->next_free = nullptr;
        slab->trace_id = 0;  // reused slab must not leak the old frame's id
        ++g_pool.stats.reuses;
        --g_pool.stats.free_slabs;
    } else {
        const std::size_t capacity = pooled ? kSlabClasses[cls] : size;
        void* raw = ::operator new(kHeaderSize + capacity);
        slab = new (raw) Slab{};
        slab->capacity = static_cast<std::uint32_t>(capacity);
        slab->size_class = cls;
        if (pooled) {
            ++g_pool.stats.slab_allocs;
        } else {
            ++g_pool.stats.oversize_allocs;
        }
    }
    if (pooled) {
        FramePoolStats& stats = g_pool.stats;
        stats.live_bytes += slab->capacity;
        stats.peak_live_bytes = std::max(stats.peak_live_bytes, stats.live_bytes);
    }
    slab->size = static_cast<std::uint32_t>(size);
    return FrameBuf{slab};
}

FrameBuf FrameBuf::copy_of(std::span<const std::byte> bytes) {
    FrameBuf buf = allocate(bytes.size());
    if (!bytes.empty()) {
        std::memcpy(payload(buf.slab_), bytes.data(), bytes.size());
    }
    return buf;
}

FrameBuf::FrameBuf(const std::vector<std::byte>& bytes)
    : FrameBuf{copy_of(std::span<const std::byte>{bytes})} {}

FrameBuf& FrameBuf::operator=(const FrameBuf& other) noexcept {
    if (this == &other) return *this;
    FrameBuf copy{other};
    release();
    slab_ = copy.slab_;
    copy.slab_ = nullptr;
    return *this;
}

std::span<std::byte> FrameBuf::mutable_bytes() {
    if (slab_ == nullptr) return {};
    if (slab_->refs > 1) {
        FrameBuf clone = copy_of(bytes());
        clone.slab_->trace_id = slab_->trace_id;
        ++g_pool.stats.cow_copies;
        release();
        slab_ = clone.slab_;
        clone.slab_ = nullptr;
    }
    return {payload(slab_), slab_->size};
}

void FrameBuf::release_slab(Slab* slab) noexcept {
    if (slab->size_class != kOversize) {
        g_pool.stats.live_bytes -= slab->capacity;
        slab->next_free = static_cast<Slab*>(g_pool.free_head[slab->size_class]);
        g_pool.free_head[slab->size_class] = slab;
        ++g_pool.stats.free_slabs;
        return;
    }
    slab->~Slab();
    ::operator delete(slab);
}

FramePoolStats FrameBuf::pool_stats() noexcept { return g_pool.stats; }

void FrameBuf::trim_pool() noexcept {
    for (void*& head : g_pool.free_head) {
        while (head != nullptr) {
            auto* slab = static_cast<Slab*>(head);
            head = slab->next_free;
            slab->~Slab();
            ::operator delete(slab);
            --g_pool.stats.free_slabs;
        }
    }
}

}  // namespace daiet
