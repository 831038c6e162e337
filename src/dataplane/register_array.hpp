// Stateful register arrays.
//
// RMT-style switches expose per-stage SRAM as fixed-size register arrays
// that actions may read and write once per packet traversal. DAIET's
// Algorithm 1 keeps two such arrays (keys and values) plus an index
// stack; all of them are RegisterArray instances here, so their SRAM
// footprint is accounted against the switch budget and every access is
// charged to the per-packet operation budget.
//
// Host memory is committed per block of kBlockCells cells, not per
// 4 KiB page. Each array makes one allocation: a block table, then an
// arena of size cells. A block is carved from the arena's head, in
// first-write order, when one of its cells is first written, and the
// table finds it. A block never written reads as empty cells, through
// one shared all-zero block, and is never carved, so the arena's pages
// past the carved head are never touched and the OS never commits them.
// The SRAM book is charged for every cell all the same. A DAIET tree
// slot whose 16K cells hold a few hundred keys thus commits the blocks
// those keys land in, packed together, where storage indexed by cell
// committed a page for each scattered 20-byte pair.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "common/contracts.hpp"
#include "dataplane/context.hpp"
#include "dataplane/resources.hpp"

namespace daiet::dp {

template <typename T>
class RegisterArray {
public:
    /// Cells per block: the unit of host memory a first write commits.
    static constexpr std::size_t kBlockCells = 16;

    /// Reserves size * sizeof(T) bytes from `book` for the lifetime of
    /// the array. T must be trivially copyable (register cells are raw
    /// SRAM words, not objects with behaviour).
    RegisterArray(std::string name, std::size_t size, SramBook& book)
        : RegisterArray{std::move(name), size} {
        book.reserve(name_, footprint_bytes());
        book_ = &book;  // only once reserved: a throw must not release
    }

    /// Host storage for an array whose SRAM is already held elsewhere,
    /// by an SramReservation covering footprint_for(size) bytes.
    /// Every cell starts as all-zero bits, the empty cell.
    RegisterArray(std::string name, std::size_t size)
        : name_{std::move(name)},
          size_{size},
          blocks_{static_cast<T**>(
              std::malloc(block_count(size) * sizeof(T*) + size * sizeof(T)))} {
        static_assert(std::is_trivially_copyable_v<T>,
                      "register cells must be raw data");
        static_assert(alignof(T) <= alignof(T*), "the arena follows the block table");
        DAIET_EXPECTS(size > 0);
        if (blocks_ == nullptr) throw std::bad_alloc{};
        // Only the table is written here: the arena's pages stay
        // untouched until blocks are carved from them.
        std::fill_n(blocks_, block_count(size), const_cast<T*>(kEmptyBlock.data()));
    }

    ~RegisterArray() {
        if (book_ != nullptr) book_->release(footprint_bytes());
        std::free(blocks_);
    }

    RegisterArray(const RegisterArray&) = delete;
    RegisterArray& operator=(const RegisterArray&) = delete;

    RegisterArray(RegisterArray&& other) noexcept
        : name_{std::move(other.name_)},
          size_{std::exchange(other.size_, 0)},
          blocks_{std::exchange(other.blocks_, nullptr)},
          committed_cells_{std::exchange(other.committed_cells_, 0)},
          book_{std::exchange(other.book_, nullptr)} {}

    RegisterArray& operator=(RegisterArray&&) = delete;

    /// Read through the packet context (charged as one register-read op).
    const T& read(PacketContext& ctx, std::size_t idx) const {
        ctx.count_op(OpKind::kRegisterRead);
        return peek(idx);
    }

    /// Write through the packet context (charged as one register-write op).
    void write(PacketContext& ctx, std::size_t idx, const T& value) {
        ctx.count_op(OpKind::kRegisterWrite);
        cell(idx) = value;
    }

    /// Data-plane access whose reads and writes the program charges
    /// itself, per packet, through PacketContext::count_ops: the per-pair
    /// loops of a pass add up their charges instead of paying one call
    /// per access. Commits the cell's block, so call it for a cell the
    /// pass may write; read-only access goes through peek().
    T& cell(std::size_t idx) {
        DAIET_EXPECTS(idx < size_);
        T* block = blocks_[idx / kBlockCells];
        if (block == kEmptyBlock.data()) [[unlikely]] block = commit(idx / kBlockCells);
        return block[idx % kBlockCells];
    }

    /// Control-plane access (no packet in flight, not op-charged):
    /// the controller may reset or inspect registers out of band. Reads
    /// commit nothing: a never-written cell reads as the empty cell.
    const T& peek(std::size_t idx) const {
        DAIET_EXPECTS(idx < size_);
        return blocks_[idx / kBlockCells][idx % kBlockCells];
    }

    void poke(std::size_t idx, const T& value) { cell(idx) = value; }

    /// Every cell back to the empty cell. Committed blocks stay committed.
    void clear() noexcept {
        std::memset(static_cast<void*>(arena()), 0, committed_cells_ * sizeof(T));
    }

    std::size_t size() const noexcept { return size_; }
    std::size_t footprint_bytes() const noexcept { return footprint_for(size_); }
    /// SRAM bytes an array of `size` cells occupies.
    static constexpr std::size_t footprint_for(std::size_t size) noexcept {
        return size * sizeof(T);
    }
    /// Host bytes of the cells in committed blocks (the block table and
    /// the arena's uncarved tail not included).
    std::size_t committed_bytes() const noexcept { return committed_cells_ * sizeof(T); }
    const std::string& name() const noexcept { return name_; }

private:
    static constexpr std::size_t block_count(std::size_t size) noexcept {
        return (size + kBlockCells - 1) / kBlockCells;
    }
    /// Cells of block `b`: kBlockCells except in a partial last block.
    std::size_t block_cells(std::size_t b) const noexcept {
        return std::min(kBlockCells, size_ - b * kBlockCells);
    }

    /// The arena: size cells after the table, carved from the front.
    T* arena() const noexcept { return reinterpret_cast<T*>(blocks_ + block_count(size_)); }

    /// Carve block `b` from the arena's uncarved tail and zero it. The
    /// blocks' cells add up to size, so the arena never runs out.
    [[gnu::noinline]] T* commit(std::size_t b) {
        T* block = arena() + committed_cells_;
        const std::size_t cells = block_cells(b);
        std::memset(static_cast<void*>(block), 0, cells * sizeof(T));
        committed_cells_ += cells;
        blocks_[b] = block;
        return block;
    }

    /// What a never-written block reads as: all-zero bits.
    inline static const std::array<T, kBlockCells> kEmptyBlock = [] {
        std::array<T, kBlockCells> block{};
        std::memset(static_cast<void*>(block.data()), 0, sizeof block);
        return block;
    }();

    std::string name_;
    std::size_t size_;
    /// The array's one allocation: the block table (per block, its first
    /// cell in the arena, or kEmptyBlock until it is carved), then the
    /// arena.
    T** blocks_;
    std::size_t committed_cells_{0};  ///< the arena's carved head
    SramBook* book_{nullptr};
};

}  // namespace daiet::dp
