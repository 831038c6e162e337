// Stateful register arrays.
//
// RMT-style switches expose per-stage SRAM as fixed-size register arrays
// that actions may read and write once per packet traversal. DAIET's
// Algorithm 1 keeps two such arrays (keys and values) plus an index
// stack; all of them are RegisterArray instances here, so their SRAM
// footprint is accounted against the switch budget and every access is
// charged to the per-packet operation budget.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "dataplane/context.hpp"
#include "dataplane/resources.hpp"

namespace daiet::dp {

template <typename T>
class RegisterArray {
public:
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
          cells_{static_cast<T*>(std::calloc(size, sizeof(T)))},
          size_{size},
          book_{nullptr} {
        static_assert(std::is_trivially_copyable_v<T>,
                      "register cells must be raw data");
        DAIET_EXPECTS(size > 0);
        if (cells_ == nullptr) throw std::bad_alloc{};
    }

    ~RegisterArray() {
        if (book_ != nullptr) book_->release(footprint_bytes());
    }

    RegisterArray(const RegisterArray&) = delete;
    RegisterArray& operator=(const RegisterArray&) = delete;

    RegisterArray(RegisterArray&& other) noexcept
        : name_{std::move(other.name_)},
          cells_{std::move(other.cells_)},
          size_{std::exchange(other.size_, 0)},
          book_{std::exchange(other.book_, nullptr)} {}

    RegisterArray& operator=(RegisterArray&&) = delete;

    /// Read through the packet context (charged as one register-read op).
    const T& read(PacketContext& ctx, std::size_t idx) const {
        ctx.count_op(OpKind::kRegisterRead);
        DAIET_EXPECTS(idx < size_);
        return cells_[idx];
    }

    /// Write through the packet context (charged as one register-write op).
    void write(PacketContext& ctx, std::size_t idx, const T& value) {
        ctx.count_op(OpKind::kRegisterWrite);
        DAIET_EXPECTS(idx < size_);
        cells_[idx] = value;
    }

    /// Data-plane access whose reads and writes the program charges
    /// itself, per packet, through PacketContext::count_ops: the per-pair
    /// loops of a pass add up their charges instead of paying one call
    /// per access.
    T& cell(std::size_t idx) {
        DAIET_EXPECTS(idx < size_);
        return cells_[idx];
    }

    /// Control-plane access (no packet in flight, not op-charged):
    /// the controller may reset or inspect registers out of band.
    const T& peek(std::size_t idx) const {
        DAIET_EXPECTS(idx < size_);
        return cells_[idx];
    }

    void poke(std::size_t idx, const T& value) {
        DAIET_EXPECTS(idx < size_);
        cells_[idx] = value;
    }

    void fill(const T& value) { std::fill_n(cells_.get(), size_, value); }

    std::size_t size() const noexcept { return size_; }
    std::size_t footprint_bytes() const noexcept { return footprint_for(size_); }
    /// SRAM bytes an array of `size` cells occupies.
    static constexpr std::size_t footprint_for(std::size_t size) noexcept {
        return size * sizeof(T);
    }
    const std::string& name() const noexcept { return name_; }

private:
    struct Free {
        void operator()(T* cells) const noexcept { std::free(cells); }
    };

    std::string name_;
    /// From calloc, not a value-initializing container: a large array
    /// comes from fresh zero pages the OS commits on first write, so
    /// cells the data plane never touches cost SRAM in the book but no
    /// host memory.
    std::unique_ptr<T[], Free> cells_;
    std::size_t size_;
    SramBook* book_;
};

}  // namespace daiet::dp
