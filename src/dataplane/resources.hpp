// SRAM accounting for the switch model.
//
// The paper's §2 lists "limited memory size" as the first constraint on
// in-network computation: a Tofino-class chip exposes a few tens of MBs
// of SRAM. Every register array and match table in our pipeline reserves
// its footprint from an SramBook; exceeding the budget throws, so a
// misconfigured DAIET deployment fails loudly at setup time exactly like
// a P4 program that does not fit its target.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace daiet::dp {

class ResourceError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class SramBook {
public:
    /// budget_bytes == 0 means unlimited (useful in unit tests).
    explicit SramBook(std::size_t budget_bytes = 0) noexcept
        : budget_bytes_{budget_bytes} {}

    /// Reserve `bytes` for the named structure; throws ResourceError if
    /// the reservation would exceed the budget.
    void reserve(const std::string& owner, std::size_t bytes) {
        if (budget_bytes_ != 0 && used_bytes_ + bytes > budget_bytes_) {
            throw ResourceError{"SRAM budget exceeded by '" + owner + "': used " +
                                std::to_string(used_bytes_) + " + " +
                                std::to_string(bytes) + " > budget " +
                                std::to_string(budget_bytes_)};
        }
        used_bytes_ += bytes;
    }

    void release(std::size_t bytes) noexcept {
        used_bytes_ = bytes > used_bytes_ ? 0 : used_bytes_ - bytes;
    }

    std::size_t used_bytes() const noexcept { return used_bytes_; }
    std::size_t budget_bytes() const noexcept { return budget_bytes_; }

private:
    std::size_t budget_bytes_;
    std::size_t used_bytes_{0};
};

/// A block of SRAM held in `book` for the reservation's lifetime,
/// independent of any host storage: a program claims the footprint of
/// state it materializes later, as a P4 compile fixes a program's whole
/// register layout before the first table entry is installed.
class SramReservation {
public:
    /// Throws ResourceError if `bytes` does not fit the book's budget.
    SramReservation(SramBook& book, const std::string& owner, std::size_t bytes)
        : book_{&book}, bytes_{bytes} {
        book_->reserve(owner, bytes_);
    }

    ~SramReservation() { book_->release(bytes_); }

    SramReservation(const SramReservation&) = delete;
    SramReservation& operator=(const SramReservation&) = delete;

    std::size_t bytes() const noexcept { return bytes_; }

private:
    SramBook* book_;
    std::size_t bytes_;
};

}  // namespace daiet::dp
