// Switch-side sketch structures for the telemetry tenant.
//
// CountMinSketch — `depth` rows of `width` 32-bit counters in switch
// SRAM, one independent (salted CRC) hash per row; an update increments
// one cell per row, an estimate takes the row minimum. The classic
// guarantee carries over: estimates never undercount, and overcount at
// most stream_length * e / width per key with probability 1 - e^-depth.
//
// HotKeyLog — the heavy-hitter register: an append-only key log plus a
// hashed dedup filter of full keys. A key whose sketch estimate reaches
// the threshold is appended once; a dedup-cell collision (two hot keys
// hashing to the same filter cell) can only cause a *duplicate* append,
// never a missed one, so the log provably contains every key the sketch
// flagged as hot — the property the promotion control loop leans on.
// The collector drains and resets both structures at each poll.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/fixed_key.hpp"
#include "dataplane/register_array.hpp"

namespace daiet::telemetry {

class CountMinSketch {
public:
    /// Reserves width * depth counters from `book` (throws
    /// dp::ResourceError when the chip is full).
    CountMinSketch(std::string name, std::size_t width, std::size_t depth,
                   dp::SramBook& book);

    // --- data plane ---------------------------------------------------------
    /// Count one occurrence of `key`; returns the post-update estimate.
    /// Charged: depth hashes, depth reads, depth writes, one ALU min.
    std::uint32_t update(dp::PacketContext& ctx, const Key16& key);

    // --- control plane ------------------------------------------------------
    /// Estimate without a packet in flight (the poll path).
    std::uint32_t estimate(const Key16& key) const;
    void reset() { cells_.clear(); }

    std::size_t width() const noexcept { return width_; }
    std::size_t depth() const noexcept { return depth_; }
    std::size_t sram_bytes() const noexcept { return cells_.footprint_bytes(); }

private:
    /// Per-row cell for one CRC of the key. The CRC alone cannot give
    /// independent rows — CRC is XOR-linear, so any two keys whose
    /// checksum difference has zero low bits would collide in *every*
    /// salted row — so each row scrambles the CRC through a nonlinear
    /// finalizer first (targets pair the hash unit with per-row
    /// polynomial/seed selection for the same reason).
    std::size_t row_cell(std::size_t row, std::uint32_t crc) const noexcept;

    std::size_t width_;
    std::size_t depth_;
    dp::RegisterArray<std::uint32_t> cells_;
};

class HotKeyLog {
public:
    HotKeyLog(std::string name, std::size_t capacity, std::size_t dedup_cells,
              dp::SramBook& book);

    struct Outcome {
        bool appended{false};
        bool dropped{false};  ///< log full
    };

    // --- data plane ---------------------------------------------------------
    /// Offer a hot key. Appends unless the dedup filter says it is
    /// already logged (full-key comparison: a colliding cell causes a
    /// duplicate append, never a miss) or the log is full.
    Outcome offer(dp::PacketContext& ctx, const Key16& key);

    // --- control plane ------------------------------------------------------
    /// Keys logged this window, in append order (may contain duplicates
    /// after dedup-cell collisions; consumers dedup on merge).
    std::vector<Key16> drain() const;
    void reset();

    std::size_t logged() const noexcept { return count_.peek(0); }
    std::size_t capacity() const noexcept { return keys_.size(); }
    std::size_t sram_bytes() const noexcept {
        return keys_.footprint_bytes() + dedup_.footprint_bytes() +
               count_.footprint_bytes();
    }

private:
    dp::RegisterArray<Key16> keys_;
    dp::RegisterArray<Key16> dedup_;
    dp::RegisterArray<std::uint32_t> count_;  // [1]
};

}  // namespace daiet::telemetry
