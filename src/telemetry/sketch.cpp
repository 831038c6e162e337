#include "telemetry/sketch.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "common/hash.hpp"

namespace daiet::telemetry {

// ------------------------------------------------------- CountMinSketch

CountMinSketch::CountMinSketch(std::string name, std::size_t width,
                               std::size_t depth, dp::SramBook& book)
    : width_{width}, depth_{depth}, cells_{std::move(name), width * depth, book} {
    DAIET_EXPECTS(width > 0);
    DAIET_EXPECTS(depth > 0);
}

std::size_t CountMinSketch::row_cell(std::size_t row,
                                     std::uint32_t crc) const noexcept {
    const std::uint64_t scrambled =
        mix64(static_cast<std::uint64_t>(crc) ^
              (static_cast<std::uint64_t>(row) + 1) * 0x9e3779b97f4a7c15ULL);
    return row * width_ + scrambled % width_;
}

std::uint32_t CountMinSketch::update(dp::PacketContext& ctx, const Key16& key) {
    const std::uint32_t crc = ctx.hash(key.bytes());
    std::uint32_t est = 0xffffffffu;
    for (std::size_t row = 0; row < depth_; ++row) {
        std::uint32_t& cell = cells_.cell(row_cell(row, crc));
        est = std::min(est, ++cell);
    }
    // Per row: the scramble, the cell's read and its write back; then
    // the running min.
    ctx.count_ops(dp::OpKind::kAlu, depth_ + 1);
    ctx.count_ops(dp::OpKind::kRegisterRead, depth_);
    ctx.count_ops(dp::OpKind::kRegisterWrite, depth_);
    return est;
}

std::uint32_t CountMinSketch::estimate(const Key16& key) const {
    const std::uint32_t crc = Crc32::compute(key.bytes());
    std::uint32_t est = 0xffffffffu;
    for (std::size_t row = 0; row < depth_; ++row) {
        est = std::min(est, cells_.peek(row_cell(row, crc)));
    }
    return est;
}

// ----------------------------------------------------------- HotKeyLog

HotKeyLog::HotKeyLog(std::string name, std::size_t capacity,
                     std::size_t dedup_cells, dp::SramBook& book)
    : keys_{name + ".log", capacity, book},
      dedup_{name + ".dedup", dedup_cells, book},
      count_{name + ".count", 1, book} {
    DAIET_EXPECTS(capacity > 0);
    DAIET_EXPECTS(dedup_cells > 0);
    reset();
}

HotKeyLog::Outcome HotKeyLog::offer(dp::PacketContext& ctx, const Key16& key) {
    Outcome out;
    const std::size_t cell = ctx.hash(key.bytes()) % dedup_.size();
    ctx.count_op(dp::OpKind::kAlu);  // full-key compare
    if (dedup_.read(ctx, cell) == key) return out;  // already logged
    const std::uint32_t at = count_.read(ctx, 0);
    if (at >= keys_.size()) {
        out.dropped = true;
        return out;
    }
    dedup_.write(ctx, cell, key);
    keys_.write(ctx, at, key);
    count_.write(ctx, 0, at + 1);
    out.appended = true;
    return out;
}

std::vector<Key16> HotKeyLog::drain() const {
    const std::uint32_t n = count_.peek(0);
    std::vector<Key16> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(keys_.peek(i));
    return out;
}

void HotKeyLog::reset() {
    count_.clear();
    dedup_.clear();
}

}  // namespace daiet::telemetry
