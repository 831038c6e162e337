// Bounded, endian-explicit byte-buffer reader/writer.
//
// All wire formats in this repository (DAIET preamble, key-value pairs,
// simulated UDP/TCP headers) are serialized through these two classes so
// that byte-level framing is testable in one place. Network byte order
// (big-endian) is used throughout, as on a real wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"

namespace daiet {

/// Error thrown when a reader runs past the end of its buffer or a
/// writer exceeds a configured capacity. Indicates malformed input
/// (a data error), hence an exception rather than a contract violation.
class BufferError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Appends big-endian scalars and raw bytes to a growable buffer.
class ByteWriter {
public:
    ByteWriter() = default;

    /// Construct with a hard capacity, reserved up front so an exactly
    /// sized message allocates once; exceeding it throws BufferError.
    /// capacity == 0 means unbounded.
    explicit ByteWriter(std::size_t capacity) : capacity_{capacity} {
        buf_.reserve(capacity);
    }

    /// Serialize directly into caller-owned storage (e.g. a FrameBuf
    /// slab) instead of a growable vector — the zero-allocation path for
    /// frame builders. Writing past the span throws BufferError; take()
    /// is unavailable in this mode.
    explicit ByteWriter(std::span<std::byte> fixed)
        : fixed_{fixed}, fixed_mode_{true}, capacity_{fixed.size()} {}

    void put_u8(std::uint8_t v) { append(&v, 1); }

    void put_u16(std::uint16_t v) {
        const std::uint8_t raw[2] = {static_cast<std::uint8_t>(v >> 8),
                                     static_cast<std::uint8_t>(v)};
        append(raw, sizeof raw);
    }

    void put_u32(std::uint32_t v) {
        const std::uint8_t raw[4] = {
            static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
            static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
        append(raw, sizeof raw);
    }

    void put_u64(std::uint64_t v) {
        put_u32(static_cast<std::uint32_t>(v >> 32));
        put_u32(static_cast<std::uint32_t>(v));
    }

    void put_bytes(std::span<const std::byte> data) {
        append(data.data(), data.size());
    }

    void put_string(std::string_view s) {
        append(s.data(), s.size());
    }

    std::size_t size() const noexcept {
        return fixed_mode_ ? fixed_size_ : buf_.size();
    }
    bool empty() const noexcept { return size() == 0; }
    std::span<const std::byte> bytes() const noexcept {
        return fixed_mode_ ? fixed_.first(fixed_size_)
                           : std::span<const std::byte>{buf_};
    }

    /// Growable mode only: a fixed-span writer does not own its bytes.
    std::vector<std::byte> take() noexcept {
        DAIET_EXPECTS(!fixed_mode_);
        return std::move(buf_);
    }

private:
    void ensure_room(std::size_t extra) const {
        // Fixed mode is always bounded (even by an empty span); growable
        // mode treats capacity 0 as unbounded.
        const std::size_t cap = fixed_mode_ ? fixed_.size() : capacity_;
        if ((fixed_mode_ || cap != 0) && size() + extra > cap) {
            throw BufferError{"ByteWriter capacity exceeded"};
        }
    }

    void append(const void* data, std::size_t n) {
        // An empty span's data() may be null, and memcpy from null is
        // undefined even for zero bytes.
        if (n == 0) return;
        ensure_room(n);
        const auto* p = static_cast<const std::byte*>(data);
        if (fixed_mode_) {
            std::memcpy(fixed_.data() + fixed_size_, p, n);
            fixed_size_ += n;
        } else {
            buf_.insert(buf_.end(), p, p + n);
        }
    }

    std::vector<std::byte> buf_;
    std::span<std::byte> fixed_;
    std::size_t fixed_size_{0};
    bool fixed_mode_{false};
    std::size_t capacity_{0};
};

/// Consumes big-endian scalars from a non-owning view of bytes.
class ByteReader {
public:
    explicit ByteReader(std::span<const std::byte> data) noexcept : data_{data} {}

    std::uint8_t get_u8() {
        need(1);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint16_t get_u16() {
        need(2);
        const auto hi = static_cast<std::uint16_t>(data_[pos_]);
        const auto lo = static_cast<std::uint16_t>(data_[pos_ + 1]);
        pos_ += 2;
        return static_cast<std::uint16_t>(hi << 8 | lo);
    }

    std::uint32_t get_u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v = v << 8 | static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t get_u64() {
        const std::uint64_t hi = get_u32();
        const std::uint64_t lo = get_u32();
        return hi << 32 | lo;
    }

    std::span<const std::byte> get_bytes(std::size_t n) {
        need(n);
        const auto out = data_.subspan(pos_, n);
        pos_ += n;
        return out;
    }

    void skip(std::size_t n) {
        need(n);
        pos_ += n;
    }

    std::size_t remaining() const noexcept { return data_.size() - pos_; }
    std::size_t position() const noexcept { return pos_; }
    bool exhausted() const noexcept { return pos_ == data_.size(); }

private:
    void need(std::size_t n) const {
        if (pos_ + n > data_.size()) {
            throw BufferError{"ByteReader past end of buffer"};
        }
    }

    std::span<const std::byte> data_;
    std::size_t pos_{0};
};

/// Big-endian loads for the fixed-layout decoders, which check the
/// size once and then read fields at known offsets instead of going
/// through a bounds-checked ByteReader per field.
inline std::uint16_t load_be16(const std::byte* p) noexcept {
    return static_cast<std::uint16_t>(std::to_integer<std::uint16_t>(p[0]) << 8 |
                                      std::to_integer<std::uint16_t>(p[1]));
}

inline std::uint32_t load_be32(const std::byte* p) noexcept {
    return std::to_integer<std::uint32_t>(p[0]) << 24 |
           std::to_integer<std::uint32_t>(p[1]) << 16 |
           std::to_integer<std::uint32_t>(p[2]) << 8 |
           std::to_integer<std::uint32_t>(p[3]);
}

inline std::uint64_t load_be64(const std::byte* p) noexcept {
    return std::uint64_t{load_be32(p)} << 32 | load_be32(p + 4);
}

/// Convenience: view a string as bytes.
inline std::span<const std::byte> as_bytes(std::string_view s) noexcept {
    return std::as_bytes(std::span{s.data(), s.size()});
}

}  // namespace daiet
