// Fixed-width key representation.
//
// The paper (§4, §5) stores keys in fixed-size register cells because P4
// lacks variable-length data structures: "the programmer is forced to
// reserve for each key as many bytes as the largest expected key". The
// prototype uses 16-byte keys. FixedKey models exactly that cell: a
// zero-padded, fixed-width byte array with value semantics.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/hash.hpp"

namespace daiet {

template <std::size_t Width>
class FixedKey {
public:
    static constexpr std::size_t width = Width;
    static_assert(Width > 0 && Width <= 64, "key width must be in (0, 64]");

    /// The all-zero key; used as the "empty cell" sentinel in registers,
    /// matching Algorithm 1 line 6 ("keyRegister[idx] is empty").
    constexpr FixedKey() noexcept = default;

    /// Truncating construction is a bug, not a data condition: the
    /// serializer must never hand us an over-long key.
    explicit FixedKey(std::string_view s) {
        if (s.size() > Width) {
            throw std::length_error{"FixedKey: key longer than cell width"};
        }
        std::copy(s.begin(), s.end(),
                  reinterpret_cast<char*>(bytes_.data()));
    }

    /// Exactly one cell's bytes, as the wire decoders hand them over.
    explicit FixedKey(std::span<const std::byte, Width> raw) noexcept {
        std::copy(raw.begin(), raw.end(), bytes_.begin());
    }

    explicit FixedKey(std::span<const std::byte> raw) {
        if (raw.size() > Width) {
            throw std::length_error{"FixedKey: key longer than cell width"};
        }
        std::copy(raw.begin(), raw.end(), bytes_.begin());
    }

    /// Build from an integer identifier (used for ML tensor indices and
    /// graph vertex ids, which the paper maps onto the same k-v format).
    static FixedKey from_u64(std::uint64_t v) noexcept {
        FixedKey k;
        for (std::size_t i = 0; i < std::min<std::size_t>(8, Width); ++i) {
            k.bytes_[i] = static_cast<std::byte>(v >> (8 * i));
        }
        return k;
    }

    std::uint64_t to_u64() const noexcept {
        std::uint64_t v = 0;
        for (std::size_t i = std::min<std::size_t>(8, Width); i-- > 0;) {
            v = v << 8 | static_cast<std::uint64_t>(bytes_[i]);
        }
        return v;
    }

    bool empty() const noexcept { return *this == FixedKey{}; }

    /// The string this cell encodes (trailing NULs stripped).
    std::string to_string() const {
        const auto* p = reinterpret_cast<const char*>(bytes_.data());
        std::size_t len = Width;
        while (len > 0 && p[len - 1] == '\0') --len;
        return std::string{p, len};
    }

    std::span<const std::byte> bytes() const noexcept { return bytes_; }

    // Lexicographic byte order (identical to std::array's defaulted
    // comparison). Key compares dominate reducer-side sorting, so each
    // full 8-byte word is compared as one big-endian unsigned integer,
    // whose order is the byte order; a Width % 8 tail goes to memcmp.
    friend bool operator==(const FixedKey& a, const FixedKey& b) noexcept {
        return std::memcmp(a.bytes_.data(), b.bytes_.data(), Width) == 0;
    }
    friend std::strong_ordering operator<=>(const FixedKey& a,
                                            const FixedKey& b) noexcept {
        constexpr std::size_t words = Width / 8;
        for (std::size_t i = 0; i < words; ++i) {
            const std::uint64_t x = a.big_endian_word(i);
            const std::uint64_t y = b.big_endian_word(i);
            if (x != y) return x <=> y;
        }
        constexpr std::size_t tail = Width % 8;
        if constexpr (tail == 0) {
            return std::strong_ordering::equal;
        } else {
            return std::memcmp(a.bytes_.data() + 8 * words,
                               b.bytes_.data() + 8 * words, tail) <=> 0;
        }
    }

private:
    /// Bytes [8i, 8i + 8) read as a big-endian integer.
    std::uint64_t big_endian_word(std::size_t i) const noexcept {
        std::uint64_t w = 0;
        std::memcpy(&w, bytes_.data() + 8 * i, sizeof w);
        if constexpr (std::endian::native == std::endian::little) {
            w = __builtin_bswap64(w);
        }
        return w;
    }

    std::array<std::byte, Width> bytes_{};
};

/// The paper's prototype key width (§5: "words of maximum 16 characters").
using Key16 = FixedKey<16>;

}  // namespace daiet

template <std::size_t Width>
struct std::hash<daiet::FixedKey<Width>> {
    std::size_t operator()(const daiet::FixedKey<Width>& k) const noexcept {
        return static_cast<std::size_t>(daiet::fnv1a64(k.bytes()));
    }
};
