#include "core/protocol.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/contracts.hpp"

namespace daiet {

namespace {

std::uint8_t key_byte(const KvPair& p, std::size_t depth) noexcept {
    return static_cast<std::uint8_t>(p.key.bytes()[depth]);
}

/// Up to kKeySortCutoff pairs, the 256-entry count and prefix sum of a
/// radix pass cost more than these compares.
void insertion_sort(std::span<KvPair> pairs) noexcept {
    for (std::size_t i = 1; i < pairs.size(); ++i) {
        const KvPair p = pairs[i];
        std::size_t j = i;
        for (; j > 0 && p.key < pairs[j - 1].key; --j) pairs[j] = pairs[j - 1];
        pairs[j] = p;
    }
}

/// Sort the pairs in `from`, whose keys agree on bytes [0, depth), so
/// that they end up in the caller's array. `to` is the same-sized
/// region of the other buffer; `from_is_home` says whether `from` is
/// the caller's array. Each scatter pass moves the pairs into the other
/// buffer and the buckets recurse from there, so a pair is copied back
/// only where its bucket finishes in scratch. Scatter and insertion
/// sort are both stable.
void radix_sort(std::span<KvPair> from, std::span<KvPair> to, std::size_t depth,
                bool from_is_home) {
    for (; depth < Key16::width; ++depth) {
        if (from.size() <= kKeySortCutoff) {
            if (!from_is_home) {
                std::ranges::copy(from, to.begin());
                from = to;
            }
            insertion_sort(from);
            return;
        }
        std::array<std::size_t, 256> count{};
        for (const KvPair& p : from) ++count[key_byte(p, depth)];
        // One bucket holds everything (a shared prefix byte): nothing
        // moves, go straight to the next byte.
        if (count[key_byte(from.front(), depth)] == from.size()) continue;

        std::array<std::size_t, 256> next{};
        for (std::size_t b = 1; b < next.size(); ++b) next[b] = next[b - 1] + count[b - 1];
        for (const KvPair& p : from) to[next[key_byte(p, depth)]++] = p;

        // Recurse into every bucket, 0x00 included: keys are arbitrary
        // byte cells, so a zero byte does not end a key.
        std::size_t start = 0;
        for (const std::size_t n : count) {
            if (n > 1) {
                radix_sort(to.subspan(start, n), from.subspan(start, n), depth + 1,
                           !from_is_home);
            } else if (n == 1 && from_is_home) {
                from[start] = to[start];
            }
            start += n;
        }
        return;
    }
    // depth == width: every key in `from` is equal, already in input order.
    if (!from_is_home) std::ranges::copy(from, to.begin());
}

/// Write the 6-byte preamble at `out`.
void encode_preamble(std::byte* out, PacketType type, TreeId tree_id,
                     std::uint8_t n) noexcept {
    out[0] = static_cast<std::byte>(kDaietMagic >> 8);
    out[1] = static_cast<std::byte>(kDaietMagic & 0xff);
    out[2] = static_cast<std::byte>(type);
    out[3] = static_cast<std::byte>(tree_id >> 8);
    out[4] = static_cast<std::byte>(tree_id & 0xff);
    out[5] = static_cast<std::byte>(n);
}

}  // namespace

void sort_by_key(std::span<KvPair> pairs) {
    // Inputs no radix pass touches need no scratch buffer.
    std::vector<KvPair> scratch(pairs.size() > kKeySortCutoff ? pairs.size() : 0);
    radix_sort(pairs, scratch, 0, /*from_is_home=*/true);
}

DataPacketBuilder::DataPacketBuilder(TreeId tree_id) noexcept {
    encode_preamble(wire_.data(), PacketType::kData, tree_id, 0);
}

void DataPacketBuilder::add_records(std::span<const std::byte> records) {
    const std::size_t n = PairSpan{records}.size();
    DAIET_EXPECTS(n <= kMaxWirePairs - n_);
    if (n == 0) return;
    std::memcpy(wire_.data() + data_packet_size(n_), records.data(), records.size());
    n_ += n;
}

std::span<const std::byte> DataPacketBuilder::bytes() noexcept {
    DAIET_EXPECTS(n_ > 0);
    wire_[5] = static_cast<std::byte>(n_);
    return std::span{wire_}.first(data_packet_size(n_));
}

std::vector<std::byte> serialize_data(TreeId tree_id, std::span<const KvPair> pairs) {
    DataPacketBuilder packet{tree_id};
    for (const KvPair& p : pairs) packet.add(p);
    const auto bytes = packet.bytes();
    return {bytes.begin(), bytes.end()};
}

EndWire serialize_end(TreeId tree_id, std::uint32_t declared_pairs, bool dirty) {
    EndWire out;
    encode_preamble(out.data(), PacketType::kEnd, tree_id, 0);
    for (std::size_t i = 0; i < sizeof declared_pairs; ++i) {
        out[kPreambleSize + i] = static_cast<std::byte>(declared_pairs >> (24 - 8 * i));
    }
    out[kPreambleSize + 4] = static_cast<std::byte>(dirty ? 1 : 0);
    return out;
}

std::optional<DaietPacket> decode_daiet(std::span<const std::byte> payload) noexcept {
    const std::byte* p = payload.data();
    if (payload.size() < kPreambleSize || load_be16(p) != kDaietMagic) return std::nullopt;
    const TreeId tree_id = load_be16(p + 3);
    switch (static_cast<PacketType>(p[2])) {
        case PacketType::kEnd:
            if (payload.size() != kEndPacketSize) return std::nullopt;
            return EndPacket{tree_id, load_be32(p + kPreambleSize),
                             p[kPreambleSize + 4] != std::byte{0}};
        case PacketType::kData: {
            const auto n = std::to_integer<std::size_t>(p[5]);
            if (n == 0 || payload.size() != data_packet_size(n)) return std::nullopt;
            return DataPacket{tree_id, PairSpan{payload.subspan(kPreambleSize)}};
        }
    }
    return std::nullopt;
}

}  // namespace daiet
