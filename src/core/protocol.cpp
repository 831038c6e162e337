#include "core/protocol.hpp"

#include <algorithm>
#include <array>

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

/// Sort `pairs`, whose keys agree on bytes [0, depth), through
/// `scratch` (same size). Scatter and insertion sort are both stable.
void radix_sort(std::span<KvPair> pairs, std::span<KvPair> scratch, std::size_t depth) {
    for (; depth < Key16::width; ++depth) {
        if (pairs.size() <= kKeySortCutoff) {
            insertion_sort(pairs);
            return;
        }
        std::array<std::size_t, 256> count{};
        for (const KvPair& p : pairs) ++count[key_byte(p, depth)];
        // One bucket holds everything (a shared prefix byte): nothing
        // moves, go straight to the next byte.
        if (count[key_byte(pairs.front(), depth)] == pairs.size()) continue;

        std::array<std::size_t, 256> next{};
        for (std::size_t b = 1; b < next.size(); ++b) next[b] = next[b - 1] + count[b - 1];
        for (const KvPair& p : pairs) scratch[next[key_byte(p, depth)]++] = p;
        std::ranges::copy(scratch, pairs.begin());

        // Recurse into every bucket, 0x00 included: keys are arbitrary
        // byte cells, so a zero byte does not end a key.
        std::size_t start = 0;
        for (const std::size_t n : count) {
            if (n > 1) {
                radix_sort(pairs.subspan(start, n), scratch.subspan(start, n), depth + 1);
            }
            start += n;
        }
        return;
    }
    // depth == width: every key in `pairs` is equal, already in input order.
}

}  // namespace

void sort_by_key(std::span<KvPair> pairs) {
    // Inputs no radix pass touches need no scratch buffer.
    std::vector<KvPair> scratch(pairs.size() > kKeySortCutoff ? pairs.size() : 0);
    radix_sort(pairs, scratch, 0);
}

std::vector<std::byte> serialize_data(TreeId tree_id, std::span<const KvPair> pairs) {
    DAIET_EXPECTS(!pairs.empty());
    DAIET_EXPECTS(pairs.size() <= 255);
    ByteWriter w;
    w.put_u16(kDaietMagic);
    w.put_u8(static_cast<std::uint8_t>(PacketType::kData));
    w.put_u16(tree_id);
    w.put_u8(static_cast<std::uint8_t>(pairs.size()));
    for (const KvPair& p : pairs) {
        w.put_bytes(p.key.bytes());
        w.put_u32(p.value);
    }
    return w.take();
}

std::vector<std::byte> serialize_end(TreeId tree_id, std::uint32_t declared_pairs,
                                     bool dirty) {
    ByteWriter w;
    w.put_u16(kDaietMagic);
    w.put_u8(static_cast<std::uint8_t>(PacketType::kEnd));
    w.put_u16(tree_id);
    w.put_u8(0);
    w.put_u32(declared_pairs);
    w.put_u8(dirty ? 1 : 0);
    return w.take();
}

DaietPacket parse_packet(std::span<const std::byte> payload) {
    ByteReader r{payload};
    const std::uint16_t magic = r.get_u16();
    if (magic != kDaietMagic) {
        throw BufferError{"not a DAIET packet (bad magic)"};
    }
    const auto type = static_cast<PacketType>(r.get_u8());
    const TreeId tree_id = r.get_u16();
    const std::uint8_t n = r.get_u8();

    switch (type) {
        case PacketType::kEnd: {
            EndPacket end;
            end.tree_id = tree_id;
            end.declared_pairs = r.get_u32();
            end.dirty = r.get_u8() != 0;
            return end;
        }
        case PacketType::kData: {
            if (n == 0) throw BufferError{"DATA packet with zero entries"};
            DataPacket pkt;
            pkt.tree_id = tree_id;
            pkt.pairs.reserve(n);
            for (std::uint8_t i = 0; i < n; ++i) {
                KvPair p;
                p.key = Key16{r.get_bytes(Key16::width)};
                p.value = r.get_u32();
                pkt.pairs.push_back(p);
            }
            return pkt;
        }
    }
    throw BufferError{"unknown DAIET packet type"};
}

bool looks_like_daiet(std::span<const std::byte> payload) noexcept {
    if (payload.size() < kPreambleSize) return false;
    return static_cast<std::uint8_t>(payload[0]) == (kDaietMagic >> 8) &&
           static_cast<std::uint8_t>(payload[1]) == (kDaietMagic & 0xff);
}

}  // namespace daiet
