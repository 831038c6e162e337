// DAIET wire protocol (paper §4).
//
// Map partitions travel as UDP packets "containing a small preamble and
// a sequence of key-value pairs"; the preamble carries the tree id and
// the number of pairs, and "the end of the transmission is marked by a
// special END packet". Pairs use a fixed-size representation so that
// packetization never splits a pair (§4: "we use a fixed-size
// representation for the pairs").
//
// Layout (big-endian):
//   preamble:  magic(2) type(1) tree_id(2) num_entries(1)        = 6 B
//   pair:      key(16) value(4)                                  = 20 B
//   DATA packet payload: preamble + num_entries * pair  (<= 206 B for 10 pairs,
//   within the 200-300 B parse budget of P4 hardware, §5)
//
// Extension beyond the paper (loss *detection*; recovery is
// JobDriver::run_round's restart loop, runtime/job_driver.hpp):
// END packets additionally carry declared(4) + flags(1) — the number of
// DATA pairs the sender of the END transmitted towards this hop, and a
// dirty bit that propagates "upstream detected loss". Each hop checks
// its received-pair count against the declared sum; the tree root's END
// lets the reducer decide whether the aggregate is trustworthy. The
// paper's prototype has no such check (its §4 leaves loss to future
// work); with loss-free links the fields are invisible overhead (5 B
// per END packet).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "common/fixed_key.hpp"
#include "core/aggregation.hpp"
#include "core/config.hpp"

namespace daiet {

inline constexpr std::uint16_t kDaietMagic = 0xDA1E;
/// UDP destination port that identifies DAIET traffic at switches and
/// reducers.
inline constexpr std::uint16_t kDaietUdpPort = 5000;
/// Source port mappers send from (flow identification only).
inline constexpr std::uint16_t kMapperUdpPort = 5001;

enum class PacketType : std::uint8_t {
    kData = 1,
    kEnd = 2,
};

/// One fixed-size key-value pair as stored in registers and on the wire.
struct KvPair {
    Key16 key;
    WireValue value{0};

    friend bool operator==(const KvPair&, const KvPair&) noexcept = default;
};
static_assert(std::is_trivially_copyable_v<KvPair>);

/// Sort pairs by key in Key16's byte order (`operator<=>`), keeping
/// pairs with equal keys in their input order. Every reducer sorts what
/// it receives (§4: "the intermediate results must be sorted at the
/// reducer"), so this is the job's hot sort: an MSD radix sort over the
/// 16 key bytes with one scratch buffer per call.
void sort_by_key(std::span<KvPair> pairs);

/// sort_by_key finishes inputs and buckets of at most this many pairs
/// by insertion sort.
inline constexpr std::size_t kKeySortCutoff = 32;

inline constexpr std::size_t kPreambleSize = 6;
inline constexpr std::size_t kPairWireSize = Key16::width + sizeof(WireValue);  // 20
/// END packet payload: preamble + declared(4) + flags(1).
inline constexpr std::size_t kEndPacketSize = kPreambleSize + 5;
/// The preamble's num_entries is one byte.
inline constexpr std::size_t kMaxWirePairs = 255;

/// Payload size of a DATA packet carrying `n` pairs.
constexpr std::size_t data_packet_size(std::size_t n_pairs) noexcept {
    return kPreambleSize + n_pairs * kPairWireSize;
}

/// The pair codec. Every DAIET component (packetizer, switch, receivers,
/// map-output files) encodes and decodes pairs through these two: the
/// 16 B key, then the value big-endian.
inline void encode_pair(const KvPair& pair, std::byte* out) noexcept {
    std::memcpy(out, pair.key.bytes().data(), Key16::width);
    for (std::size_t i = 0; i < sizeof(WireValue); ++i) {
        out[Key16::width + i] = static_cast<std::byte>(pair.value >> (24 - 8 * i));
    }
}

/// Decode one 20-byte pair (the inverse of encode_pair).
inline KvPair decode_pair(std::span<const std::byte, kPairWireSize> raw) noexcept {
    KvPair p;
    p.key = Key16{raw.first<Key16::width>()};
    for (std::size_t i = 0; i < sizeof(WireValue); ++i) {
        p.value = p.value << 8 | static_cast<WireValue>(raw[Key16::width + i]);
    }
    return p;
}

/// Non-owning view of a whole number of encoded pairs, decoded on
/// access; valid while the bytes it views live.
class PairSpan {
public:
    class iterator {
    public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = KvPair;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = KvPair;

        iterator() = default;
        explicit iterator(const std::byte* at) noexcept : at_{at} {}
        KvPair operator*() const noexcept {
            return decode_pair(std::span<const std::byte, kPairWireSize>{at_, kPairWireSize});
        }
        iterator& operator++() noexcept {
            at_ += kPairWireSize;
            return *this;
        }
        iterator operator++(int) noexcept {
            iterator old = *this;
            ++*this;
            return old;
        }
        friend bool operator==(iterator, iterator) noexcept = default;

    private:
        const std::byte* at_{nullptr};
    };
    using const_iterator = iterator;
    using value_type = KvPair;

    PairSpan() = default;
    /// `records.size()` must be a multiple of kPairWireSize.
    explicit PairSpan(std::span<const std::byte> records) : bytes_{records} {
        DAIET_EXPECTS(records.size() % kPairWireSize == 0);
    }

    std::size_t size() const noexcept { return bytes_.size() / kPairWireSize; }
    KvPair operator[](std::size_t i) const noexcept {
        return decode_pair(bytes_.subspan(i * kPairWireSize).first<kPairWireSize>());
    }
    /// Pair i's key bytes as they sit on the wire (a key is not
    /// byte-swapped), for hashing without decoding the pair.
    std::span<const std::byte, Key16::width> key_bytes(std::size_t i) const noexcept {
        return bytes_.subspan(i * kPairWireSize).first<Key16::width>();
    }
    iterator begin() const noexcept { return iterator{bytes_.data()}; }
    iterator end() const noexcept { return iterator{bytes_.data() + bytes_.size()}; }

    friend bool operator==(const PairSpan& a, std::span<const KvPair> b) noexcept {
        return std::ranges::equal(a, b);
    }

private:
    std::span<const std::byte> bytes_;
};

struct DataPacket {
    TreeId tree_id{0};
    /// Views the parsed payload's pair bytes.
    PairSpan pairs;
};

struct EndPacket {
    TreeId tree_id{0};
    /// DATA pairs the END's sender transmitted towards this hop.
    std::uint32_t declared_pairs{0};
    /// Loss already detected somewhere upstream.
    bool dirty{false};
};

using DaietPacket = std::variant<DataPacket, EndPacket>;

/// Builds one DATA packet in place, pair by pair, with no heap buffer:
/// the mapper's packetizer and the switch's flushes fill one on the
/// stack and hand bytes() to the frame builder.
class DataPacketBuilder {
public:
    explicit DataPacketBuilder(TreeId tree_id) noexcept;

    /// Append one pair. Precondition: pair_count() < kMaxWirePairs.
    void add(const KvPair& pair) noexcept {
        DAIET_EXPECTS(n_ < kMaxWirePairs);
        encode_pair(pair, wire_.data() + data_packet_size(n_++));
    }

    /// Append pairs that are already encoded (a whole number of pairs).
    void add_records(std::span<const std::byte> records);

    std::size_t pair_count() const noexcept { return n_; }

    /// The packet so far: preamble plus pair_count() pairs. Precondition:
    /// at least one pair (a DATA packet never carries zero).
    std::span<const std::byte> bytes() noexcept;

private:
    std::size_t n_{0};
    /// Left uninitialized on purpose: bytes() exposes only the first
    /// data_packet_size(n_) bytes, every one written before, and zeroing
    /// 5 KiB per packet would cost more than building a 10-pair one.
    std::array<std::byte, data_packet_size(kMaxWirePairs)> wire_;
};

using EndWire = std::array<std::byte, kEndPacketSize>;

/// Serialize a DATA packet into a fresh buffer. Precondition:
/// 0 < pairs.size() <= kMaxWirePairs (callers packetize first).
std::vector<std::byte> serialize_data(TreeId tree_id, std::span<const KvPair> pairs);

/// Serialize an END packet.
EndWire serialize_end(TreeId tree_id, std::uint32_t declared_pairs = 0, bool dirty = false);

/// Decode a DAIET payload into a view of it (a DataPacket's pairs point
/// into `payload`, so the payload must outlive it), or nothing: a DATA
/// payload must be exactly data_packet_size(n) bytes with n > 0, an END
/// exactly kEndPacketSize, and both start with the DAIET magic. The
/// switch and the receivers drop and count what it rejects.
std::optional<DaietPacket> decode_daiet(std::span<const std::byte> payload) noexcept;

}  // namespace daiet
