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

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
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

/// Payload size of a DATA packet carrying `n` pairs.
constexpr std::size_t data_packet_size(std::size_t n_pairs) noexcept {
    return kPreambleSize + n_pairs * kPairWireSize;
}

struct DataPacket {
    TreeId tree_id{0};
    std::vector<KvPair> pairs;
};

struct EndPacket {
    TreeId tree_id{0};
    /// DATA pairs the END's sender transmitted towards this hop.
    std::uint32_t declared_pairs{0};
    /// Loss already detected somewhere upstream.
    bool dirty{false};
};

using DaietPacket = std::variant<DataPacket, EndPacket>;

/// Serialize a DATA packet. Precondition: 0 < pairs.size() <= 255 and
/// within the configured per-packet maximum (callers packetize first).
std::vector<std::byte> serialize_data(TreeId tree_id, std::span<const KvPair> pairs);

/// Serialize an END packet.
std::vector<std::byte> serialize_end(TreeId tree_id, std::uint32_t declared_pairs = 0,
                                     bool dirty = false);

/// Parse a DAIET payload. Throws BufferError on malformed input;
/// returns std::nullopt-like failure by throwing (callers treat DAIET
/// traffic as trusted intra-datacenter traffic, as the paper does).
DaietPacket parse_packet(std::span<const std::byte> payload);

/// True if the payload starts with the DAIET magic.
bool looks_like_daiet(std::span<const std::byte> payload) noexcept;

}  // namespace daiet
