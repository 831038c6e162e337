// Directory wire protocol: the fourth tenant family's traffic slice.
//
// The directory tenant owns the key-range -> rack mapping of the
// sharded kv service. Clients never learn server addresses: they send
// ordinary kv GET/PUT frames to the *service address* — a virtual
// address routed toward the directory switch, the way telemetry routes
// probes to a chip's management address — and the directory rewrites
// the destination to the owning rack's storage server in flight. The
// only frames the directory *originates* are its own two control
// messages, each a single fixed-layout UDP payload (on hardware this
// slice would get its own ethertype at the parser; our simulated fabric
// carries everything as IPv4/UDP, so like the kv and telemetry families
// it classifies by destination port + leading magic):
//
//   magic(2) op(1) flags(1) seq(4) tag(8) key(16) = 32 B
//
//   * NACK — sent back to a client whose request hit a range with no
//     owner (mid-migration). `seq` echoes the request's transport
//     sequence number so the client's RetryChannel can retransmit that
//     request immediately (nudge) instead of waiting out its RTO.
//   * INVALIDATE — broadcast to every edge reply cache when a PUT
//     passes the directory. `tag` is the PUT's (client, seq) identity
//     (transport::request_tag), which makes replayed invalidations
//     recognizable: a retransmitted PUT crossing the directory
//     re-broadcasts, and the edges skip copies whose tag they have
//     already applied — invalidation is idempotent anyway, but the
//     filter keeps a late replay from wiping an entry a *newer* reply
//     has since refreshed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/fixed_key.hpp"
#include "netsim/headers.hpp"
#include "netsim/node.hpp"

namespace daiet::dir {

inline constexpr std::uint16_t kDirectoryMagic = 0xD17C;

/// UDP port the directory's own control messages ride on (NACKs carry
/// it as their source port, invalidations as source and destination).
/// Distinct from the kv service port so an edge cache never mistakes a
/// NACK for a server reply.
inline constexpr std::uint16_t kDirectoryUdpPort = 5140;

/// Virtual address of the sharded kv *service* (what clients address).
/// Routed toward the directory switch; disjoint from host addresses
/// and from the telemetry (0xF...) and edge (0xE...) vaddr spaces.
inline constexpr sim::HostAddr kServiceVaddr = 0xD0000001u;

/// Partition buckets of the keyspace. Each range is owned by exactly
/// one storage rack; migration moves one range at a time. The
/// directory's SRAM-charged owner table and every edge cache's lease
/// table have one cell per range.
inline constexpr std::size_t kNumRanges = 64;

/// Virtual address of an edge switch's reply cache (where the
/// directory sends lease invalidations).
inline constexpr sim::HostAddr kEdgeAddrBase = 0xE0000000u;

constexpr sim::HostAddr edge_vaddr(sim::NodeId node) noexcept {
    return kEdgeAddrBase | node;
}

enum class DirectoryOp : std::uint8_t {
    kNack = 1,        ///< directory -> client: range unowned, retry
    kInvalidate = 2,  ///< directory -> edge caches: a PUT passed for `key`
};

struct DirectoryMessage {
    DirectoryOp op{DirectoryOp::kNack};
    std::uint8_t flags{0};
    std::uint32_t seq{0};   ///< NACK: the nacked request's transport seq
    std::uint64_t tag{0};   ///< INVALIDATE: the PUT's (client, seq) tag
    Key16 key{};

    friend bool operator==(const DirectoryMessage&,
                           const DirectoryMessage&) noexcept = default;
};

inline constexpr std::size_t kDirectoryMessageSize = 2 + 1 + 1 + 4 + 8 + Key16::width;

/// One serialized directory message, held by value at its wire size.
using DirectoryWire = std::array<std::byte, kDirectoryMessageSize>;

DirectoryWire serialize_directory(const DirectoryMessage& msg);

/// The directory message a payload carries, or nothing when it is
/// shorter than kDirectoryMessageSize, has another magic or names an
/// unknown op.
std::optional<DirectoryMessage> decode_directory(
    std::span<const std::byte> payload) noexcept;

/// The range (partition bucket) a key belongs to — the control-plane
/// twin of the hash the dataplane computes through the switch hash
/// unit, so controller and switch can never disagree on ownership.
std::size_t range_of_key(const Key16& key, std::size_t num_ranges) noexcept;

}  // namespace daiet::dir
