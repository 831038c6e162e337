// Key-value wire protocol for the in-network cache.
//
// The kv service is the second workload family the paper's thesis
// predicts for programmable switches (NetCache-style request serving:
// "in-network computation is not limited to data aggregation"). Every
// message is a single fixed-size UDP payload — like DAIET's pairs, a
// fixed layout is what lets a P4 parser extract the key and value
// within its 200-300 B parse budget, and it reuses the same FixedKey /
// WireValue cells the aggregation registers store.
//
// Layout (big-endian):
//   magic(2) op(1) flags(1) req_id(4) seq(4) key(16) value(4) = 32 B
//
// GET carries an empty value; GET_REPLY and PUT_ACK echo the request id
// so clients can match responses and measure per-request latency.
// FLAG_FROM_SWITCH marks a reply served by a switch cache rather than
// the storage server — the hit-rate observability the controller and
// the benchmarks read.
//
// `seq` is the transport-layer sequence number (transport/
// request_reply.hpp): per-client monotonic, stamped once per logical
// request and repeated verbatim by retransmissions and echoed by
// replies, so (client address, seq) identifies one request everywhere —
// the server's at-most-once ReplyCache and the cache switch's
// duplicate-PUT/duplicate-ACK suppression both key on it. seq 0 marks a
// message that bypassed the retry transport (control-plane probes).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "common/fixed_key.hpp"
#include "core/aggregation.hpp"

namespace daiet::kv {

inline constexpr std::uint16_t kKvMagic = 0xCAC4;

/// UDP port the storage server listens on. GET/PUT requests carry it as
/// their destination port, which is how every switch tenant classifies
/// kv traffic: the rack cache (the NetCache trick: invisible to
/// clients, it impersonates the server), the directory, the edge
/// caches and the telemetry sketch.
inline constexpr std::uint16_t kServerUdpPort = 5100;

/// UDP port clients bind for replies (one kv client per host).
inline constexpr std::uint16_t kClientUdpPort = 5101;

enum class KvOp : std::uint8_t {
    kGet = 1,
    kGetReply = 2,
    kPut = 3,
    kPutAck = 4,
};

inline constexpr std::uint8_t kKvFlagFound = 0x01;       ///< key exists
inline constexpr std::uint8_t kKvFlagFromSwitch = 0x02;  ///< served by a cache
/// Reply replayed from the server's ReplyCache (a retransmission was
/// answered without re-execution). A cache switch never validates a
/// slot from one: it leaves the server out of apply order, and the
/// value it recorded may predate writes that have passed since.
inline constexpr std::uint8_t kKvFlagReplay = 0x04;
/// ECN echo (TCP's ECE, kv-flavoured): the request this reply answers
/// arrived at the server with Congestion Experienced stamped by a
/// fabric queue. Clients feed it to their RetryChannel as a back-off
/// signal — forward-path congestion made visible on the reverse path.
inline constexpr std::uint8_t kKvFlagEce = 0x08;
/// Served by a client-side *edge* reply cache (a lease-holding ToR on
/// the client's side of the fabric, src/directory/edge_cache.hpp) —
/// always set together with FLAG_FROM_SWITCH, which still means "a
/// switch answered, the storage server never saw it".
inline constexpr std::uint8_t kKvFlagFromEdge = 0x10;

struct KvMessage {
    KvOp op{KvOp::kGet};
    std::uint8_t flags{0};
    std::uint32_t req_id{0};
    std::uint32_t seq{0};  ///< transport sequence; 0 = untransported
    Key16 key{};
    WireValue value{0};

    bool found() const noexcept { return (flags & kKvFlagFound) != 0; }
    bool from_switch() const noexcept { return (flags & kKvFlagFromSwitch) != 0; }
    bool replayed() const noexcept { return (flags & kKvFlagReplay) != 0; }
    bool ece() const noexcept { return (flags & kKvFlagEce) != 0; }
    bool from_edge() const noexcept { return (flags & kKvFlagFromEdge) != 0; }

    friend bool operator==(const KvMessage&, const KvMessage&) noexcept = default;
};

/// Every kv message occupies exactly this many payload bytes.
inline constexpr std::size_t kKvMessageSize = 2 + 1 + 1 + 4 + 4 + Key16::width + 4;

/// One serialized kv message, held by value at its wire size.
using KvWire = std::array<std::byte, kKvMessageSize>;

KvWire serialize_kv(const KvMessage& msg);

/// The kv message a payload carries, or nothing when it is shorter
/// than kKvMessageSize, has another magic or names an unknown op.
std::optional<KvMessage> decode_kv(std::span<const std::byte> payload) noexcept;

}  // namespace daiet::kv
