#include "kvcache/protocol.hpp"

#include "common/bytes.hpp"
#include "common/contracts.hpp"

namespace daiet::kv {

KvWire serialize_kv(const KvMessage& msg) {
    KvWire wire;
    ByteWriter w{std::span<std::byte>{wire}};
    w.put_u16(kKvMagic);
    w.put_u8(static_cast<std::uint8_t>(msg.op));
    w.put_u8(msg.flags);
    w.put_u32(msg.req_id);
    w.put_u32(msg.seq);
    w.put_bytes(msg.key.bytes());
    w.put_u32(msg.value);
    DAIET_ENSURES(w.size() == wire.size());
    return wire;
}

KvMessage parse_kv(std::span<const std::byte> payload) {
    ByteReader r{payload};
    const std::uint16_t magic = r.get_u16();
    if (magic != kKvMagic) {
        throw BufferError{"kv: bad magic"};
    }
    KvMessage msg;
    const std::uint8_t op = r.get_u8();
    if (op < static_cast<std::uint8_t>(KvOp::kGet) ||
        op > static_cast<std::uint8_t>(KvOp::kPutAck)) {
        throw BufferError{"kv: unknown op " + std::to_string(op)};
    }
    msg.op = static_cast<KvOp>(op);
    msg.flags = r.get_u8();
    msg.req_id = r.get_u32();
    msg.seq = r.get_u32();
    msg.key = Key16{r.get_bytes(Key16::width)};
    msg.value = r.get_u32();
    return msg;
}

bool looks_like_kv(std::span<const std::byte> payload) noexcept {
    if (payload.size() < kKvMessageSize) return false;
    const auto hi = static_cast<std::uint16_t>(payload[0]);
    const auto lo = static_cast<std::uint16_t>(payload[1]);
    const auto op = static_cast<std::uint8_t>(payload[2]);
    return static_cast<std::uint16_t>(hi << 8 | lo) == kKvMagic &&
           op >= static_cast<std::uint8_t>(KvOp::kGet) &&
           op <= static_cast<std::uint8_t>(KvOp::kPutAck);
}

}  // namespace daiet::kv
