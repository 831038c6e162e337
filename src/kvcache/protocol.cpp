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

std::optional<KvMessage> decode_kv(std::span<const std::byte> payload) noexcept {
    // One size check, then fields at fixed offsets (see the layout in
    // the header).
    const std::byte* p = payload.data();
    if (payload.size() < kKvMessageSize || load_be16(p) != kKvMagic) return std::nullopt;
    const auto op = std::to_integer<std::uint8_t>(p[2]);
    if (op < static_cast<std::uint8_t>(KvOp::kGet) ||
        op > static_cast<std::uint8_t>(KvOp::kPutAck)) {
        return std::nullopt;
    }
    KvMessage msg;
    msg.op = static_cast<KvOp>(op);
    msg.flags = std::to_integer<std::uint8_t>(p[3]);
    msg.req_id = load_be32(p + 4);
    msg.seq = load_be32(p + 8);
    msg.key = Key16{std::span<const std::byte, Key16::width>{p + 12, Key16::width}};
    msg.value = load_be32(p + 12 + Key16::width);
    return msg;
}

}  // namespace daiet::kv
