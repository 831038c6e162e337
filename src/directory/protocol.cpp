#include "directory/protocol.hpp"

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "common/hash.hpp"
#include "core/aggregation.hpp"

namespace daiet::dir {

DirectoryWire serialize_directory(const DirectoryMessage& msg) {
    DirectoryWire wire;
    ByteWriter w{std::span<std::byte>{wire}};
    w.put_u16(kDirectoryMagic);
    w.put_u8(static_cast<std::uint8_t>(msg.op));
    w.put_u8(msg.flags);
    w.put_u32(msg.seq);
    w.put_u64(msg.tag);
    w.put_bytes(msg.key.bytes());
    DAIET_ENSURES(w.size() == wire.size());
    return wire;
}

std::optional<DirectoryMessage> decode_directory(
    std::span<const std::byte> payload) noexcept {
    const std::byte* p = payload.data();
    if (payload.size() < kDirectoryMessageSize || load_be16(p) != kDirectoryMagic) {
        return std::nullopt;
    }
    const auto op = std::to_integer<std::uint8_t>(p[2]);
    if (op < static_cast<std::uint8_t>(DirectoryOp::kNack) ||
        op > static_cast<std::uint8_t>(DirectoryOp::kInvalidate)) {
        return std::nullopt;
    }
    DirectoryMessage msg;
    msg.op = static_cast<DirectoryOp>(op);
    msg.flags = std::to_integer<std::uint8_t>(p[3]);
    msg.seq = load_be32(p + 4);
    msg.tag = load_be64(p + 8);
    msg.key = Key16{std::span<const std::byte, Key16::width>{p + 16, Key16::width}};
    return msg;
}

std::size_t range_of_key(const Key16& key, std::size_t num_ranges) noexcept {
    // Must agree with the dataplane, which folds the switch hash unit's
    // CRC through register_index_from_crc — controller and switch can
    // never disagree on which range a key belongs to.
    return register_index_from_crc(Crc32::compute(key.bytes()), num_ranges);
}

}  // namespace daiet::dir
