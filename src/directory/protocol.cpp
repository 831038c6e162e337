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

DirectoryMessage parse_directory(std::span<const std::byte> payload) {
    ByteReader r{payload};
    const std::uint16_t magic = r.get_u16();
    if (magic != kDirectoryMagic) {
        throw BufferError{"directory: bad magic"};
    }
    DirectoryMessage msg;
    const std::uint8_t op = r.get_u8();
    if (op < static_cast<std::uint8_t>(DirectoryOp::kNack) ||
        op > static_cast<std::uint8_t>(DirectoryOp::kInvalidate)) {
        throw BufferError{"directory: unknown op " + std::to_string(op)};
    }
    msg.op = static_cast<DirectoryOp>(op);
    msg.flags = r.get_u8();
    msg.seq = r.get_u32();
    msg.tag = r.get_u64();
    msg.key = Key16{r.get_bytes(Key16::width)};
    return msg;
}

bool looks_like_directory(std::span<const std::byte> payload) noexcept {
    if (payload.size() < kDirectoryMessageSize) return false;
    const auto hi = static_cast<std::uint16_t>(payload[0]);
    const auto lo = static_cast<std::uint16_t>(payload[1]);
    return static_cast<std::uint16_t>(hi << 8 | lo) == kDirectoryMagic;
}

std::size_t range_of_key(const Key16& key, std::size_t num_ranges) noexcept {
    // Must agree with the dataplane, which folds the switch hash unit's
    // CRC through register_index_from_crc — controller and switch can
    // never disagree on which range a key belongs to.
    return register_index_from_crc(Crc32::compute(key.bytes()), num_ranges);
}

}  // namespace daiet::dir
