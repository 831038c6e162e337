#include "netsim/headers.hpp"

#include "common/contracts.hpp"
#include "trace/trace.hpp"

namespace daiet::sim {

namespace {

void put_mac(ByteWriter& w, MacAddr mac) {
    for (int shift = 40; shift >= 0; shift -= 8) {
        w.put_u8(static_cast<std::uint8_t>(mac >> shift));
    }
}

}  // namespace

void EthernetHeader::serialize(ByteWriter& w) const {
    put_mac(w, dst);
    put_mac(w, src);
    w.put_u16(ethertype);
}

void Ipv4Header::serialize(ByteWriter& w) const {
    w.put_u8(0x45);         // version 4, IHL 5 (no options)
    w.put_u8(ecn & 0x03);   // DSCP 0 + ECN codepoint
    w.put_u16(total_length);
    w.put_u16(0);  // identification
    w.put_u16(0);  // flags/fragment offset
    w.put_u8(ttl);
    w.put_u8(protocol);
    w.put_u16(0);  // header checksum (not modelled)
    w.put_u32(src);
    w.put_u32(dst);
}

void UdpHeader::serialize(ByteWriter& w) const {
    w.put_u16(src_port);
    w.put_u16(dst_port);
    w.put_u16(length);
    w.put_u16(0);  // checksum (not modelled)
}

void TcpHeader::serialize(ByteWriter& w) const {
    w.put_u16(src_port);
    w.put_u16(dst_port);
    w.put_u32(seq);
    w.put_u32(ack);
    w.put_u8(0x50);  // data offset 5 words, no options
    w.put_u8(flags);
    w.put_u16(window);
    w.put_u16(0);  // checksum
    w.put_u16(0);  // urgent pointer
}

FrameBuf build_udp_frame(HostAddr src, HostAddr dst,
                         std::uint16_t src_port, std::uint16_t dst_port,
                         std::span<const std::byte> payload) {
    if (payload.size() > kMaxUdpPayload) {
        throw BufferError{"UDP payload of " + std::to_string(payload.size()) +
                          " B overflows the 16-bit IPv4 total length"};
    }
    FrameBuf frame = FrameBuf::allocate(kUdpFrameOverhead + payload.size());
    ByteWriter w{frame.mutable_bytes()};
    EthernetHeader eth{.dst = dst, .src = src, .ethertype = kEtherTypeIpv4};
    Ipv4Header ip;
    ip.protocol = kIpProtoUdp;
    ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + UdpHeader::kSize +
                                                 payload.size());
    ip.src = src;
    ip.dst = dst;
    UdpHeader udp;
    udp.src_port = src_port;
    udp.dst_port = dst_port;
    udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());

    eth.serialize(w);
    ip.serialize(w);
    udp.serialize(w);
    w.put_bytes(payload);
    if (trace::enabled()) frame.set_trace_id(trace::tracer().next_trace_id());
    return frame;
}

FrameBuf build_tcp_frame(HostAddr src, HostAddr dst, TcpHeader tcp,
                         std::span<const std::byte> payload) {
    if (payload.size() > kMaxTcpPayload) {
        throw BufferError{"TCP payload of " + std::to_string(payload.size()) +
                          " B overflows the 16-bit IPv4 total length"};
    }
    FrameBuf frame = FrameBuf::allocate(kTcpFrameOverhead + payload.size());
    ByteWriter w{frame.mutable_bytes()};
    EthernetHeader eth{.dst = dst, .src = src, .ethertype = kEtherTypeIpv4};
    Ipv4Header ip;
    ip.protocol = kIpProtoTcp;
    ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + TcpHeader::kSize +
                                                 payload.size());
    ip.src = src;
    ip.dst = dst;

    eth.serialize(w);
    ip.serialize(w);
    tcp.serialize(w);
    w.put_bytes(payload);
    if (trace::enabled()) frame.set_trace_id(trace::tracer().next_trace_id());
    return frame;
}

namespace {

inline MacAddr load_mac(const std::byte* p) noexcept {
    MacAddr mac = 0;
    for (int i = 0; i < 6; ++i) mac = mac << 8 | std::to_integer<MacAddr>(p[i]);
    return mac;
}

}  // namespace

bool parse_frame_into(std::span<const std::byte> frame, ParsedFrame& out) {
    // This runs once per frame per hop, so instead of a per-field
    // bounds-checked ByteReader it does one size check per layer and
    // direct big-endian loads, written straight into the caller's
    // storage. netsim_test fuzzes it against such a field-by-field
    // reference decoder: headers, payload offset, non-IPv4 and
    // BufferError outcomes must all agree.
    const std::byte* p = frame.data();
    const std::size_t n = frame.size();
    out.udp.reset();
    out.tcp.reset();
    if (n < EthernetHeader::kSize) throw BufferError{"ByteReader: out of bounds"};
    out.eth.dst = load_mac(p);
    out.eth.src = load_mac(p + 6);
    out.eth.ethertype = load_be16(p + 12);
    if (out.eth.ethertype != kEtherTypeIpv4) return false;
    constexpr std::size_t kIpEnd = EthernetHeader::kSize + Ipv4Header::kSize;
    if (n < kIpEnd) throw BufferError{"ByteReader: out of bounds"};
    if (p[14] != std::byte{0x45}) {
        throw BufferError{"Ipv4Header: unsupported version/IHL"};
    }
    out.ip.ecn = std::to_integer<std::uint8_t>(p[15]) & 0x03;
    out.ip.total_length = load_be16(p + 16);
    out.ip.ttl = std::to_integer<std::uint8_t>(p[22]);
    out.ip.protocol = std::to_integer<std::uint8_t>(p[23]);
    out.ip.src = load_be32(p + 26);
    out.ip.dst = load_be32(p + 30);
    out.payload_offset = kIpEnd;
    if (out.ip.protocol == kIpProtoUdp) {
        if (n < kIpEnd + UdpHeader::kSize) {
            throw BufferError{"ByteReader: out of bounds"};
        }
        UdpHeader& udp = out.udp.emplace();
        udp.src_port = load_be16(p + kIpEnd);
        udp.dst_port = load_be16(p + kIpEnd + 2);
        udp.length = load_be16(p + kIpEnd + 4);
        out.payload_offset = kIpEnd + UdpHeader::kSize;
    } else if (out.ip.protocol == kIpProtoTcp) {
        if (n < kIpEnd + TcpHeader::kSize) {
            throw BufferError{"ByteReader: out of bounds"};
        }
        if (p[kIpEnd + 12] != std::byte{0x50}) {
            throw BufferError{"TcpHeader: options not supported"};
        }
        TcpHeader& tcp = out.tcp.emplace();
        tcp.src_port = load_be16(p + kIpEnd);
        tcp.dst_port = load_be16(p + kIpEnd + 2);
        tcp.seq = load_be32(p + kIpEnd + 4);
        tcp.ack = load_be32(p + kIpEnd + 8);
        tcp.flags = std::to_integer<std::uint8_t>(p[kIpEnd + 13]);
        tcp.window = load_be16(p + kIpEnd + 14);
        out.payload_offset = kIpEnd + TcpHeader::kSize;
    }
    return true;
}

std::optional<ParsedFrame> parse_frame(std::span<const std::byte> frame) {
    ParsedFrame out;
    if (!parse_frame_into(frame, out)) return std::nullopt;
    return out;
}

bool rewrite_frame_ipv4_dst(std::span<std::byte> frame, HostAddr dst) noexcept {
    if (frame.size() < EthernetHeader::kSize + Ipv4Header::kSize) return false;
    if (frame[12] != std::byte{0x08} || frame[13] != std::byte{0x00}) {
        return false;  // not IPv4
    }
    if (frame[14] != std::byte{0x45}) return false;
    // Ethernet dst MAC (frames carry the host address in the low MAC
    // bits — see build_udp_frame): bytes [0, 6).
    const auto mac = static_cast<MacAddr>(dst);
    for (int i = 0; i < 6; ++i) {
        frame[5 - i] = static_cast<std::byte>((mac >> (8 * i)) & 0xff);
    }
    // IPv4 dst: the last 4 bytes of the 20-byte IPv4 header.
    const std::size_t ip_dst = EthernetHeader::kSize + Ipv4Header::kSize - 4;
    for (int i = 0; i < 4; ++i) {
        frame[ip_dst + i] = static_cast<std::byte>((dst >> (8 * (3 - i))) & 0xff);
    }
    return true;
}

bool mark_frame_ecn_ce(std::span<std::byte> frame) noexcept {
    // Ethernet(14) + at least the IPv4 version/IHL and TOS bytes.
    if (frame.size() < EthernetHeader::kSize + Ipv4Header::kSize) return false;
    if (frame[12] != std::byte{0x08} || frame[13] != std::byte{0x00}) {
        return false;  // not IPv4
    }
    if (frame[14] != std::byte{0x45}) return false;
    frame[15] |= std::byte{kEcnCongestionExperienced};
    return true;
}

}  // namespace daiet::sim
