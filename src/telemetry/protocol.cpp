#include "telemetry/protocol.hpp"

#include "common/bytes.hpp"
#include "common/contracts.hpp"

namespace daiet::telemetry {

namespace {

/// A writer holding the header, sized for exactly `body_bytes` more.
ByteWriter header(TelemetryOp op, std::uint8_t count, sim::NodeId switch_node,
                  std::uint32_t window, std::size_t body_bytes) {
    ByteWriter w{kTelemetryHeaderSize + body_bytes};
    w.put_u16(kTelemetryMagic);
    w.put_u8(static_cast<std::uint8_t>(op));
    w.put_u8(count);
    w.put_u32(switch_node);
    w.put_u32(window);
    return w;
}

}  // namespace

std::vector<std::byte> serialize_probe(sim::NodeId switch_node,
                                       std::uint32_t window) {
    return header(TelemetryOp::kProbe, 0, switch_node, window, 0).take();
}

std::vector<std::byte> serialize_summary(sim::NodeId switch_node,
                                         std::uint32_t window,
                                         const SummaryRecord& summary) {
    ByteWriter w =
        header(TelemetryOp::kSummary, 1, switch_node, window, kSummaryRecordSize);
    w.put_u64(summary.frames_observed);
    w.put_u64(summary.bytes_observed);
    w.put_u32(summary.kv_gets);
    w.put_u32(summary.kv_puts);
    w.put_u32(summary.hot_logged);
    w.put_u32(summary.hot_dropped);
    return w.take();
}

std::vector<std::byte> serialize_port_stats(sim::NodeId switch_node,
                                            std::uint32_t window,
                                            std::span<const PortStatRecord> ports) {
    DAIET_EXPECTS(ports.size() <= kMaxPortStatsPerFrame);
    ByteWriter w = header(TelemetryOp::kPortStats,
                          static_cast<std::uint8_t>(ports.size()), switch_node,
                          window, ports.size() * kPortStatRecordSize);
    for (const PortStatRecord& p : ports) {
        w.put_u16(p.port);
        w.put_u32(p.frames);
        w.put_u64(p.bytes);
        w.put_u32(p.queue_drops);
        w.put_u32(p.loss_drops);
        w.put_u32(p.ecn_marks);
        w.put_u32(p.backlog_bytes);
        w.put_u32(p.watermark_bytes);
    }
    return w.take();
}

std::vector<std::byte> serialize_hot_keys(sim::NodeId switch_node,
                                          std::uint32_t window,
                                          std::span<const HotKeyRecord> keys) {
    DAIET_EXPECTS(keys.size() <= kMaxHotKeysPerFrame);
    ByteWriter w = header(TelemetryOp::kHotKeys,
                          static_cast<std::uint8_t>(keys.size()), switch_node,
                          window, keys.size() * kHotKeyRecordSize);
    for (const HotKeyRecord& k : keys) {
        w.put_bytes(k.key.bytes());
        w.put_u32(k.estimate);
    }
    return w.take();
}

TelemetryMessage parse_telemetry(std::span<const std::byte> payload) {
    ByteReader r{payload};
    if (r.get_u16() != kTelemetryMagic) {
        throw BufferError{"telemetry: bad magic"};
    }
    TelemetryMessage msg;
    const std::uint8_t op = r.get_u8();
    const std::uint8_t count = r.get_u8();
    msg.switch_node = r.get_u32();
    msg.window = r.get_u32();
    switch (static_cast<TelemetryOp>(op)) {
        case TelemetryOp::kProbe:
            msg.op = TelemetryOp::kProbe;
            break;
        case TelemetryOp::kSummary: {
            msg.op = TelemetryOp::kSummary;
            msg.summary.frames_observed = r.get_u64();
            msg.summary.bytes_observed = r.get_u64();
            msg.summary.kv_gets = r.get_u32();
            msg.summary.kv_puts = r.get_u32();
            msg.summary.hot_logged = r.get_u32();
            msg.summary.hot_dropped = r.get_u32();
            break;
        }
        case TelemetryOp::kPortStats: {
            msg.op = TelemetryOp::kPortStats;
            msg.ports.reserve(count);
            for (std::uint8_t i = 0; i < count; ++i) {
                PortStatRecord p;
                p.port = r.get_u16();
                p.frames = r.get_u32();
                p.bytes = r.get_u64();
                p.queue_drops = r.get_u32();
                p.loss_drops = r.get_u32();
                p.ecn_marks = r.get_u32();
                p.backlog_bytes = r.get_u32();
                p.watermark_bytes = r.get_u32();
                msg.ports.push_back(p);
            }
            break;
        }
        case TelemetryOp::kHotKeys: {
            msg.op = TelemetryOp::kHotKeys;
            msg.hot_keys.reserve(count);
            for (std::uint8_t i = 0; i < count; ++i) {
                HotKeyRecord k;
                k.key = Key16{r.get_bytes(Key16::width)};
                k.estimate = r.get_u32();
                msg.hot_keys.push_back(k);
            }
            break;
        }
        default:
            throw BufferError{"telemetry: unknown op"};
    }
    return msg;
}

bool looks_like_telemetry(std::span<const std::byte> payload) noexcept {
    return payload.size() >= kTelemetryHeaderSize &&
           payload[0] == std::byte{0x7E} && payload[1] == std::byte{0x1E};
}

}  // namespace daiet::telemetry
