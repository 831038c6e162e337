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

std::optional<TelemetryMessage> decode_telemetry(
    std::span<const std::byte> payload) noexcept {
    const std::byte* p = payload.data();
    if (payload.size() < kTelemetryHeaderSize || load_be16(p) != kTelemetryMagic) {
        return std::nullopt;
    }
    const auto op = static_cast<TelemetryOp>(p[2]);
    const auto count = std::to_integer<std::size_t>(p[3]);
    std::size_t body = 0;
    switch (op) {
        case TelemetryOp::kProbe: break;
        case TelemetryOp::kSummary: body = kSummaryRecordSize; break;
        case TelemetryOp::kPortStats: body = count * kPortStatRecordSize; break;
        case TelemetryOp::kHotKeys: body = count * kHotKeyRecordSize; break;
        default: return std::nullopt;
    }
    if (payload.size() < kTelemetryHeaderSize + body) return std::nullopt;

    TelemetryMessage msg;
    msg.op = op;
    msg.switch_node = load_be32(p + 4);
    msg.window = load_be32(p + 8);
    p += kTelemetryHeaderSize;
    if (op == TelemetryOp::kSummary) {
        msg.summary.frames_observed = load_be64(p);
        msg.summary.bytes_observed = load_be64(p + 8);
        msg.summary.kv_gets = load_be32(p + 16);
        msg.summary.kv_puts = load_be32(p + 20);
        msg.summary.hot_logged = load_be32(p + 24);
        msg.summary.hot_dropped = load_be32(p + 28);
    } else if (op == TelemetryOp::kPortStats) {
        msg.ports.resize(count);
        for (PortStatRecord& r : msg.ports) {
            r.port = load_be16(p);
            r.frames = load_be32(p + 2);
            r.bytes = load_be64(p + 6);
            r.queue_drops = load_be32(p + 14);
            r.loss_drops = load_be32(p + 18);
            r.ecn_marks = load_be32(p + 22);
            r.backlog_bytes = load_be32(p + 26);
            r.watermark_bytes = load_be32(p + 30);
            p += kPortStatRecordSize;
        }
    } else if (op == TelemetryOp::kHotKeys) {
        msg.hot_keys.resize(count);
        for (HotKeyRecord& r : msg.hot_keys) {
            r.key = Key16{std::span<const std::byte, Key16::width>{p, Key16::width}};
            r.estimate = load_be32(p + Key16::width);
            p += kHotKeyRecordSize;
        }
    }
    return msg;
}

}  // namespace daiet::telemetry
