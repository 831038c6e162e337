#include "telemetry/switch_program.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/contracts.hpp"
#include "kvcache/protocol.hpp"

namespace daiet::telemetry {

TelemetrySwitchProgram::TelemetrySwitchProgram(TelemetryConfig config,
                                               sim::Node& node,
                                               dp::PipelineSwitch& chip,
                                               std::shared_ptr<FabricRouter> router)
    : TenantProgram{std::move(router)},
      config_{config},
      node_{&node},
      sketch_{"tm.sketch", kSketchWidth, kSketchDepth, chip.sram()},
      hot_log_{"tm.hot", kHotLogCapacity, kHotDedupCells, chip.sram()},
      port_frames_{"tm.port_frames", chip.config().num_ports, chip.sram()},
      port_bytes_{"tm.port_bytes", chip.config().num_ports, chip.sram()},
      prev_queue_drops_(chip.config().num_ports, 0),
      prev_loss_drops_(chip.config().num_ports, 0),
      prev_ecn_marks_(chip.config().num_ports, 0) {}

void TelemetrySwitchProgram::observe(dp::PacketContext& ctx,
                                     const sim::ParsedFrame& frame,
                                     std::span<const std::byte> payload) {
    // Stage 1: per-ingress-port counters, every frame.
    const dp::PortId in = ctx.packet().meta().ingress_port;
    if (in < port_frames_.size()) {
        ++port_frames_.cell(in);
        port_bytes_.cell(in) += ctx.packet().size_bytes();
        // Two read-modify-writes: two reads, two writes and one add.
        ctx.count_op(dp::OpKind::kAlu);
        ctx.count_ops(dp::OpKind::kRegisterRead, 2);
        ctx.count_ops(dp::OpKind::kRegisterWrite, 2);
    }
    ++stats_.frames_observed;
    ++window_.frames_observed;
    stats_.bytes_observed += ctx.packet().size_bytes();
    window_.bytes_observed += ctx.packet().size_bytes();

    // Stage 2: the kv key sketch — requests on the kv server port only
    // (GETs and PUTs toward the storage server), whichever tenant ends
    // up terminating them. The port is the kv service's, so the sketch
    // sees every GET/PUT at the ToR, including the ones a co-resident
    // cache tenant will absorb.
    if (!frame.udp || frame.udp->dst_port != kv::kServerUdpPort) return;
    const std::optional<kv::KvMessage> decoded = kv::decode_kv(payload);
    if (!decoded) return;
    const kv::KvMessage& msg = *decoded;
    ctx.count_op(dp::OpKind::kParse);  // kv header
    if (msg.op != kv::KvOp::kGet && msg.op != kv::KvOp::kPut) return;
    if (msg.op == kv::KvOp::kGet) {
        ++stats_.kv_gets_sketched;
        ++window_.kv_gets_sketched;
    } else {
        ++stats_.kv_puts_sketched;
        ++window_.kv_puts_sketched;
    }
    const std::uint32_t est = sketch_.update(ctx, msg.key);
    ctx.count_op(dp::OpKind::kAlu);  // threshold compare
    if (est >= config_.hot_threshold) {
        const HotKeyLog::Outcome out = hot_log_.offer(ctx, msg.key);
        if (out.appended) {
            ++stats_.hot_logged;
            ++window_.hot_logged;
        } else if (out.dropped) {
            ++stats_.hot_dropped;
            ++window_.hot_dropped;
        }
    }
}

Claim TelemetrySwitchProgram::on_frame(dp::PacketContext& ctx,
                                       const sim::ParsedFrame& frame,
                                       std::span<const std::byte> payload) {
    const bool mine = frame.udp && frame.udp->dst_port == kTelemetryUdpPort &&
                      frame.ip.dst == vaddr();
    return mine ? on_probe(ctx, frame, payload) : Claim::kNotMine;
}

Claim TelemetrySwitchProgram::on_probe(dp::PacketContext& ctx,
                                       const sim::ParsedFrame& frame,
                                       std::span<const std::byte> payload) {
    // Addressed to this switch: consumed whatever it carries. Reports
    // are never addressed to a switch, and undecodable bytes have
    // nowhere to go.
    ctx.count_op(dp::OpKind::kParse);  // telemetry header
    ctx.mark_drop();
    const std::optional<TelemetryMessage> msg = decode_telemetry(payload);
    if (!msg || msg->op != TelemetryOp::kProbe) return Claim::kHandled;
    ++stats_.probes_answered;

    // Answer out of the probe's ingress port: the one port guaranteed
    // to lead back toward the collector (probes ride shortest paths),
    // leaving the routing table free for the forwarding slice.
    const auto emit = [&](std::vector<std::byte> report) {
        auto out_frame = sim::build_udp_frame(
            vaddr(), frame.ip.src, kTelemetryUdpPort,
            frame.udp->src_port, report);
        dp::Packet out{std::move(out_frame)};
        out.meta().egress_port = ctx.packet().meta().ingress_port;
        ctx.emit(std::move(out));
        ++stats_.report_frames_sent;
    };

    SummaryRecord summary;
    summary.frames_observed = window_.frames_observed;
    summary.bytes_observed = window_.bytes_observed;
    summary.kv_gets = static_cast<std::uint32_t>(window_.kv_gets_sketched);
    summary.kv_puts = static_cast<std::uint32_t>(window_.kv_puts_sketched);
    summary.hot_logged = static_cast<std::uint32_t>(window_.hot_logged);
    summary.hot_dropped = static_cast<std::uint32_t>(window_.hot_dropped);
    emit(serialize_summary(node_->id(), msg->window, summary));

    const std::vector<PortStatRecord> ports = port_stats(/*reset_peaks=*/true);
    for (std::size_t at = 0; at < ports.size(); at += kMaxPortStatsPerFrame) {
        const std::size_t n = std::min(kMaxPortStatsPerFrame, ports.size() - at);
        emit(serialize_port_stats(node_->id(), msg->window,
                                  std::span{ports}.subspan(at, n)));
    }

    const std::vector<HotKeyRecord> hot = hot_keys();
    for (std::size_t at = 0; at < hot.size(); at += kMaxHotKeysPerFrame) {
        const std::size_t n = std::min(kMaxHotKeysPerFrame, hot.size() - at);
        emit(serialize_hot_keys(node_->id(), msg->window,
                                std::span{hot}.subspan(at, n)));
    }

    reset_window();
    return Claim::kHandled;
}

std::vector<HotKeyRecord> TelemetrySwitchProgram::hot_keys() const {
    std::unordered_set<Key16> seen;
    std::vector<HotKeyRecord> out;
    for (const Key16& key : hot_log_.drain()) {
        if (!seen.insert(key).second) continue;  // dedup-cell collision copy
        out.push_back({key, sketch_.estimate(key)});
    }
    std::sort(out.begin(), out.end(),
              [](const HotKeyRecord& a, const HotKeyRecord& b) {
                  if (a.estimate != b.estimate) return a.estimate > b.estimate;
                  return a.key < b.key;  // deterministic tie-break
              });
    return out;
}

std::vector<PortStatRecord> TelemetrySwitchProgram::port_stats(bool reset_peaks) {
    std::vector<PortStatRecord> out;
    const std::size_t ports =
        std::min(node_->port_count(), prev_queue_drops_.size());
    out.reserve(ports);
    for (std::size_t p = 0; p < ports; ++p) {
        const auto port = static_cast<sim::PortId>(p);
        const sim::EgressQueueSample q =
            node_->sample_egress_queue(port, reset_peaks);
        PortStatRecord rec;
        rec.port = port;
        rec.frames = p < port_frames_.size() ? port_frames_.peek(p) : 0;
        rec.bytes = p < port_bytes_.size() ? port_bytes_.peek(p) : 0;
        rec.queue_drops =
            static_cast<std::uint32_t>(q.frames_dropped_queue - prev_queue_drops_[p]);
        rec.loss_drops =
            static_cast<std::uint32_t>(q.frames_dropped_loss - prev_loss_drops_[p]);
        rec.ecn_marks =
            static_cast<std::uint32_t>(q.frames_marked_ecn - prev_ecn_marks_[p]);
        rec.backlog_bytes = static_cast<std::uint32_t>(q.backlog_bytes);
        rec.watermark_bytes = static_cast<std::uint32_t>(q.peak_backlog_bytes);
        if (reset_peaks) {
            prev_queue_drops_[p] = q.frames_dropped_queue;
            prev_loss_drops_[p] = q.frames_dropped_loss;
            prev_ecn_marks_[p] = q.frames_marked_ecn;
        }
        out.push_back(rec);
    }
    return out;
}

void TelemetrySwitchProgram::reset_window() {
    sketch_.reset();
    hot_log_.reset();
    port_frames_.clear();
    port_bytes_.clear();
    window_ = TelemetryProgramStats{};
    ++stats_.windows_reset;
}

}  // namespace daiet::telemetry
