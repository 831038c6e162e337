// The telemetry dataplane program: the third tenant family.
//
// A TenantProgram co-resident with DAIET aggregation and the kv cache
// on the same chip (shared SramBook, shared FabricRouter). Unlike the
// other tenants it is mostly *passive*: its observe() tap runs on every
// ingress frame — before claim dispatch, so it sees the GETs the kv
// cache will absorb as well as the ones that reach the server — and
// keeps three kinds of state in switch SRAM:
//
//   (a) a count-min sketch + heavy-hitter key log over the kv GET/PUT
//       stream (kv::kServerUdpPort), the line-rate hotness view the
//       cache controller's sketch-driven promotion mode consumes;
//   (b) per-ingress-port frame/byte counters;
//   (c) egress drop-tail queue watermarks, sampled from the netsim
//       links at poll time (Node::sample_egress_queue) — the queue
//       registers a real traffic manager exposes to the pipeline.
//
// The only traffic it terminates is its own: PROBE datagrams addressed
// to the chip's virtual address. A probe is answered with a burst of
// REPORT frames emitted back out of the probe's ingress port (the port
// that provably leads toward the collector, same trick as the kv cache
// reply), after which every window counter is reset — poll = read and
// clear, the NetCache controller idiom.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tenancy.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "dataplane/register_array.hpp"
#include "telemetry/config.hpp"
#include "telemetry/protocol.hpp"
#include "telemetry/sketch.hpp"

namespace daiet::telemetry {

struct TelemetryProgramStats {
    std::uint64_t frames_observed{0};
    std::uint64_t bytes_observed{0};
    std::uint64_t kv_gets_sketched{0};
    std::uint64_t kv_puts_sketched{0};
    std::uint64_t hot_logged{0};
    std::uint64_t hot_dropped{0};
    std::uint64_t probes_answered{0};
    std::uint64_t report_frames_sent{0};
    std::uint64_t windows_reset{0};
};

class TelemetrySwitchProgram : public TenantProgram {
public:
    /// Reserves the sketch, the heavy-hitter log and the per-port
    /// counters from the chip's SRAM book (throws dp::ResourceError
    /// when the chip is full). `node` is the switch node this chip sits
    /// in — the handle for egress-queue sampling; the tenant answers
    /// probes addressed to switch_vaddr(node->id()).
    TelemetrySwitchProgram(TelemetryConfig config, sim::Node& node,
                           dp::PipelineSwitch& chip,
                           std::shared_ptr<FabricRouter> router);

    /// Count-min sketch shape: kSketchDepth rows of kSketchWidth 32-bit
    /// counters, one independent hash per row. Error bound:
    /// overestimation <= stream length * e / width with probability
    /// 1 - e^-depth (Cormode & Muthukrishnan).
    static constexpr std::size_t kSketchWidth = 1024;
    static constexpr std::size_t kSketchDepth = 3;
    /// Heavy-hitter log entries per window, and the cells of the
    /// filter that keeps a key from being logged twice.
    static constexpr std::size_t kHotLogCapacity = 64;
    static constexpr std::size_t kHotDedupCells = 512;

    // --- data plane ---------------------------------------------------------
    void observe(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                 std::span<const std::byte> payload) override;
    Claim on_frame(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                   std::span<const std::byte> payload) override;
    /// The sketch tap in observe() must run on every frame.
    bool passive_observer() const noexcept override { return true; }
    std::vector<std::uint16_t> claim_ports() const override {
        return {kTelemetryUdpPort};
    }
    std::string name() const override {
        return "telemetry@" + std::to_string(node_->id());
    }
    std::size_t sram_bytes() const override {
        return sketch_.sram_bytes() + hot_log_.sram_bytes() +
               port_frames_.footprint_bytes() + port_bytes_.footprint_bytes();
    }

    // --- control plane (tests and out-of-band inspection) -------------------
    sim::HostAddr vaddr() const noexcept { return switch_vaddr(node_->id()); }
    const CountMinSketch& sketch() const noexcept { return sketch_; }
    const HotKeyLog& hot_log() const noexcept { return hot_log_; }
    /// This window's heavy hitters with their current estimates,
    /// deduplicated, estimate-desc / key-asc — the report payload.
    std::vector<HotKeyRecord> hot_keys() const;
    /// This window's per-port records (ingress counters + egress queue
    /// samples). `reset_peaks` also opens a new watermark window.
    std::vector<PortStatRecord> port_stats(bool reset_peaks = false);

    const TelemetryProgramStats& stats() const noexcept { return stats_; }
    const TelemetryConfig& config() const noexcept { return config_; }

private:
    /// Decode a frame addressed to this switch and answer a probe. Kept
    /// out of on_frame, which the mux offers every kv frame: a frame
    /// not addressed to this switch then costs only the address checks.
    [[gnu::noinline]] Claim on_probe(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                                     std::span<const std::byte> payload);
    /// Reset every per-window structure (poll = read and clear).
    void reset_window();

    TelemetryConfig config_;
    sim::Node* node_;
    CountMinSketch sketch_;
    HotKeyLog hot_log_;
    dp::RegisterArray<std::uint32_t> port_frames_;
    dp::RegisterArray<std::uint64_t> port_bytes_;
    /// Cumulative link-counter snapshots from the previous poll, for
    /// per-window deltas (control-plane shadow state, indexed by port).
    std::vector<std::uint64_t> prev_queue_drops_;
    std::vector<std::uint64_t> prev_loss_drops_;
    std::vector<std::uint64_t> prev_ecn_marks_;
    TelemetryProgramStats stats_;
    TelemetryProgramStats window_;  ///< stats since the last poll
};

}  // namespace daiet::telemetry
