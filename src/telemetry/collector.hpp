// TelemetryCollector: the host-side half of the telemetry tenant.
//
// Polls every registered switch on a Host::timer_after cadence —
// a PROBE datagram to each chip's virtual address per tick — and merges
// the REPORT frames that come back into per-switch views (latest
// window's heavy hitters, per-port counters and queue watermarks) plus
// a cluster-wide rollup. Both control loops read these views:
//
//   * the kv cache controller's sketch-driven promotion mode consumes
//     hot_key_source_for(cache switch) — hot keys detected at the ToR
//     at line rate rather than inferred at the storage server;
//   * queue watermarks quantify the congestion the fabric signals
//     in-band via ECN marks (the RetryChannel back-off loop); the
//     collector is where an operator sees which queue stood and when.
//
// Telemetry is fire-and-forget by design: a probe or report lost on a
// lossy fabric costs one observation window — consumers keep acting on
// the last merged view until a fresher one lands.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netsim/host.hpp"
#include "telemetry/protocol.hpp"

namespace daiet::telemetry {

/// The merged state of one switch, as of its freshest reported window.
struct SwitchView {
    std::uint32_t window{0};  ///< poll round the data belongs to
    sim::SimTime updated{0};  ///< arrival time of the latest report
    SummaryRecord summary{};
    std::vector<PortStatRecord> ports;
    /// Heavy hitters, estimate-desc / key-asc (the switch pre-sorts;
    /// merged chunks are re-sorted).
    std::vector<HotKeyRecord> hot_keys;

    /// The deepest egress-queue watermark any port reported this window.
    std::uint32_t max_watermark_bytes() const noexcept {
        std::uint32_t peak = 0;
        for (const PortStatRecord& p : ports) {
            peak = std::max(peak, p.watermark_bytes);
        }
        return peak;
    }
};

struct CollectorStats {
    std::uint64_t polls{0};
    std::uint64_t probes_sent{0};
    std::uint64_t report_frames_rx{0};
    std::uint64_t windows_merged{0};  ///< first frame of a fresh window
    std::uint64_t stale_frames{0};    ///< frames older than the merged window
    /// Reports no probe asked for: a window not yet probed, or a switch
    /// that is not a target. Dropped before they touch any view.
    std::uint64_t unrequested_frames{0};
};

class TelemetryCollector {
public:
    /// Binds the collector UDP port on `host`.
    explicit TelemetryCollector(sim::Host& host);
    ~TelemetryCollector();
    TelemetryCollector(const TelemetryCollector&) = delete;
    TelemetryCollector& operator=(const TelemetryCollector&) = delete;

    /// Register a switch to poll (probes go to switch_vaddr(node)).
    void add_target(sim::NodeId node);

    /// Start polling: one probe burst every `interval`, the first after
    /// one interval, the last at or before `horizon` (bounded so the
    /// simulation quiesces).
    void start(sim::SimTime interval, sim::SimTime horizon);

    /// Send one probe burst right now (tests, manual cadences).
    void poll_once();

    /// The latest merged view of `node`; nullptr before its first
    /// report arrives.
    const SwitchView* view(sim::NodeId node) const;

    /// Promotion feed for KvCacheController::set_hot_key_source: the
    /// smoothed per-window hotness rates at `node`, hottest first
    /// (rate-desc, key-asc; rates round to at least 1 while a key stays
    /// tracked). Empty until the first report arrives (the controller
    /// treats that as "no fresh information", not "nothing is hot").
    std::function<std::vector<std::pair<Key16, std::uint32_t>>()>
    hot_key_source_for(sim::NodeId node) const;

    /// Smoothing of per-window sketch estimates into per-key hotness
    /// rates (rate = decay * rate + (1-decay) * window estimate). One
    /// poll window is a thin sample — tens of requests — so consumers
    /// rank on the smoothed rate; 0 would rank on the raw last window
    /// alone.
    static constexpr double kHotScoreDecay = 0.7;

    /// The smoothed hotness rates behind hot_key_source_for (tests).
    std::vector<std::pair<Key16, double>> hot_rates(sim::NodeId node) const;

    /// Deepest egress watermark reported fabric-wide (rollup).
    std::uint32_t max_watermark_bytes() const noexcept;

    const CollectorStats& stats() const noexcept { return stats_; }

private:
    void on_datagram(sim::HostAddr src, std::uint16_t src_port,
                     std::span<const std::byte> payload);
    void tick();

    sim::Host* host_;
    std::vector<sim::NodeId> targets_;
    std::unordered_map<sim::NodeId, SwitchView> views_;
    /// Smoothed per-key GET rates per switch: decayed at each window
    /// transition, fed by the window's heavy-hitter estimates, pruned
    /// when they fall below noise.
    std::unordered_map<sim::NodeId, std::unordered_map<Key16, double>>
        hot_scores_;
    std::uint32_t next_window_{1};
    sim::SimTime interval_{0};
    sim::SimTime horizon_{0};
    sim::TimerRef timer_;
    CollectorStats stats_;
};

}  // namespace daiet::telemetry
