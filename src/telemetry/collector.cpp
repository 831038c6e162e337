#include "telemetry/collector.hpp"

#include <algorithm>
#include <iterator>

#include "common/contracts.hpp"
#include "netsim/simulator.hpp"

namespace daiet::telemetry {

TelemetryCollector::TelemetryCollector(sim::Host& host) : host_{&host} {
    host_->udp_bind(kCollectorUdpPort,
                    [this](sim::HostAddr src, std::uint16_t src_port,
                           std::span<const std::byte> payload) {
                        on_datagram(src, src_port, payload);
                    });
}

TelemetryCollector::~TelemetryCollector() { host_->udp_unbind(kCollectorUdpPort); }

void TelemetryCollector::add_target(sim::NodeId node) {
    targets_.push_back(node);
}

void TelemetryCollector::poll_once() {
    ++stats_.polls;
    const std::uint32_t window = next_window_++;
    for (const sim::NodeId node : targets_) {
        host_->udp_send(switch_vaddr(node), kCollectorUdpPort, kTelemetryUdpPort,
                        serialize_probe(node, window));
        ++stats_.probes_sent;
    }
}

void TelemetryCollector::start(sim::SimTime interval, sim::SimTime horizon) {
    DAIET_EXPECTS(interval > 0);
    interval_ = interval;
    horizon_ = horizon;
    timer_ = host_->timer_after(interval_, [this] { tick(); });
}

void TelemetryCollector::tick() {
    poll_once();
    // Re-arm while the next tick still lands inside the horizon; the
    // bound is what lets the simulation run to quiescence.
    if (host_->simulator().now() + interval_ <= horizon_) {
        timer_ = host_->timer_after(interval_, [this] { tick(); });
    }
}

void TelemetryCollector::on_datagram(sim::HostAddr /*src*/,
                                     std::uint16_t /*src_port*/,
                                     std::span<const std::byte> payload) {
    const std::optional<TelemetryMessage> decoded = decode_telemetry(payload);
    if (!decoded || decoded->op == TelemetryOp::kProbe) return;  // not a report
    const TelemetryMessage& msg = *decoded;
    ++stats_.report_frames_rx;
    // A switch echoes its probe's window, so a genuine report names a
    // target and a window poll_once already sent.
    if (msg.window >= next_window_ || std::ranges::count(targets_, msg.switch_node) == 0) {
        ++stats_.unrequested_frames;
        return;
    }

    SwitchView& view = views_[msg.switch_node];
    if (msg.window < view.window) {
        // A frame from a window we already superseded (reordering
        // cannot happen on FIFO links, but a lost-then-late mix can).
        ++stats_.stale_frames;
        return;
    }
    if (msg.window > view.window) {
        // First frame of a fresher window: previous window's data is
        // replaced wholesale (reports describe disjoint windows), and
        // the smoothed hotness rates age one step per window advanced
        // (a lost window decays like an idle one — no data, no heat).
        auto& scores = hot_scores_[msg.switch_node];
        // Decay stops once every score is gone, so a long-silent switch
        // costs no more steps than its scores take to die out.
        for (std::uint32_t w = view.window; w < msg.window && !scores.empty(); ++w) {
            for (auto it = scores.begin(); it != scores.end();) {
                it->second *= kHotScoreDecay;
                it = it->second < 0.25 ? scores.erase(it) : std::next(it);
            }
        }
        view = SwitchView{};
        view.window = msg.window;
        ++stats_.windows_merged;
    }
    view.updated = host_->simulator().now();
    switch (msg.op) {
        case TelemetryOp::kSummary:
            view.summary = msg.summary;
            break;
        case TelemetryOp::kPortStats:
            view.ports.insert(view.ports.end(), msg.ports.begin(),
                              msg.ports.end());
            break;
        case TelemetryOp::kHotKeys: {
            // Fold this window's estimates into the smoothed rates
            // (chunks carry disjoint keys, so += is once per window).
            auto& scores = hot_scores_[msg.switch_node];
            for (const HotKeyRecord& rec : msg.hot_keys) {
                scores[rec.key] += (1.0 - kHotScoreDecay) *
                                   static_cast<double>(rec.estimate);
            }
            view.hot_keys.insert(view.hot_keys.end(), msg.hot_keys.begin(),
                                 msg.hot_keys.end());
            // Chunks arrive pre-sorted; re-sort the concatenation so
            // consumers always see hottest-first.
            std::sort(view.hot_keys.begin(), view.hot_keys.end(),
                      [](const HotKeyRecord& a, const HotKeyRecord& b) {
                          if (a.estimate != b.estimate) {
                              return a.estimate > b.estimate;
                          }
                          return a.key < b.key;
                      });
            break;
        }
        case TelemetryOp::kProbe:
            break;  // handled above
    }
}

const SwitchView* TelemetryCollector::view(sim::NodeId node) const {
    const auto it = views_.find(node);
    return it == views_.end() ? nullptr : &it->second;
}

std::vector<std::pair<Key16, double>> TelemetryCollector::hot_rates(
    sim::NodeId node) const {
    std::vector<std::pair<Key16, double>> out;
    const auto it = hot_scores_.find(node);
    if (it == hot_scores_.end()) return out;
    out.assign(it->second.begin(), it->second.end());
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;  // deterministic tie-break
    });
    return out;
}

std::function<std::vector<std::pair<Key16, std::uint32_t>>()>
TelemetryCollector::hot_key_source_for(sim::NodeId node) const {
    return [this, node] {
        std::vector<std::pair<Key16, std::uint32_t>> out;
        const auto rates = hot_rates(node);
        out.reserve(rates.size());
        for (const auto& [key, rate] : rates) {
            // Per-window scale, floored at 1 while tracked: the
            // consumer compares these against raw window hit counts.
            out.emplace_back(key, std::max<std::uint32_t>(
                                      1, static_cast<std::uint32_t>(rate + 0.5)));
        }
        return out;
    };
}

std::uint32_t TelemetryCollector::max_watermark_bytes() const noexcept {
    std::uint32_t peak = 0;
    for (const auto& [node, view] : views_) {
        peak = std::max(peak, view.max_watermark_bytes());
    }
    return peak;
}

}  // namespace daiet::telemetry
