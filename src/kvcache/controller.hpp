// Hot-key cache controller: NetCache's control-plane half.
//
// The dataplane only counts — per-slot hit registers at the switch, a
// per-key access log at the server (every access the cache failed to
// absorb). The controller periodically merges the two views, keeps the
// hottest cache_slots keys cached, and writes values through from the
// server's authoritative store. It knows nothing of in-flight writes:
// an install serves the server's current value until the next PUT or
// PUT_ACK to cross the switch decides the slot, by the dataplane's one
// coherence rule (kvcache/switch_program.hpp).
//
// Two promotion modes share the install step:
//   * EWMA (default): smoothed per-key scores folded from the switch
//     hit counters and the server access log.
//   * sketch-driven: when a hot-key source is set (telemetry — the
//     count-min sketch + heavy-hitter log the ToR keeps over the kv
//     stream), the target hot set is the source's latest window,
//     ranked by sketch estimate. The ToR sees every GET at line rate —
//     hits, misses and keys the EWMA view only learns about a window
//     later — so promotion tracks hot-set drift as fast as the
//     telemetry poll cadence, with no smoothing inertia.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kvcache/store.hpp"
#include "kvcache/switch_program.hpp"

namespace daiet::kv {

class KvCacheController {
public:
    struct Stats {
        std::uint64_t rebalances{0};
        std::uint64_t promotions{0};
        std::uint64_t evictions{0};
    };

    /// Keys the promotion target draws from, hottest first (estimate
    /// descending, key ascending on ties). An empty result means "no
    /// fresh information" — the controller keeps the current hot set
    /// rather than evicting everything on a lost telemetry window.
    using HotKeySource =
        std::function<std::vector<std::pair<Key16, std::uint32_t>>()>;

    KvCacheController(KvCacheSwitchProgram& cache, KvStoreServer& server)
        : cache_{&cache}, server_{&server} {}

    /// Switch promotion to sketch-driven mode, fed by an in-network
    /// telemetry view (TelemetryCollector::hot_key_source_for). Pass
    /// nullptr to return to EWMA mode.
    void set_hot_key_source(HotKeySource source) {
        hot_source_ = std::move(source);
    }
    bool sketch_mode() const noexcept { return hot_source_ != nullptr; }

    /// Close the current observation window: compute the target hot
    /// set (EWMA scores or the sketch source's latest window), install
    /// the top-K keys, and reset the window counters. In EWMA mode the
    /// smoothing is what keeps short windows from thrashing the cache —
    /// a hot key's score persists across windows it happens to sit
    /// out. Fully deterministic (score-desc, key-asc tie-break).
    void rebalance();

    const Stats& stats() const noexcept { return stats_; }

    /// Per-window decay of the hotness scores (0 = only the last
    /// window counts, 1 = never forget).
    static constexpr double kScoreDecay = 0.95;

    /// Extra decay for keys that went completely dead. kScoreDecay
    /// alone lets a once-hot key that stops appearing entirely outrank
    /// genuinely warm keys for dozens of windows (0.95^w falls
    /// slowly); a dead key's score now halves every window on top of
    /// the base decay, so demoted-but-dead keys cannot linger above
    /// the promotion threshold. "Dead" must mean more than "absent
    /// this window", though: a smoothed score s implies roughly
    /// s * (1 - kScoreDecay) arrivals per window, so only once a key's
    /// absent streak has swallowed kIdleEvidence expected arrivals is
    /// its silence evidence of death rather than sampling noise —
    /// sparse-but-steady keys in a thin request stream are spared
    /// (halving them on chance absences would collapse the smoothed
    /// ranking into pure recency).
    static constexpr double kIdleDecay = 0.5;
    static constexpr double kIdleEvidence = 3.0;

private:
    /// Shared tail of both modes: evict cached keys outside `target`,
    /// (re-)install every target key from the server's store.
    void apply_target(const std::vector<Key16>& target);

    KvCacheSwitchProgram* cache_;
    KvStoreServer* server_;
    HotKeySource hot_source_;
    std::unordered_map<Key16, double> score_;
    /// Consecutive windows each scored key was absent from both
    /// hotness views (erased the moment it reappears).
    std::unordered_map<Key16, std::uint32_t> absent_streak_;
    Stats stats_;
};

}  // namespace daiet::kv
