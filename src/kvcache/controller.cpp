#include "kvcache/controller.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_set>
#include <vector>

namespace daiet::kv {

void KvCacheController::rebalance() {
    ++stats_.rebalances;

    std::vector<Key16> target;
    if (hot_source_ != nullptr) {
        // Sketch-driven mode: the telemetry view already ranked this
        // window's heavy hitters (estimate-desc, key-asc); take the top
        // K that exist in the store. An empty window (no report yet, or
        // one lost on a lossy fabric) carries no information — keep the
        // current hot set instead of evicting it.
        const auto hot = hot_source_();
        if (hot.empty()) {
            for (const auto& [key, hits] : cache_->hit_counts()) {
                target.push_back(key);
            }
        } else {
            // One candidate pool, one scale. A sketch estimate counts a
            // key's GETs at the ToR this window; a valid cached key's
            // hit counter counts the same thing (the switch served
            // them). Rank the union by whichever view saw the key
            // hotter: freshly hot keys enter on their estimates, warm
            // cached keys defend their slots with their hit counts, and
            // keys gone dead hold neither and fall out.
            std::unordered_map<Key16, std::uint32_t> score;
            for (const auto& [key, estimate] : hot) {
                if (!server_->store().contains(key)) continue;
                score[key] = std::max(score[key], estimate);
            }
            for (const auto& [key, hits] : cache_->hit_counts()) {
                score[key] = std::max(score[key], hits);
            }
            std::vector<std::pair<Key16, std::uint32_t>> ranked{score.begin(),
                                                                score.end()};
            std::sort(ranked.begin(), ranked.end(),
                      [](const auto& a, const auto& b) {
                          if (a.second != b.second) return a.second > b.second;
                          return a.first < b.first;  // deterministic tie-break
                      });
            for (const auto& [key, count] : ranked) {
                if (target.size() >= cache_->capacity()) break;
                target.push_back(key);
            }
        }
    } else {
        // EWMA mode. Fold this window's two hotness views — a cached
        // key's switch hit counter (plus any server accesses it took
        // while invalidated) and every candidate's misses that reached
        // the server — into the smoothed scores, after aging them.
        std::unordered_set<Key16> seen;
        for (const auto& [key, hits] : cache_->hit_counts()) {
            if (hits > 0) seen.insert(key);
        }
        for (const auto& [key, count] : server_->access_log()) {
            seen.insert(key);
        }
        for (auto it = score_.begin(); it != score_.end();) {
            it->second *= kScoreDecay;
            // A key whose absent streak has swallowed kIdleEvidence
            // score-implied arrivals went completely dead; decay it
            // hard so it cannot shadow warm keys for dozens of windows
            // on yesterday's score. Below that evidence bar, absence
            // is sampling noise at thin request rates (see kIdleDecay
            // in the header).
            if (seen.contains(it->first)) {
                absent_streak_.erase(it->first);
            } else {
                const std::uint32_t streak = ++absent_streak_[it->first];
                const double missed =
                    it->second * (1.0 - kScoreDecay) * static_cast<double>(streak);
                if (missed >= kIdleEvidence) it->second *= kIdleDecay;
            }
            if (it->second < 1.0 / 64.0) {
                absent_streak_.erase(it->first);
                it = score_.erase(it);
            } else {
                ++it;
            }
        }
        for (const auto& [key, hits] : cache_->hit_counts()) {
            score_[key] += static_cast<double>(hits);
        }
        for (const auto& [key, count] : server_->access_log()) {
            score_[key] += static_cast<double>(count);
        }

        std::vector<std::pair<Key16, double>> ranked{score_.begin(), score_.end()};
        std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
            if (a.second != b.second) return a.second > b.second;
            return a.first < b.first;  // deterministic tie-break
        });

        // The target hot set: the top-K keys that exist in the store (a
        // missing key has nothing to cache).
        for (const auto& [key, score] : ranked) {
            if (target.size() >= cache_->capacity()) break;
            if (score <= 0.0) break;
            if (!server_->store().contains(key)) continue;
            target.push_back(key);
        }
    }

    apply_target(target);

    // Open the next observation window.
    cache_->reset_hot_counters();
    server_->clear_access_log();
}

void KvCacheController::apply_target(const std::vector<Key16>& target) {
    std::unordered_set<Key16> wanted{target.begin(), target.end()};

    // Evict cold entries first so their slots are free for promotions.
    for (const auto& [key, hits] : cache_->hit_counts()) {
        if (!wanted.contains(key)) {
            cache_->erase(key);
            ++stats_.evictions;
        }
    }
    // (Re-)install every target key: each goes in valid with the
    // server's current value (see KvCacheSwitchProgram::insert).
    for (const Key16& key : target) {
        const bool fresh = !cache_->contains(key);
        if (cache_->insert(key, server_->store().at(key)) && fresh) ++stats_.promotions;
    }
}

}  // namespace daiet::kv
