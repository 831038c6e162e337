#include "directory/controller.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace daiet::dir {

DirectoryController::DirectoryController(sim::Simulator& sim,
                                         DirectorySwitchProgram& directory,
                                         std::vector<Shard> shards,
                                         std::vector<EdgeCacheSwitchProgram*> edges)
    : sim_{&sim},
      directory_{&directory},
      shards_{std::move(shards)},
      edges_{std::move(edges)} {
    DAIET_EXPECTS(!shards_.empty());
    for (const Shard& shard : shards_) {
        DAIET_EXPECTS(shard.addr != 0 && shard.server != nullptr);
    }
}

void DirectoryController::assign_all() {
    const std::size_t ranges = directory_->num_ranges();
    for (std::size_t r = 0; r < ranges; ++r) {
        directory_->set_owner(r, shards_[r % shards_.size()].addr);
    }
    for (EdgeCacheSwitchProgram* edge : edges_) {
        for (std::size_t r = 0; r < ranges; ++r) edge->grant(r);
    }
}

int DirectoryController::shard_of(std::size_t range) const {
    const sim::HostAddr owner = directory_->owner_of(range);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (shards_[s].addr == owner) return static_cast<int>(s);
    }
    return -1;
}

bool DirectoryController::migrate(std::size_t range, std::size_t to_shard) {
    DAIET_EXPECTS(range < directory_->num_ranges());
    DAIET_EXPECTS(to_shard < shards_.size());
    if (migrating_) return false;
    const int from_shard = shard_of(range);
    if (from_shard < 0 || static_cast<std::size_t>(from_shard) == to_shard) {
        return false;
    }

    // Phase 1: gate the range (requests NACK from here on) and kill
    // its leases everywhere — before the copy, so no edge can serve a
    // pre-migration value once the new rack starts answering.
    migrating_ = true;
    ++stats_.migrations_started;
    directory_->set_owner(range, 0);
    for (EdgeCacheSwitchProgram* edge : edges_) edge->revoke(range);

    // Phase 2, one drain window later: by then every request steered
    // past the directory before the gate has reached the old rack and
    // been answered (the drain bounds the directory->rack stretch, not
    // the RTO — a retransmission re-crosses the directory and is
    // NACKed, never steered stale). Copy the range and flip the owner,
    // but do NOT erase yet: a pre-gate request crawling through a
    // pathological link backlog could still commit (or read) at the
    // old rack after this instant, and the drain window is an
    // assumption, not a fence.
    kv::KvStoreServer* from = shards_[static_cast<std::size_t>(from_shard)].server;
    sim_->schedule_after(
        kMigrationDrain, [this, range, to_shard, from] {
            kv::KvStoreServer* to = shards_[to_shard].server;
            std::vector<std::pair<Key16, WireValue>> moved;
            for (const auto& [key, value] : from->store()) {
                if (range_of_key(key, directory_->num_ranges()) == range) {
                    moved.emplace_back(key, value);
                    to->preload(key, value);
                }
            }
            stats_.keys_moved += moved.size();
            directory_->set_owner(range, shards_[to_shard].addr);
            for (EdgeCacheSwitchProgram* edge : edges_) edge->grant(range);
            ++stats_.migrations_completed;

            // Phase 3, one more drain later: the straggler sweep. Any
            // copied key whose old-rack value moved since the snapshot
            // was written by a pre-gate request that outlived the
            // drain assumption — re-copy it (the write was ACKed; an
            // either-order outcome against a concurrent new-rack write
            // beats silently losing it, and the count makes the
            // violated assumption visible) — then retire the old
            // copies for good.
            sim_->schedule_after(
                kMigrationDrain, [this, to, from, moved = std::move(moved)] {
                    for (const auto& [key, value] : moved) {
                        const auto it = from->store().find(key);
                        if (it == from->store().end()) continue;
                        if (it->second != value) {
                            to->preload(key, it->second);
                            ++stats_.stragglers_moved;
                        }
                        from->erase(key);
                    }
                    migrating_ = false;
                });
        });
    return true;
}

bool DirectoryController::rebalance(const HotKeySource& source) {
    DAIET_EXPECTS(source != nullptr);
    if (migrating_ || shards_.size() < 2) return false;
    const auto ranking = source();
    if (ranking.empty()) return false;  // no fresh information: hold still

    // Fold key heat into per-range load, then attribute to racks.
    const std::size_t ranges = directory_->num_ranges();
    std::vector<std::uint64_t> range_heat(ranges, 0);
    for (const auto& [key, estimate] : ranking) {
        range_heat[range_of_key(key, ranges)] += estimate;
    }
    std::vector<std::uint64_t> shard_heat(shards_.size(), 0);
    for (std::size_t r = 0; r < ranges; ++r) {
        const int s = shard_of(r);
        if (s >= 0) shard_heat[static_cast<std::size_t>(s)] += range_heat[r];
    }
    const auto hottest = static_cast<std::size_t>(
        std::max_element(shard_heat.begin(), shard_heat.end()) -
        shard_heat.begin());
    const auto coldest = static_cast<std::size_t>(
        std::min_element(shard_heat.begin(), shard_heat.end()) -
        shard_heat.begin());
    if (hottest == coldest ||
        static_cast<double>(shard_heat[hottest]) <
            kImbalanceGate * static_cast<double>(shard_heat[coldest] + 1)) {
        return false;
    }

    // Move the hottest range the hottest rack owns — but never one so
    // heavy it would just flip the imbalance to the destination.
    std::size_t best_range = ranges;
    std::uint64_t best_heat = 0;
    const std::uint64_t gap = shard_heat[hottest] - shard_heat[coldest];
    for (std::size_t r = 0; r < ranges; ++r) {
        if (shard_of(r) != static_cast<int>(hottest)) continue;
        if (range_heat[r] > best_heat && range_heat[r] <= gap) {
            best_heat = range_heat[r];
            best_range = r;
        }
    }
    if (best_range == ranges || best_heat == 0) return false;
    if (!migrate(best_range, coldest)) return false;
    ++stats_.rebalances;
    return true;
}

}  // namespace daiet::dir
