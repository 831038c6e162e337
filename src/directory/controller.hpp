// DirectoryController: the control-plane half of the directory tenant.
//
// Installs the initial key-range -> rack mapping and migrates ranges
// at runtime. A migration is a two-phase handshake with the dataplane:
//
//   phase 1 (now)      unown the range at the directory — requests
//                      hitting it are NACKed and retried by the
//                      clients' transport — and revoke the range's
//                      leases at every edge cache (nothing cached, and
//                      nothing sampled before this instant may install
//                      after it: every edge voids all its tickets).
//   phase 2 (+drain)   after the drain window (long enough for
//                      requests already steered past the directory to
//                      clear the fabric), copy the range's keys to the
//                      new rack's store, point the range at the new
//                      rack, re-grant the leases. The retried requests
//                      now steer to the new owner.
//   phase 3 (+drain)   the straggler sweep: the drain window is an
//                      assumption, not a fence, so any copied key
//                      whose old-rack value changed since the snapshot
//                      (a pre-gate write that outlived the window) is
//                      re-copied — and counted — before the old copies
//                      are erased for good.
//
// No request is lost (NACK + RetryChannel nudge), no stale value
// survives (no traffic routes to the old rack after the flip, the
// edges' leases died before the copy, ACKed stragglers are swept
// forward), and the whole dance is invisible to clients beyond one
// drain window of added latency on the migrated range.
//
// rebalance() closes the skew loop: given a hot-key ranking — the
// TelemetryCollector's sketch view of the directory chip, the same
// feed the kv cache controller promotes from — it folds key heat into
// per-range load, attributes ranges to racks, and migrates the hottest
// range off the hottest rack onto the coldest once the imbalance
// crosses a threshold. One migration in flight at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "directory/edge_cache.hpp"
#include "directory/switch_program.hpp"
#include "kvcache/store.hpp"
#include "netsim/simulator.hpp"

namespace daiet::dir {

class DirectoryController {
public:
    struct Shard {
        sim::HostAddr addr{0};
        kv::KvStoreServer* server{nullptr};
    };

    struct Stats {
        std::uint64_t migrations_started{0};
        std::uint64_t migrations_completed{0};
        std::uint64_t keys_moved{0};
        /// Writes that committed at the old rack *after* the phase-2
        /// copy (the drain assumption was violated) and were re-copied
        /// by the straggler sweep instead of being lost.
        std::uint64_t stragglers_moved{0};
        std::uint64_t rebalances{0};  ///< rebalance() calls that migrated
    };

    /// Keys with their heat estimates, hottest first — the
    /// TelemetryCollector::hot_key_source_for signature, so the two
    /// controllers share one telemetry feed.
    using HotKeySource =
        std::function<std::vector<std::pair<Key16, std::uint32_t>>()>;

    DirectoryController(sim::Simulator& sim, DirectorySwitchProgram& directory,
                        std::vector<Shard> shards,
                        std::vector<EdgeCacheSwitchProgram*> edges);

    /// Round-robin every range across the shards and grant every edge
    /// every lease — the initial deployment.
    void assign_all();

    /// Which shard (index) owns `range` right now; -1 mid-migration.
    int shard_of(std::size_t range) const;

    /// How long phase 1 of a range migration (NACK new requests) lasts
    /// before phase 2 (copy keys, flip the owner): the window in which
    /// requests already steered *past* the directory drain out of the
    /// fabric. Bounded by the directory->server path delay plus
    /// queueing, not by the RTO — a retransmission re-crosses the
    /// directory and is NACKed, never steered stale.
    static constexpr sim::SimTime kMigrationDrain = 120 * sim::kMicrosecond;

    /// Start migrating `range` to `to_shard` (two-phase, completes
    /// kMigrationDrain later on the simulator). Returns false — and
    /// does nothing — when a migration is already in flight, the range
    /// is already there, or the range is unowned.
    bool migrate(std::size_t range, std::size_t to_shard);

    /// One skew-rebalance pass over `source`'s ranking. Returns true
    /// when it started a migration.
    bool rebalance(const HotKeySource& source);

    /// Imbalance gate: migrate only when the hottest rack carries more
    /// than this multiple of the coldest rack's load.
    static constexpr double kImbalanceGate = 2.0;

    bool migrating() const noexcept { return migrating_; }
    std::size_t num_shards() const noexcept { return shards_.size(); }
    const Stats& stats() const noexcept { return stats_; }

private:
    sim::Simulator* sim_;
    DirectorySwitchProgram* directory_;
    std::vector<Shard> shards_;
    std::vector<EdgeCacheSwitchProgram*> edges_;
    bool migrating_{false};
    Stats stats_;
};

}  // namespace daiet::dir
