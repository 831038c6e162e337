// ShardedKvService: the kv service scaled out across N storage racks,
// deployed on a ClusterRuntime fabric.
//
// It owns one kv deployment core (kvcache/service.hpp) built with one
// rack per server host — each a KvStoreServer fronted by its own
// KvCacheSwitchProgram at the rack ToR — plus the clients, stats, SLO,
// probes and scheduling that come with it. This layer adds only the
// fourth-family pieces:
//
//   * one DirectorySwitchProgram tenant on a spine chip that every
//     client->storage path crosses, owning the key-range -> rack map;
//     clients address the *service* vaddr and never learn server
//     addresses;
//   * one EdgeCacheSwitchProgram tenant per client-side ToR, holding
//     lease-based reply caches the directory invalidates on writes;
//   * a DirectoryController that installs the mapping, migrates ranges
//     (two-phase, NACK-gated) and rebalances skew off telemetry
//     rankings.
//
// The workload generator replays exactly the per-client op streams of
// the unsharded KvService (kv::client_op_stream), which is what makes
// "sharded == unsharded reference" a meaningful value-parity check.
//
// The service refuses the parallel driver: it and its DirectoryController
// schedule through rt.simulator() (shard 0 under that driver), and those
// events mutate directory and edge tenants that live on other shards.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "directory/config.hpp"
#include "directory/controller.hpp"
#include "directory/edge_cache.hpp"
#include "directory/switch_program.hpp"
#include "kvcache/service.hpp"
#include "kvcache/store.hpp"
#include "runtime/cluster.hpp"

namespace daiet::dir {

struct ShardedKvOptions {
    /// config.cache_slots == 0: no per-rack ToR caches (the
    /// sharding-only ablation).
    kv::KvConfig config{};
    /// edge.slots == 0: no client-side edge caches (the lease ablation).
    EdgeCacheConfig edge{};
    /// Indices (into ClusterRuntime::hosts()) of the storage servers,
    /// one per rack. Place them on distinct leaves for real sharding.
    std::vector<std::size_t> server_hosts{0};
    /// Client host indices; empty = every host that is not a server.
    std::vector<std::size_t> client_hosts;
};

/// Fabric-wide results of one sharded workload run: everything the
/// unsharded service reports (summed over racks), plus the directory's.
struct ShardedKvRunStats : kv::KvRunStats {
    DirectoryStats directory;
    EdgeCacheStats edges;  ///< summed over edge caches
    DirectoryController::Stats control;
};

class ShardedKvService {
public:
    ShardedKvService(rt::ClusterRuntime& rt, ShardedKvOptions options);

    ShardedKvService(const ShardedKvService&) = delete;
    ShardedKvService& operator=(const ShardedKvService&) = delete;

    /// The kv deployment core: racks, clients, their stats.
    kv::KvService& core() noexcept { return core_; }
    std::size_t num_shards() const noexcept { return core_.num_racks(); }
    kv::KvStoreServer& server(std::size_t shard) { return core_.server(shard); }
    std::size_t num_clients() const noexcept { return core_.num_clients(); }
    kv::KvClient& client(std::size_t i) { return core_.client(i); }
    DirectorySwitchProgram& directory() noexcept { return *directory_; }
    DirectoryController& controller() noexcept { return *controller_; }
    sim::NodeId directory_node() const noexcept { return directory_node_; }
    std::size_t num_edges() const noexcept { return edges_.size(); }
    EdgeCacheSwitchProgram& edge(std::size_t i);

    /// Control-plane preload of keys 0..n-1 into their owning racks
    /// (same key/value universe as KvService — the parity reference).
    void preload(std::size_t num_keys) { core_.preload(num_keys); }

    /// Schedule the workload's request streams plus per-rack cache
    /// promotion passes (the core's schedule(), so the streams are
    /// identical to an unsharded run).
    void schedule(const kv::KvWorkload& workload);

    /// Schedule periodic directory skew-rebalances off `source` (e.g.
    /// TelemetryCollector::hot_key_source_for(directory_node())).
    void schedule_rebalances(sim::SimTime interval, sim::SimTime horizon,
                             DirectoryController::HotKeySource source);

    /// One promotion pass over every rack's cache controller.
    void rebalance_racks() { core_.rebalance_racks(); }

    ShardedKvRunStats collect() const;
    ShardedKvRunStats run(const kv::KvWorkload& workload);

    /// Declare objectives (see KvService::set_slo); empty spec.service
    /// defaults to "shardedkv".
    void set_slo(trace::SloSpec spec) { core_.set_slo(std::move(spec)); }
    const trace::SloMonitor* slo() const noexcept { return core_.slo(); }

    /// Register continuous service signals (per-shard rack-cache hits,
    /// edge-cache hits, summed retransmits) on a FabricSampler.
    void install_probes(rt::FabricSampler& sampler) const;

private:
    rt::ClusterRuntime* rt_;
    kv::KvService core_;
    std::vector<std::shared_ptr<EdgeCacheSwitchProgram>> edges_;
    std::shared_ptr<DirectorySwitchProgram> directory_;
    std::unique_ptr<DirectoryController> controller_;
    sim::NodeId directory_node_{0};
};

}  // namespace daiet::dir
