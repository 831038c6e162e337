// KvService: the kv deployment core on a ClusterRuntime fabric.
//
// Wires the pieces together the way JobDriver does for aggregation
// jobs: N >= 1 storage racks, each a KvStoreServer host, a KvClient on
// every other (chosen) host, and — unless config.cache_slots is 0 — a
// KvCacheSwitchProgram per rack, attached through the runtime's
// switch-program registry to the server's edge switch (the one switch
// every request to that rack crosses, which is what makes
// invalidate-on-PUT coherent; NetCache places its cache at the storage
// rack's ToR for the same reason). The cache tenant shares the chip's
// SramBook and FabricRouter with the resident DAIET program, so a kv
// workload and an aggregation job are co-tenants of one fabric.
//
// The public constructor builds one rack. The sharded deployment
// (directory/sharded_service.hpp) builds N racks through the private
// one and adds only its directory, edge caches and range controller;
// clients, stats, metrics, SLO, probes and scheduling live here once.
//
// The built-in workload generator issues an open-loop stream of GETs
// and PUTs per client with Zipf-distributed key popularity, and
// schedules periodic rack-cache promotion passes — enough to reproduce
// the cache's hit-rate and latency story and to drive the coexistence
// tests and benches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kvcache/controller.hpp"
#include "kvcache/store.hpp"
#include "kvcache/switch_program.hpp"
#include "runtime/cluster.hpp"
#include "trace/slo.hpp"

namespace daiet::rt {
class FabricSampler;
}  // namespace daiet::rt

namespace daiet::dir {
class ShardedKvService;
}  // namespace daiet::dir

namespace daiet::kv {

struct KvServiceOptions {
    KvConfig config{};
    /// Index (into ClusterRuntime::hosts()) of the storage server.
    std::size_t server_host{0};
    /// Client host indices; empty = every host except the server.
    std::vector<std::size_t> client_hosts;
};

/// Distinct clients start their request streams this far apart.
inline constexpr sim::SimTime kClientStagger = 500 * sim::kNanosecond;

struct KvWorkload {
    std::size_t num_keys{1024};
    /// Zipf skew of key popularity; <= 0 samples uniformly.
    double zipf_s{0.99};
    std::size_t requests_per_client{400};
    /// Fraction of requests that are GETs (the rest are PUTs).
    double get_fraction{1.0};
    /// true: each client reads and writes only its own slice of the
    /// key space (single writer per key) — exact value determinism
    /// under any interleaving, which the parity tests rely on.
    bool partition_keys{false};
    sim::SimTime start{0};
    sim::SimTime request_interval{2 * sim::kMicrosecond};
    /// Controller rebalance cadence; 0 = never rebalance.
    sim::SimTime rebalance_interval{100 * sim::kMicrosecond};
    /// Hot-set drift: every `hotset_rotate_every` requests (per client)
    /// the Zipf rank->key mapping shifts by `hotset_rotate_by` ranks, so
    /// yesterday's head of the distribution goes cold and a fresh slice
    /// becomes hot. 0 = stationary popularity. The stress test for
    /// promotion agility (EWMA inertia vs sketch-driven detection).
    std::size_t hotset_rotate_every{0};
    std::size_t hotset_rotate_by{0};
    std::uint64_t seed{7};
};

/// One scheduled client operation, precomputed so scheduling order can
/// never affect the op sequence.
struct KvOpSpec {
    bool is_get{true};
    Key16 key{};
    WireValue value{0};
    sim::SimTime at{0};
};

/// The deterministic request stream client `ci` (of `n_clients`) issues
/// under `workload` — the single source of truth for every deployment
/// and for custom (closed-loop) drivers, which is what makes "sharded
/// run == unsharded reference" a meaningful parity check: both runs
/// replay byte-identical per-client op sequences.
std::vector<KvOpSpec> client_op_stream(const KvWorkload& workload, std::size_t ci,
                                       std::size_t n_clients);

/// Fabric-wide results of one workload run, summed over clients and
/// racks.
struct KvRunStats {
    std::uint64_t gets_sent{0};
    std::uint64_t puts_sent{0};
    std::uint64_t get_replies{0};
    std::uint64_t put_acks{0};
    std::uint64_t switch_hits{0};  ///< rack + edge hits
    /// Subset of switch_hits served at client-side edge caches, and the
    /// directory NACKs (plus their immediate retries) of requests that
    /// raced a range migration; zero without a directory.
    std::uint64_t edge_hits{0};
    std::uint64_t nacks{0};
    std::uint64_t nack_retries{0};
    std::uint64_t server_gets{0};
    std::uint64_t server_puts{0};
    /// Loss-recovery traffic (transport/request_reply.hpp): wire-level
    /// retransmissions, suppressed duplicate replies, requests dropped
    /// after the attempt budget, and server-side replay answers.
    std::uint64_t retransmits{0};
    std::uint64_t duplicate_replies{0};
    std::uint64_t abandoned{0};
    std::uint64_t server_duplicates{0};
    /// ECN control loop: marks fed to the clients' retry channels and
    /// the RTO expiries those channels postponed in response.
    std::uint64_t congestion_marks{0};
    std::uint64_t ecn_backoffs{0};
    double mean_get_ns{0};
    double p50_get_ns{0};
    double p99_get_ns{0};
    double mean_put_ns{0};
    /// Arrival time of the last completed request (throughput's
    /// denominator: completed / (last_completion - workload start)).
    sim::SimTime last_completion{0};
    KvCacheStats cache;  ///< summed over rack caches; zeroes without any
    std::uint64_t promotions{0};
    std::uint64_t evictions{0};
    std::uint64_t rebalances{0};

    std::uint64_t completed() const noexcept { return get_replies + put_acks; }
    double hit_rate() const noexcept {
        return get_replies == 0 ? 0.0
                                : static_cast<double>(switch_hits) /
                                      static_cast<double>(get_replies);
    }
};

class KvService {
public:
    /// One storage rack on options.server_host.
    KvService(rt::ClusterRuntime& rt, KvServiceOptions options = {});

    KvService(const KvService&) = delete;
    KvService& operator=(const KvService&) = delete;

    std::size_t num_racks() const noexcept { return racks_.size(); }
    KvStoreServer& server(std::size_t rack = 0) { return *at(rack).server; }
    std::size_t num_clients() const noexcept { return clients_.size(); }
    KvClient& client(std::size_t i);
    /// The rack's cache tenant and its controller; nullptr when
    /// config.cache_slots is 0.
    KvCacheSwitchProgram* cache(std::size_t rack = 0) const { return at(rack).cache.get(); }
    KvCacheController* controller(std::size_t rack = 0) const {
        return at(rack).controller.get();
    }
    /// The switch hosting the rack's cache tenant (its server's edge
    /// switch); 0 when config.cache_slots is 0.
    sim::NodeId cache_node(std::size_t rack = 0) const {
        return at(rack).tor != nullptr ? at(rack).tor->id() : 0;
    }

    /// The deterministic key/value universe the workload draws from.
    static Key16 key_of(std::size_t i) { return Key16::from_u64(i + 1); }
    static WireValue preload_value_of(std::size_t i) {
        return static_cast<WireValue>(0x9000u + i);
    }

    /// Control-plane preload of keys 0..n-1 into their owning racks
    /// (no traffic).
    void preload(std::size_t num_keys);

    /// Schedule the workload's request streams and promotion passes
    /// (run with rt.run(), possibly interleaved with other jobs'
    /// traffic). The one scheduling rule: each client's ops go on its
    /// own host's simulator, the promotion passes on the first rack
    /// server's host's simulator.
    void schedule(const KvWorkload& workload);

    /// One promotion pass over every rack's cache controller — what
    /// schedule() runs periodically; exposed for custom (closed-loop)
    /// workload drivers.
    void rebalance_racks();

    /// Aggregate client/server/switch stats after a run and publish
    /// them into the metrics registry as "<service>.*".
    KvRunStats collect() const;

    /// schedule + run + collect, for the simple single-job case.
    KvRunStats run(const KvWorkload& workload);

    /// Declare objectives; collect() then rebuilds the SLO monitor from
    /// the clients' request logs (each completed reply is a success at
    /// its completion time, each abandoned request a failure) and
    /// publishes the SLIs. Empty spec.service defaults to the service
    /// name ("kv").
    void set_slo(trace::SloSpec spec);
    /// The monitor built by the last collect(); nullptr before then or
    /// when no spec was set.
    const trace::SloMonitor* slo() const noexcept { return slo_.get(); }

    /// Register continuous service signals (cache hits/misses per rack,
    /// summed client retransmits and abandons) on a FabricSampler.
    void install_probes(rt::FabricSampler& sampler) const;

private:
    friend class dir::ShardedKvService;

    /// Which rack stores a key.
    using RackOf = std::function<std::size_t(const Key16&)>;

    /// The N-rack core: one KvStoreServer per `server_hosts` entry, each
    /// fronted by a ToR cache unless config.cache_slots is 0, then one
    /// client per `client_hosts` entry (empty = every host that is not
    /// a server) sending to `client_target`. `name` prefixes the published
    /// metrics and probes and is the default SLO service.
    KvService(rt::ClusterRuntime& rt, std::string name, const KvConfig& config,
              const std::vector<std::size_t>& server_hosts,
              std::vector<std::size_t> client_hosts, sim::HostAddr client_target,
              RackOf rack_of);

    /// A "<service>.<stat>" track at node "kv-clients": the named retry
    /// transport counter summed over every client.
    void add_client_probe(rt::FabricSampler& sampler, const char* stat,
                          std::uint64_t transport::RetryStats::*field) const;

    struct Rack {
        std::size_t host{0};  ///< index into ClusterRuntime::hosts()
        std::unique_ptr<KvStoreServer> server;
        std::shared_ptr<KvCacheSwitchProgram> cache;
        std::unique_ptr<KvCacheController> controller;
        const sim::PipelineSwitchNode* tor{nullptr};  ///< the cache's switch
    };
    const Rack& at(std::size_t rack) const;

    rt::ClusterRuntime* rt_;
    std::string name_;
    RackOf rack_of_;
    std::vector<Rack> racks_;
    std::vector<std::size_t> client_hosts_;
    std::vector<std::unique_ptr<KvClient>> clients_;
    std::optional<trace::SloSpec> slo_spec_;
    mutable std::unique_ptr<trace::SloMonitor> slo_;  ///< rebuilt by collect()
};

}  // namespace daiet::kv
