#include "directory/sharded_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/contracts.hpp"
#include "runtime/sampler.hpp"
#include "trace/metrics.hpp"

namespace daiet::dir {
namespace {

void refuse_parallel(rt::ClusterRuntime& rt) {
    if (rt.network().parallel() != nullptr) {
        throw std::runtime_error{
            "ShardedKvService: refuses the parallel driver — it and its "
            "DirectoryController schedule through rt.simulator() (shard 0), "
            "and those events mutate directory and edge tenants on other shards"};
    }
}

/// The fabric checks that must pass before the core builds any rack.
rt::ClusterRuntime& supported_fabric(rt::ClusterRuntime& rt) {
    refuse_parallel(rt);
    if (!rt.daiet_enabled()) {
        throw std::runtime_error{
            "ShardedKvService: the directory tenant needs programmable "
            "switches (build the cluster with daiet=true)"};
    }
    return rt;
}

}  // namespace

ShardedKvService::ShardedKvService(rt::ClusterRuntime& rt, ShardedKvOptions options)
    : rt_{&rt},
      core_{supported_fabric(rt),
            "shardedkv",
            options.config,
            options.server_hosts,
            options.client_hosts,
            kServiceVaddr,
            [this](const Key16& key) {
                const int shard =
                    controller_->shard_of(range_of_key(key, directory_->num_ranges()));
                DAIET_EXPECTS(shard >= 0);  // never preload mid-migration
                return static_cast<std::size_t>(shard);
            }} {
    sim::Network& net = rt.network();

    // --- the directory switch -----------------------------------------------
    // The first programmable switch that is no host's edge (a spine): the
    // directory must sit above the edges, both so edge misses can still
    // reach it (a mux tenant that declines ends the claim pass) and so
    // rewritten requests can still cross the rack ToR cache.
    std::unordered_set<sim::NodeId> edge_nodes;
    for (sim::Host* host : rt.hosts()) {
        if (sim::Node* e = net.edge_switch_of(*host)) edge_nodes.insert(e->id());
    }
    const auto& switches = rt.daiet_switches();
    const auto it = std::find_if(
        switches.begin(), switches.end(),
        [&](const auto* sw) { return !edge_nodes.contains(sw->id()); });
    if (it == switches.end()) {
        throw std::runtime_error{
            "ShardedKvService: no programmable switch above the edges — "
            "the directory needs a multi-tier fabric (leaf-spine or "
            "fat-tree)"};
    }
    directory_node_ = (*it)->id();
    directory_ = std::make_shared<DirectorySwitchProgram>(rt.chip_at(directory_node_),
                                                          rt.router_at(directory_node_));
    rt.add_tenant(directory_node_, directory_);
    net.install_switch_address(**it, kServiceVaddr);

    // --- edge reply caches --------------------------------------------------
    std::vector<std::pair<const sim::Node*, sim::HostAddr>> edge_vaddrs;
    if (options.edge.slots > 0) {
        std::unordered_map<sim::NodeId, EdgeCacheSwitchProgram*> by_node;
        for (const std::size_t i : core_.client_hosts_) {
            sim::Host& host = rt.host(i);
            sim::Node* edge = net.edge_switch_of(host);
            auto* sw = dynamic_cast<sim::PipelineSwitchNode*>(edge);
            if (sw == nullptr || sw->id() == directory_node_) {
                // No cache below this client: an unprogrammable ToR, or
                // one that IS the directory (a declined claim would end
                // the pass before steering).
                continue;
            }
            auto at = by_node.find(sw->id());
            if (at == by_node.end()) {
                auto program = std::make_shared<EdgeCacheSwitchProgram>(
                    options.edge, *sw, rt.chip_at(sw->id()), rt.router_at(sw->id()));
                rt.add_tenant(sw->id(), program);
                at = by_node.emplace(sw->id(), program.get()).first;
                edges_.push_back(std::move(program));
                edge_vaddrs.emplace_back(sw, edge_vaddr(sw->id()));
            }
            at->second->add_client(host.addr());
        }
    }
    if (!edge_vaddrs.empty()) {
        net.install_switch_addresses(edge_vaddrs);
        // Hand the directory a preresolved egress port per edge (read
        // off the shared router out of band): broadcasting then costs
        // no second routing-table application in the dataplane.
        const auto router = rt.router_at(directory_node_);
        for (const auto& edge : edges_) {
            const RoutePorts* route = router->peek(edge->vaddr());
            DAIET_ASSERT(route != nullptr && route->count > 0);
            directory_->add_edge(edge->vaddr(), route->ports[0]);
        }
    }

    // --- the control plane --------------------------------------------------
    std::vector<DirectoryController::Shard> shards;
    for (std::size_t s = 0; s < core_.num_racks(); ++s) {
        shards.push_back({core_.server(s).addr(), &core_.server(s)});
    }
    std::vector<EdgeCacheSwitchProgram*> edge_ptrs;
    for (const auto& e : edges_) edge_ptrs.push_back(e.get());
    controller_ = std::make_unique<DirectoryController>(
        rt.simulator(), *directory_, std::move(shards), std::move(edge_ptrs));
    controller_->assign_all();
}

EdgeCacheSwitchProgram& ShardedKvService::edge(std::size_t i) {
    DAIET_EXPECTS(i < edges_.size());
    return *edges_[i];
}

void ShardedKvService::schedule(const kv::KvWorkload& workload) {
    refuse_parallel(*rt_);
    core_.schedule(workload);
}

void ShardedKvService::schedule_rebalances(
    sim::SimTime interval, sim::SimTime horizon,
    DirectoryController::HotKeySource source) {
    refuse_parallel(*rt_);
    DAIET_EXPECTS(interval > 0);
    sim::Simulator& sim = rt_->simulator();
    for (sim::SimTime at = interval; at <= horizon; at += interval) {
        sim.schedule_at(at, [this, source] { controller_->rebalance(source); });
    }
}

ShardedKvRunStats ShardedKvService::collect() const {
    ShardedKvRunStats out;
    static_cast<kv::KvRunStats&>(out) = core_.collect();
    out.directory = directory_->stats();
    for (const auto& edge : edges_) {
        const EdgeCacheStats& e = edge->stats();
        out.edges.gets_seen += e.gets_seen;
        out.edges.hits += e.hits;
        out.edges.misses += e.misses;
        out.edges.expired += e.expired;
        out.edges.replies_seen += e.replies_seen;
        out.edges.cached += e.cached;
        out.edges.stale_refused += e.stale_refused;
        out.edges.invalidations += e.invalidations;
        out.edges.duplicate_invalidations += e.duplicate_invalidations;
        out.edges.revocations += e.revocations;
    }
    out.control = controller_->stats();

    auto& reg = trace::metrics();
    reg.counter("shardedkv.gets_steered", "shardedkv", "directory")
        .set(out.directory.gets_steered);
    reg.counter("shardedkv.puts_steered", "shardedkv", "directory")
        .set(out.directory.puts_steered);
    reg.counter("shardedkv.invalidations_sent", "shardedkv", "directory")
        .set(out.directory.invalidations_sent);
    return out;
}

void ShardedKvService::install_probes(rt::FabricSampler& sampler) const {
    for (std::size_t s = 0; s < core_.num_racks(); ++s) {
        const kv::KvCacheSwitchProgram* cache = core_.cache(s);
        if (cache == nullptr) continue;
        sampler.add_probe("shardedkv.rack_hits", "shard" + std::to_string(s),
                          [cache] { return static_cast<double>(cache->stats().hits); });
    }
    const auto* edges = &edges_;
    sampler.add_probe("shardedkv.edge_hits", "edges", [edges] {
        std::uint64_t n = 0;
        for (const auto& e : *edges) n += e->stats().hits;
        return static_cast<double>(n);
    });
    core_.add_client_probe(sampler, "retransmits", &transport::RetryStats::retransmits);
}

ShardedKvRunStats ShardedKvService::run(const kv::KvWorkload& workload) {
    schedule(workload);
    rt_->run();
    return collect();
}

}  // namespace daiet::dir
