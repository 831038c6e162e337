#include "runtime/cluster.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "core/protocol.hpp"

namespace daiet::rt {

// ------------------------------------------------------------- TreePool

TreePool::TreePool(std::size_t capacity) : in_use_(capacity, false) {
    DAIET_EXPECTS(capacity > 0);
}

TreeId TreePool::acquire() {
    for (std::size_t id = 0; id < in_use_.size(); ++id) {
        if (!in_use_[id]) {
            in_use_[id] = true;
            ++leased_;
            return static_cast<TreeId>(id);
        }
    }
    throw std::runtime_error{"TreePool: all " + std::to_string(capacity()) +
                             " tree ids are leased (raise Config::max_trees or "
                             "finish a concurrent job first)"};
}

std::vector<TreeId> TreePool::acquire(std::size_t n) {
    std::vector<TreeId> ids;
    ids.reserve(n);
    try {
        for (std::size_t i = 0; i < n; ++i) ids.push_back(acquire());
    } catch (...) {
        for (const TreeId id : ids) release(id);
        throw;
    }
    return ids;
}

void TreePool::release(TreeId id) {
    DAIET_EXPECTS(id < in_use_.size());
    // A double release is a tenancy conflict (two jobs claiming one
    // tree id), not a memory-safety bug: with four tenant families
    // contending for the pool it must surface as a catchable error at
    // the offending caller, never as a silently re-leasable id.
    if (!in_use_[id]) {
        throw std::runtime_error{"TreePool: tree id " + std::to_string(id) +
                                 " released twice (or never leased)"};
    }
    in_use_[id] = false;
    --leased_;
}

// ------------------------------------------------------- ClusterRuntime

dp::SwitchConfig ClusterRuntime::switch_config_for(const Config& config,
                                                   std::size_t ports) {
    dp::SwitchConfig cfg;
    cfg.num_ports = static_cast<std::uint16_t>(ports + 2);
    // SRAM sized like the paper's estimate: ~10 MB of register state is
    // "a reasonable amount of memory for a hardware P4 switch" (§5);
    // give the chip 2 MiB of headroom for the flow tables.
    const std::size_t per_tree =
        config.register_size *
            (Key16::width + sizeof(WireValue) + sizeof(std::uint32_t)) +
        config.spillover_capacity * sizeof(KvPair) + 64;
    cfg.sram_bytes = config.max_trees * per_tree + (2u << 20);
    return cfg;
}

sim::SwitchFactory ClusterRuntime::switch_factory() {
    if (!options_.daiet) return sim::l2_switches(*net_);
    return [this](const std::string& name, std::size_t ports) -> sim::Node* {
        return &net_->add_pipeline_switch(name, switch_config_for(options_.config, ports));
    };
}

void ClusterRuntime::adopt_switches(const std::vector<sim::Node*>& tier) {
    if (!options_.daiet) return;
    for (sim::Node* node : tier) {
        auto* sw = dynamic_cast<sim::PipelineSwitchNode*>(node);
        DAIET_EXPECTS(sw != nullptr);
        daiet_switches_.push_back(sw);
    }
}

void ClusterRuntime::build_star() {
    const auto topo =
        sim::make_star(*net_, options_.num_hosts, switch_factory(), options_.link);
    hosts_ = topo.hosts;
    adopt_switches({topo.tor});
    // One rack = one shard: a star has no cut with positive lookahead,
    // so enable_parallel degrades to a plain sequential run.
    shard_of_node_.assign(net_->nodes().size(), 0);
}

void ClusterRuntime::build_leaf_spine() {
    const auto topo = sim::make_leaf_spine(*net_, options_.n_leaf, options_.n_spine,
                                           options_.num_hosts, switch_factory(),
                                           options_.link);
    hosts_ = topo.hosts;
    adopt_switches(topo.spines);
    adopt_switches(topo.leaves);
    // Shard plan: a leaf and its rack of hosts stay together (the
    // host<->leaf links are the chatty ones); spines deal round-robin
    // across the rack shards, so every shard boundary is a leaf-spine
    // link whose propagation delay funds the lookahead.
    shard_of_node_.assign(net_->nodes().size(), 0);
    for (std::size_t s = 0; s < topo.spines.size(); ++s) {
        shard_of_node_[topo.spines[s]->id()] =
            static_cast<std::uint32_t>(s % options_.n_leaf);
    }
    for (std::size_t l = 0; l < topo.leaves.size(); ++l) {
        shard_of_node_[topo.leaves[l]->id()] = static_cast<std::uint32_t>(l);
    }
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        shard_of_node_[hosts_[i]->id()] =
            static_cast<std::uint32_t>(i / topo.hosts_per_leaf);
    }
}

void ClusterRuntime::build_fat_tree() {
    const std::size_t k = options_.fat_tree_k;
    const auto topo = sim::make_fat_tree(*net_, k, options_.num_hosts, switch_factory(),
                                         options_.link);
    hosts_ = topo.hosts;
    adopt_switches(topo.cores);
    adopt_switches(topo.aggs);
    adopt_switches(topo.edges);
    // Shard plan: one pod per shard — a pod's edges, aggs and hosts
    // interconnect densely and stay together; core switches deal
    // round-robin across the pod shards. Every boundary is an agg<->core
    // link, whose propagation delay funds the lookahead.
    const std::size_t half = k / 2;
    shard_of_node_.assign(net_->nodes().size(), 0);
    for (std::size_t c = 0; c < topo.cores.size(); ++c) {
        shard_of_node_[topo.cores[c]->id()] = static_cast<std::uint32_t>(c % k);
    }
    for (std::size_t a = 0; a < topo.aggs.size(); ++a) {
        shard_of_node_[topo.aggs[a]->id()] = static_cast<std::uint32_t>(a / half);
    }
    for (std::size_t e = 0; e < topo.edges.size(); ++e) {
        shard_of_node_[topo.edges[e]->id()] = static_cast<std::uint32_t>(e / half);
    }
    for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
        shard_of_node_[topo.hosts[i]->id()] = static_cast<std::uint32_t>(
            (i % topo.edges.size()) / half);
    }
}

ClusterRuntime::ClusterRuntime(ClusterOptions options)
    : options_{options},
      net_{std::make_unique<sim::Network>(options.seed)},
      // Tree ids are switch register slots only on a DAIET fabric; on a
      // plain L2 fabric they are mere stream labels, so the whole TreeId
      // space is available (the UDP/no-agg baseline must not inherit the
      // programmable chip's limit).
      trees_{options.daiet ? options.config.max_trees
                           : std::numeric_limits<TreeId>::max()} {
    DAIET_EXPECTS(options_.num_hosts >= 1);
    switch (options_.topology) {
        case TopologyKind::kStar: build_star(); break;
        case TopologyKind::kLeafSpine: build_leaf_spine(); break;
        case TopologyKind::kFatTree: build_fat_tree(); break;
    }
    // Programs load before install_routes: the controller pushes routes
    // into program tables on programmable switches. Each chip gets a
    // tenant mux over a shared FabricRouter so that further programs
    // (kv cache, ...) can be co-resident with DAIET aggregation.
    sites_.reserve(daiet_switches_.size());
    for (auto* sw : daiet_switches_) {
        Site site;
        site.node = sw;
        site.router = std::make_shared<FabricRouter>(sw->chip().sram());
        site.mux = std::make_shared<SwitchProgramMux>(site.router);
        site.daiet = std::make_shared<DaietSwitchProgram>(options_.config,
                                                          sw->chip(), site.router);
        site.mux->add_tenant(site.daiet);
        sw->chip().load_program(site.mux);
        sites_.push_back(std::move(site));
    }
    net_->install_routes();
    if (options_.daiet) {
        controller_ = std::make_unique<Controller>(*net_, options_.config);
        for (const Site& site : sites_) {
            controller_->register_program(site.node->id(), site.daiet);
        }
    }
}

Controller& ClusterRuntime::controller() {
    DAIET_EXPECTS(controller_ != nullptr);
    return *controller_;
}

sim::Host& ClusterRuntime::host(std::size_t i) const {
    DAIET_EXPECTS(i < hosts_.size());
    return *hosts_[i];
}

DaietSwitchProgram* ClusterRuntime::program_at(sim::NodeId node) const {
    const Site* site = find_site(node);
    return site == nullptr ? nullptr : site->daiet.get();
}

const ClusterRuntime::Site* ClusterRuntime::find_site(sim::NodeId node) const noexcept {
    for (const Site& site : sites_) {
        if (site.node->id() == node) return &site;
    }
    return nullptr;
}

const ClusterRuntime::Site& ClusterRuntime::site_at(sim::NodeId node) const {
    const Site* site = find_site(node);
    if (site == nullptr) {
        throw std::runtime_error{"ClusterRuntime: node " + std::to_string(node) +
                                 " is not a programmable switch"};
    }
    return *site;
}

void ClusterRuntime::add_tenant(sim::NodeId node,
                                std::shared_ptr<TenantProgram> tenant) {
    site_at(node).mux->add_tenant(std::move(tenant));
}

std::shared_ptr<FabricRouter> ClusterRuntime::router_at(sim::NodeId node) const {
    return site_at(node).router;
}

dp::PipelineSwitch& ClusterRuntime::chip_at(sim::NodeId node) const {
    return site_at(node).node->chip();
}

TenantProgram* ClusterRuntime::tenant_at(sim::NodeId node,
                                         std::string_view name) const {
    const Site* site = find_site(node);
    return site == nullptr ? nullptr : site->mux->tenant(name);
}

const SwitchProgramMux* ClusterRuntime::mux_at(sim::NodeId node) const noexcept {
    const Site* site = find_site(node);
    return site == nullptr ? nullptr : site->mux.get();
}

std::uint64_t ClusterRuntime::total_recirculations() const {
    std::uint64_t total = 0;
    for (const auto* sw : daiet_switches_) {
        total += sw->chip().stats().recirculations;
    }
    return total;
}

std::size_t ClusterRuntime::max_switch_sram_used() const {
    std::size_t used = 0;
    for (const auto* sw : daiet_switches_) {
        used = std::max(used, sw->chip().sram().used_bytes());
    }
    return used;
}

}  // namespace daiet::rt
