#include "netsim/network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"

namespace daiet::sim {

namespace {

/// Installs shortest-path routes toward any number of destinations on
/// one fabric: the adjacency and the nodes that take routes are found
/// once, and every destination's BFS reuses the same buffers, so past
/// the first a destination costs no allocation and no node-type test.
class RouteInstaller {
public:
    RouteInstaller(const std::vector<std::unique_ptr<Node>>& nodes,
                   const std::vector<std::unique_ptr<Link>>& links)
        : adjacency_(nodes.size()), dist_(nodes.size()) {
        for (const auto& link : links) {
            Node& a = link->peer_of(1);  // side 1's peer is a
            Node& b = link->peer_of(0);
            adjacency_[a.id()].emplace_back(link->peer_port(1), b.id());
            adjacency_[b.id()].emplace_back(link->peer_port(0), a.id());
        }
        for (const auto& node : nodes) {
            if (RouteSink* sink = node->route_sink()) takers_.emplace_back(node->id(), sink);
        }
    }

    /// BFS from `target`, then give every route taker but the target the
    /// ports of its neighbours one hop closer as its routes to `addr`.
    void install_toward(NodeId target, HostAddr addr) {
        std::fill(dist_.begin(), dist_.end(), kUnreached);
        queue_.clear();
        dist_[target] = 0;
        queue_.push_back(target);
        for (std::size_t head = 0; head < queue_.size(); ++head) {
            const NodeId u = queue_[head];
            for (const auto& [port, peer] : adjacency_[u]) {
                if (dist_[peer] == kUnreached) {
                    dist_[peer] = dist_[u] + 1;
                    queue_.push_back(peer);
                }
            }
        }
        for (const auto& [id, sink] : takers_) {
            if (dist_[id] == kUnreached || id == target) continue;
            hops_.clear();
            for (const auto& [port, peer] : adjacency_[id]) {
                if (dist_[peer] + 1 == dist_[id]) hops_.push_back(port);
            }
            if (!hops_.empty()) sink->install_route(addr, hops_);
        }
    }

private:
    static constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();

    /// Per node: (local port, neighbour) for each link, in port order.
    std::vector<std::vector<std::pair<PortId, NodeId>>> adjacency_;
    std::vector<std::pair<NodeId, RouteSink*>> takers_;  ///< in node-id order
    std::vector<std::uint32_t> dist_;
    std::vector<NodeId> queue_;
    std::vector<PortId> hops_;
};

}  // namespace

Host& Network::add_host(std::string name) {
    const auto id = static_cast<NodeId>(nodes_.size());
    const auto addr = static_cast<HostAddr>(hosts_.size() + 1);
    auto host = std::make_unique<Host>(sim_, id, std::move(name), addr);
    auto& ref = *host;
    nodes_.push_back(std::move(host));
    hosts_.push_back(&ref);
    return ref;
}

L2Switch& Network::add_l2_switch(std::string name) {
    const auto id = static_cast<NodeId>(nodes_.size());
    auto sw = std::make_unique<L2Switch>(sim_, id, std::move(name));
    auto& ref = *sw;
    nodes_.push_back(std::move(sw));
    return ref;
}

PipelineSwitchNode& Network::add_pipeline_switch(std::string name,
                                                 dp::SwitchConfig config) {
    const auto id = static_cast<NodeId>(nodes_.size());
    auto sw = std::make_unique<PipelineSwitchNode>(sim_, id, std::move(name), config);
    auto& ref = *sw;
    nodes_.push_back(std::move(sw));
    return ref;
}

Link& Network::connect(Node& a, Node& b, LinkParams params) {
    auto link = std::make_unique<Link>(sim_, a, b, params,
                                       seed_ ^ (links_.size() * 0x9e3779b97f4a7c15ULL));
    auto& ref = *link;
    links_.push_back(std::move(link));
    return ref;
}

void Network::enable_parallel(const std::vector<std::uint32_t>& shard_of_node,
                              std::size_t threads) {
    DAIET_EXPECTS(par_ == nullptr);
    DAIET_EXPECTS(shard_of_node.size() == nodes_.size());
    DAIET_EXPECTS(sim_.idle());  // partition before any traffic flows
    std::uint32_t max_shard = 0;
    for (const std::uint32_t s : shard_of_node) max_shard = std::max(max_shard, s);
    const std::size_t n_shards = static_cast<std::size_t>(max_shard) + 1;
    if (n_shards == 1 && nodes_.empty()) return;

    par_ = std::make_unique<ShardedSimulator>(&sim_, n_shards, threads);
    for (const auto& node : nodes_) {
        node->rebind_simulator(par_->shard(shard_of_node[node->id()]));
    }
    // Every link direction is owned by its sender's shard; a direction
    // whose ends straddle shards gets a mailbox, and the minimum
    // boundary propagation delay becomes the conservative lookahead.
    SimTime lookahead = Simulator::kNever;
    bool any_boundary = false;
    for (const auto& link : links_) {
        const std::uint32_t sa = shard_of_node[link->end_of(0).id()];
        const std::uint32_t sb = shard_of_node[link->end_of(1).id()];
        if (sa == sb) {
            link->bind_parallel(par_->shard(sa), par_->shard(sa), nullptr,
                                nullptr);
            continue;
        }
        any_boundary = true;
        lookahead = std::min(lookahead, link->params().propagation_delay);
        link->bind_parallel(par_->shard(sa), par_->shard(sb),
                            &par_->mailbox(sa, sb), &par_->mailbox(sb, sa));
    }
    // A zero-latency boundary link admits no conservative window: the
    // partition must keep such links inside one shard.
    DAIET_EXPECTS(!any_boundary || lookahead > 0);
    par_->set_lookahead(lookahead);
}

Host* Network::host_by_addr(HostAddr addr) noexcept {
    if (addr == 0 || addr > hosts_.size()) return nullptr;
    return hosts_[addr - 1];
}

void Network::install_routes() {
    RouteInstaller routes{nodes_, links_};
    for (Host* dst : hosts_) routes.install_toward(dst->id(), dst->addr());
}

void Network::install_switch_addresses(
    const std::vector<std::pair<const Node*, HostAddr>>& targets) {
    RouteInstaller routes{nodes_, links_};
    for (const auto& [target, vaddr] : targets) {
        DAIET_EXPECTS(target != nullptr);
        // Both conflicts are deployment errors (two services fighting
        // over one address space), not programming errors: surface them
        // as catchable exceptions so a mis-deployed tenant fails its
        // setup instead of silently hijacking traffic.
        if (host_by_addr(vaddr) != nullptr) {
            throw std::runtime_error{
                "Network: switch vaddr " + std::to_string(vaddr) +
                " shadows the address of host '" + host_by_addr(vaddr)->name() +
                "'"};
        }
        const auto [it, inserted] = switch_vaddrs_.emplace(vaddr, target->id());
        if (!inserted && it->second != target->id()) {
            throw std::runtime_error{
                "Network: switch vaddr " + std::to_string(vaddr) +
                " is already registered to node " + std::to_string(it->second) +
                " (cannot re-point it at node " + std::to_string(target->id()) +
                ")"};
        }
        routes.install_toward(target->id(), vaddr);
    }
}

Node* Network::edge_switch_of(const Host& host) const noexcept {
    for (const auto& link : links_) {
        // Link endpoints: peer_of(1) is side a, peer_of(0) is side b.
        Node& a = link->peer_of(1);
        Node& b = link->peer_of(0);
        if (&a == &host) return &b;
        if (&b == &host) return &a;
    }
    return nullptr;
}

StarTopology make_star(Network& net, std::size_t n_hosts,
                       const SwitchFactory& add_switch, LinkParams params) {
    StarTopology topo;
    topo.tor = add_switch("tor", n_hosts);
    for (std::size_t i = 0; i < n_hosts; ++i) {
        auto& h = net.add_host("h" + std::to_string(i));
        net.connect(h, *topo.tor, params);
        topo.hosts.push_back(&h);
    }
    return topo;
}

LeafSpineTopology make_leaf_spine(Network& net, std::size_t n_leaf, std::size_t n_spine,
                                  std::size_t n_hosts, const SwitchFactory& add_switch,
                                  LinkParams params) {
    DAIET_EXPECTS(n_leaf > 0 && n_spine > 0);
    LeafSpineTopology topo;
    topo.hosts_per_leaf = (n_hosts + n_leaf - 1) / n_leaf;
    for (std::size_t s = 0; s < n_spine; ++s) {
        topo.spines.push_back(add_switch("spine" + std::to_string(s), n_leaf));
    }
    for (std::size_t l = 0; l < n_leaf; ++l) {
        Node* leaf =
            add_switch("leaf" + std::to_string(l), topo.hosts_per_leaf + n_spine);
        for (Node* spine : topo.spines) net.connect(*leaf, *spine, params);
        topo.leaves.push_back(leaf);
    }
    // Consecutive fill: the rack-locality layout the paper's Figure 2
    // trees aggregate over.
    for (std::size_t i = 0; i < n_hosts; ++i) {
        auto& h = net.add_host("h" + std::to_string(i));
        net.connect(h, *topo.leaves[i / topo.hosts_per_leaf], params);
        topo.hosts.push_back(&h);
    }
    return topo;
}

FatTreeTopology make_fat_tree(Network& net, std::size_t k, std::size_t n_hosts,
                              const SwitchFactory& add_switch, LinkParams params) {
    DAIET_EXPECTS(k >= 2 && k % 2 == 0);
    if (n_hosts > FatTreeTopology::capacity(k)) {
        throw std::runtime_error{
            "make_fat_tree: " + std::to_string(n_hosts) +
            " hosts exceed fat-tree capacity k^3/4 = " +
            std::to_string(FatTreeTopology::capacity(k))};
    }
    const std::size_t half = k / 2;
    FatTreeTopology topo;
    // Every fat-tree switch has k ports: k/2 down and k/2 up (cores: k down).
    for (std::size_t c = 0; c < half * half; ++c) {
        topo.cores.push_back(add_switch("core" + std::to_string(c), k));
    }
    for (std::size_t p = 0; p < k; ++p) {
        for (std::size_t a = 0; a < half; ++a) {
            Node* agg =
                add_switch("agg" + std::to_string(p) + "_" + std::to_string(a), k);
            topo.aggs.push_back(agg);
            // Aggregation switch a of every pod uplinks to the a-th
            // group of k/2 core switches.
            for (std::size_t c = 0; c < half; ++c) {
                net.connect(*agg, *topo.cores[a * half + c], params);
            }
        }
        for (std::size_t e = 0; e < half; ++e) {
            Node* edge =
                add_switch("edge" + std::to_string(p) + "_" + std::to_string(e), k);
            topo.edges.push_back(edge);
            for (std::size_t a = 0; a < half; ++a) {
                net.connect(*edge, *topo.aggs[p * half + a], params);
            }
        }
    }
    for (std::size_t i = 0; i < n_hosts; ++i) {
        auto& host = net.add_host("host" + std::to_string(i));
        net.connect(host, *topo.edges[i % topo.edges.size()], params);
        topo.hosts.push_back(&host);
    }
    return topo;
}

}  // namespace daiet::sim
