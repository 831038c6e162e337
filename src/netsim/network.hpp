// Network: the container that owns the simulator, all nodes and links,
// and computes shortest-path (ECMP-aware) routing.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataplane/pipeline_switch.hpp"
#include "netsim/host.hpp"
#include "netsim/link.hpp"
#include "netsim/parallel.hpp"
#include "netsim/simulator.hpp"
#include "netsim/switch_node.hpp"

namespace daiet::sim {

class Network {
public:
    explicit Network(std::uint64_t seed = 1) : seed_{seed} {}

    // Nodes and links hold pointers into this object (the simulator and
    // each other); it must never move.
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;
    Network(Network&&) = delete;
    Network& operator=(Network&&) = delete;

    Simulator& simulator() noexcept { return sim_; }

    Host& add_host(std::string name);
    L2Switch& add_l2_switch(std::string name);
    PipelineSwitchNode& add_pipeline_switch(std::string name, dp::SwitchConfig config);

    Link& connect(Node& a, Node& b, LinkParams params = {});

    /// Compute BFS shortest paths from every host and install ECMP
    /// next-hop sets on every node with a route_sink(). Call after
    /// topology construction (and after pipeline switches have their
    /// programs loaded, since routes are pushed into program tables).
    void install_routes();

    /// Make a *switch* addressable: install ECMP routes for a virtual
    /// address terminating at `target` on every other switch, so hosts
    /// can send control-plane datagrams (telemetry probes, directory
    /// lease invalidations) to a chip. The target itself gets no route —
    /// a resident program is expected to consume the traffic (a vaddr no
    /// program claims is simply dropped at the target, never delivered).
    /// Callable any time after install_routes(). Throws
    /// std::runtime_error when `vaddr` shadows a real host address or is
    /// already registered to a *different* node (re-registering the same
    /// (node, vaddr) pair reinstalls its routes and is fine — services
    /// are re-deployed, fabrics are not).
    void install_switch_address(const Node& target, HostAddr vaddr) {
        install_switch_addresses({{&target, vaddr}});
    }

    /// Batch form: one adjacency build for the whole set (the
    /// TelemetryService instruments every programmable switch at once).
    void install_switch_addresses(
        const std::vector<std::pair<const Node*, HostAddr>>& targets);

    /// The switch a single-homed host hangs off (its ToR): hosts have
    /// exactly one link, the far end is the edge switch. nullptr for an
    /// unconnected host.
    Node* edge_switch_of(const Host& host) const noexcept;

    Host* host_by_addr(HostAddr addr) noexcept;
    const std::vector<Host*>& hosts() const noexcept { return hosts_; }
    const std::vector<std::unique_ptr<Node>>& nodes() const noexcept { return nodes_; }
    const std::vector<std::unique_ptr<Link>>& links() const noexcept { return links_; }

    /// Partition the fabric for parallel execution: `shard_of_node[id]`
    /// names each node's shard (dense ids, topology-aware — the
    /// ClusterRuntime builders keep a rack's hosts with their ToR), and
    /// up to `threads` workers drive the shards through conservative
    /// time windows (netsim/parallel.hpp). Call once, after the full
    /// topology is built and before any traffic is scheduled; the
    /// topology must not be mutated afterwards. Requires every
    /// shard-boundary link to have a positive propagation delay — that
    /// latency is the lookahead the windows are carved from.
    void enable_parallel(const std::vector<std::uint32_t>& shard_of_node,
                         std::size_t threads);

    /// The parallel driver, or nullptr when enable_parallel was never
    /// called (or collapsed to a single shard).
    ShardedSimulator* parallel() noexcept { return par_.get(); }

    /// Run the simulation to quiescence.
    SimTime run() { return par_ ? par_->run() : sim_.run(); }

    /// The fabric-wide clock: with a parallel partition the max over
    /// shard clocks (bit-identical to a sequential run's final time),
    /// otherwise the primary simulator's.
    SimTime now() const noexcept { return par_ ? par_->now() : sim_.now(); }

    /// Boxed-action count summed over every shard queue (the bench's
    /// zero-steady-state-allocations gate).
    std::uint64_t actions_heap_allocated() const noexcept {
        return par_ ? par_->actions_heap_allocated()
                    : sim_.actions_heap_allocated();
    }

    /// Executed-event count summed over every shard queue. Comparable
    /// across thread counts of one partition (the shard count, and with
    /// it the event graph, is fixed by the partition — not the thread
    /// count), but not to an unpartitioned run: each shard-boundary
    /// delivery is one extra bookkeeping event on the sender's shard.
    std::uint64_t events_executed() const noexcept {
        return par_ ? par_->events_executed() : sim_.events_executed();
    }

private:
    Simulator sim_;
    std::unique_ptr<ShardedSimulator> par_;
    std::uint64_t seed_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<Link>> links_;
    std::vector<Host*> hosts_;  // addr -> host (addr = index + 1)
    std::unordered_map<HostAddr, NodeId> switch_vaddrs_;  // registered vaddrs
};

/// Builds one switch of a fabric: `ports` is the most links the builder
/// will attach to it. A DAIET fabric sizes a programmable chip from it;
/// `l2_switches` ignores it.
using SwitchFactory = std::function<Node*(const std::string& name, std::size_t ports)>;

/// The factory of a plain L2 fabric (the paper's baselines).
inline SwitchFactory l2_switches(Network& net) {
    return [&net](const std::string& name, std::size_t) -> Node* {
        return &net.add_l2_switch(name);
    };
}

// One builder per topology shape. Each creates its switches through the
// factory, then its hosts; node ids, port numbers and link order follow
// from the creation order documented on each builder.

/// A star ("rack") topology: every host hangs off one switch — the
/// physical shape of the paper's Figure 3 testbed. Creates "tor", then
/// hosts "h<i>", each linked host-first to the next free tor port.
struct StarTopology {
    Node* tor{nullptr};
    std::vector<Host*> hosts;
};

StarTopology make_star(Network& net, std::size_t n_hosts,
                       const SwitchFactory& add_switch, LinkParams params = {});

/// Two-tier leaf-spine fabric: `n_leaf` leaf switches fully meshed to
/// `n_spine` spine switches. Models the multi-level aggregation trees of
/// the paper's Figure 2. Creates the spines, then each leaf with its
/// links to every spine, then hosts "h<i>", filled consecutively:
/// ceil(n_hosts / n_leaf) per leaf, so the last racks may be short or
/// empty.
struct LeafSpineTopology {
    std::vector<Node*> leaves;
    std::vector<Node*> spines;
    std::vector<Host*> hosts;  ///< hosts[i] hangs off leaves[i / hosts_per_leaf]
    std::size_t hosts_per_leaf{0};
};

LeafSpineTopology make_leaf_spine(Network& net, std::size_t n_leaf, std::size_t n_spine,
                                  std::size_t n_hosts, const SwitchFactory& add_switch,
                                  LinkParams params = {});

/// Three-tier k-ary fat-tree (Al-Fares et al.): k pods, each with k/2
/// edge and k/2 aggregation switches, and (k/2)^2 core switches. Every
/// edge switch serves up to k/2 hosts, for a full complement of k^3/4.
/// The deepest aggregation trees a DAIET deployment can build — five
/// switch hops between hosts in different pods. Creates the cores, then
/// pod by pod the aggs (each with its core uplinks) and the edges (each
/// with its agg uplinks), then hosts "host<i>" dealt round-robin across
/// the edges, so a partial fabric keeps every pod populated.
struct FatTreeTopology {
    std::vector<Node*> cores;  ///< (k/2)^2 switches
    std::vector<Node*> aggs;   ///< pod-major: pod p owns [p*k/2, (p+1)*k/2)
    std::vector<Node*> edges;  ///< pod-major, same layout as aggs
    std::vector<Host*> hosts;  ///< hosts[i] hangs off edges[i % edges.size()]

    static constexpr std::size_t capacity(std::size_t k) noexcept {
        return k * k * k / 4;
    }
};

/// Throws std::runtime_error when `n_hosts` exceeds k^3/4.
FatTreeTopology make_fat_tree(Network& net, std::size_t k, std::size_t n_hosts,
                              const SwitchFactory& add_switch, LinkParams params = {});

}  // namespace daiet::sim
