// Cluster runtime: the one place that wires Simulator + Network +
// Controller + DAIET programs together.
//
// Every workload layer (MapReduce shuffle, ML gradient exchange, graph
// reduction) used to rebuild this plumbing by hand; ClusterRuntime owns
// it instead. It builds a named topology (star, leaf-spine, fat-tree),
// loads the DAIET program on every programmable switch, registers the
// programs with the controller, and hands out aggregation-tree ids from
// a shared multi-tenant pool so several concurrent jobs can coexist on
// one fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/controller.hpp"
#include "core/pipeline_program.hpp"
#include "core/tenancy.hpp"
#include "netsim/network.hpp"

namespace daiet::rt {

enum class TopologyKind : std::uint8_t { kStar, kLeafSpine, kFatTree };

constexpr std::string_view to_string(TopologyKind kind) noexcept {
    switch (kind) {
        case TopologyKind::kStar: return "star";
        case TopologyKind::kLeafSpine: return "leaf-spine";
        case TopologyKind::kFatTree: return "fat-tree";
    }
    return "unknown";
}

/// Shared pool of aggregation-tree ids. A switch supports at most
/// Config::max_trees concurrent trees (the paper's prototype runs 12);
/// the pool is the single tenancy arbiter: every job leases its tree
/// ids here and returns them when it completes, so concurrent jobs can
/// never collide on switch register slots.
class TreePool {
public:
    explicit TreePool(std::size_t capacity);

    /// Lease one tree id; throws std::runtime_error when the fabric is
    /// fully subscribed.
    TreeId acquire();
    std::vector<TreeId> acquire(std::size_t n);
    void release(TreeId id);

    std::size_t capacity() const noexcept { return in_use_.size(); }
    std::size_t leased() const noexcept { return leased_; }
    std::size_t available() const noexcept { return capacity() - leased_; }

private:
    std::vector<bool> in_use_;
    std::size_t leased_{0};
};

struct ClusterOptions {
    TopologyKind topology{TopologyKind::kStar};
    /// Total hosts attached to the fabric. For leaf-spine they fill the
    /// leaves in consecutive groups; for fat-tree they spread round-robin
    /// across edge switches (must fit k^3/4).
    std::size_t num_hosts{4};

    // Leaf-spine shape.
    std::size_t n_leaf{2};
    std::size_t n_spine{2};
    // Fat-tree arity (k pods; k even).
    std::size_t fat_tree_k{4};

    /// true: every switch is programmable and runs the DAIET program;
    /// false: plain L2 forwarding everywhere (the paper's baselines).
    bool daiet{true};
    Config config{};
    sim::LinkParams link{};
    std::uint64_t seed{1};
};

class ClusterRuntime {
public:
    explicit ClusterRuntime(ClusterOptions options);

    ClusterRuntime(const ClusterRuntime&) = delete;
    ClusterRuntime& operator=(const ClusterRuntime&) = delete;

    const ClusterOptions& options() const noexcept { return options_; }
    sim::Network& network() noexcept { return *net_; }
    sim::Simulator& simulator() noexcept { return net_->simulator(); }

    bool daiet_enabled() const noexcept { return options_.daiet; }
    /// Only valid on a DAIET-enabled cluster.
    Controller& controller();
    TreePool& trees() noexcept { return trees_; }

    const std::vector<sim::Host*>& hosts() const noexcept { return hosts_; }
    sim::Host& host(std::size_t i) const;
    const std::vector<sim::PipelineSwitchNode*>& daiet_switches() const noexcept {
        return daiet_switches_;
    }
    /// The DAIET program on `node`, or nullptr when the switch is not
    /// programmable (partial deployments, baselines).
    DaietSwitchProgram* program_at(sim::NodeId node) const;

    // --- switch-program registry (multi-tenant chips) -----------------------
    // Every programmable switch runs a SwitchProgramMux with the DAIET
    // program as its first tenant; further tenants (e.g. the kv cache)
    // share the chip's SramBook and its FabricRouter port map.

    /// Attach `tenant` as a co-resident program on switch `node`. The
    /// tenant must have been constructed against router_at(node); its
    /// register/table state is charged to the chip's SRAM book, so this
    /// throws dp::ResourceError when the chip is out of memory.
    void add_tenant(sim::NodeId node, std::shared_ptr<TenantProgram> tenant);
    /// The shared port map of programmable switch `node` (for building
    /// tenants); throws when `node` is not a programmable switch.
    std::shared_ptr<FabricRouter> router_at(sim::NodeId node) const;
    /// The chip of programmable switch `node`.
    dp::PipelineSwitch& chip_at(sim::NodeId node) const;
    /// Tenant lookup by program name ("daiet", "kvcache@<server>", ...);
    /// nullptr when the switch has no such tenant (or is not
    /// programmable).
    TenantProgram* tenant_at(sim::NodeId node, std::string_view name) const;
    /// The tenant mux of programmable switch `node` (per-tenant SRAM
    /// attribution via sram_report()); nullptr when not programmable.
    const SwitchProgramMux* mux_at(sim::NodeId node) const noexcept;

    /// Partition the fabric across worker threads (conservative
    /// time-windowed parallel simulation, netsim/parallel.hpp). The
    /// shard plan is topology-aware and fixed by the builders — star:
    /// one shard; leaf-spine: a leaf plus its rack of hosts per shard,
    /// spines dealt round-robin; fat-tree: a pod (edges + aggs + its
    /// hosts) per shard, cores dealt round-robin — so the partition,
    /// and with it the schedule, never depends on the thread count.
    /// Call before scheduling any traffic; afterwards, schedule through
    /// each host's own simulator (`host(i).simulator()`), not through
    /// simulator(), which is only shard 0.
    void enable_parallel(std::size_t threads) {
        net_->enable_parallel(shard_of_node_, threads);
    }
    /// The topology-derived shard id per node (tests/diagnostics).
    const std::vector<std::uint32_t>& shard_plan() const noexcept {
        return shard_of_node_;
    }

    sim::SimTime run() { return net_->run(); }
    sim::SimTime now() const noexcept { return net_->now(); }

    // --- fabric-wide observability -----------------------------------------
    std::uint64_t total_recirculations() const;
    std::size_t max_switch_sram_used() const;

    /// The chip configuration the runtime gives each programmable
    /// switch: `ports` data ports plus headroom, SRAM sized for
    /// `config`'s full tree complement (all trees' register state plus
    /// 2 MiB of table headroom, the paper's ~10 MB estimate at default
    /// configuration).
    static dp::SwitchConfig switch_config_for(const Config& config, std::size_t ports);

private:
    /// Everything the runtime holds per programmable switch: the chip's
    /// shared router, the tenant mux loaded into the pipeline, and the
    /// DAIET tenant itself.
    struct Site {
        sim::PipelineSwitchNode* node{nullptr};
        std::shared_ptr<FabricRouter> router;
        std::shared_ptr<SwitchProgramMux> mux;
        std::shared_ptr<DaietSwitchProgram> daiet;
    };

    /// Plain L2 switches, or DAIET chips sized by switch_config_for.
    sim::SwitchFactory switch_factory();
    /// Append a tier's programmable switches to daiet_switches_.
    void adopt_switches(const std::vector<sim::Node*>& tier);
    void build_star();
    void build_leaf_spine();
    void build_fat_tree();
    const Site* find_site(sim::NodeId node) const noexcept;
    const Site& site_at(sim::NodeId node) const;

    ClusterOptions options_;
    std::unique_ptr<sim::Network> net_;
    std::vector<std::uint32_t> shard_of_node_;  ///< filled by the builders
    std::vector<sim::Host*> hosts_;
    std::vector<sim::PipelineSwitchNode*> daiet_switches_;
    std::vector<Site> sites_;
    std::unique_ptr<Controller> controller_;
    TreePool trees_;
};

}  // namespace daiet::rt
