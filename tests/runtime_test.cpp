// Tests for the cluster runtime: topology builders, the multi-tenant
// tree pool, round-based job orchestration, recovery, and the networked
// ML / Pregel workloads that ride on it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/distributed.hpp"
#include "graph/generator.hpp"
#include "graph/pregel.hpp"
#include "kvcache/service.hpp"
#include "ml/training.hpp"
#include "runtime/cluster.hpp"
#include "runtime/job_driver.hpp"

namespace daiet::rt {
namespace {

KvPair kv(const std::string& k, std::int32_t v) {
    return KvPair{Key16{k}, wire_from_i32(v)};
}

std::map<std::string, std::int64_t> as_map(const ReducerReceiver& rx) {
    std::map<std::string, std::int64_t> out;
    for (const auto& [key, value] : rx.aggregated()) {
        out[key.to_string()] = i32_from_wire(value);
    }
    return out;
}

// ------------------------------------------------------------- TreePool

TEST(TreePool, LeasesDistinctIdsUpToCapacity) {
    TreePool pool{3};
    EXPECT_EQ(pool.capacity(), 3U);
    const TreeId a = pool.acquire();
    const TreeId b = pool.acquire();
    const TreeId c = pool.acquire();
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(a, c);
    EXPECT_EQ(pool.available(), 0U);
    EXPECT_THROW(pool.acquire(), std::runtime_error);
}

TEST(TreePool, ReleaseMakesIdAvailableAgain) {
    TreePool pool{2};
    const TreeId a = pool.acquire();
    pool.acquire();
    pool.release(a);
    EXPECT_EQ(pool.available(), 1U);
    EXPECT_EQ(pool.acquire(), a);
}

TEST(TreePool, BulkAcquireRollsBackOnExhaustion) {
    TreePool pool{2};
    pool.acquire();
    EXPECT_THROW(pool.acquire(2), std::runtime_error);
    // The failed bulk lease must not leak the id it briefly held.
    EXPECT_EQ(pool.available(), 1U);
}

TEST(TreePool, BulkAcquireLeasesDistinctIds) {
    TreePool pool{4};
    const std::vector<TreeId> ids = pool.acquire(4);
    ASSERT_EQ(ids.size(), 4U);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        for (std::size_t j = i + 1; j < ids.size(); ++j) {
            EXPECT_NE(ids[i], ids[j]);
        }
    }
    EXPECT_EQ(pool.leased(), 4U);
    EXPECT_EQ(pool.available(), 0U);
}

TEST(TreePool, RollbackLeavesEveryIdAcquirable) {
    TreePool pool{3};
    const TreeId held = pool.acquire();
    EXPECT_THROW(pool.acquire(3), std::runtime_error);
    EXPECT_EQ(pool.leased(), 1U);
    // After the rollback the remaining capacity must be fully leasable
    // in one bulk call — nothing stays marked in_use by the failed try.
    const std::vector<TreeId> rest = pool.acquire(2);
    EXPECT_EQ(pool.available(), 0U);
    for (const TreeId id : rest) EXPECT_NE(id, held);
}

TEST(TreePool, DoubleReleaseThrowsAndLeaksNothing) {
    TreePool pool{3};
    const TreeId a = pool.acquire();
    pool.release(a);
    // With four tenant families contending for the pool, a double
    // release is a tenancy conflict that must surface at the offending
    // caller — and must not corrupt the lease count.
    EXPECT_THROW(pool.release(a), std::runtime_error);
    EXPECT_EQ(pool.leased(), 0U);
    EXPECT_EQ(pool.available(), 3U);
    // The id stays fully leasable afterwards.
    EXPECT_EQ(pool.acquire(), a);
}

TEST(TreePool, ReleasingANeverLeasedIdThrows) {
    TreePool pool{2};
    EXPECT_THROW(pool.release(1), std::runtime_error);
    EXPECT_EQ(pool.leased(), 0U);
}

TEST(TreePool, FourFamiliesContendingExhaustThePoolCleanly) {
    // The paper's prototype runs 12 concurrent trees; four tenant
    // families leasing 3 each fill the pool exactly, the 13th lease
    // fails loudly, and one family finishing frees its slice for the
    // next job.
    TreePool pool{12};
    std::vector<std::vector<TreeId>> families;
    for (int f = 0; f < 4; ++f) families.push_back(pool.acquire(3));
    EXPECT_EQ(pool.available(), 0U);
    EXPECT_THROW(pool.acquire(), std::runtime_error);
    // A failed bulk lease rolls back fully even from a drained pool.
    EXPECT_THROW(pool.acquire(2), std::runtime_error);
    EXPECT_EQ(pool.leased(), 12U);
    for (const TreeId id : families[2]) pool.release(id);
    EXPECT_EQ(pool.available(), 3U);
    const std::vector<TreeId> next = pool.acquire(3);
    EXPECT_EQ(next, families[2]);
}

TEST(TreePool, ReleasedIdsAreReusedByBulkAcquire) {
    TreePool pool{3};
    const std::vector<TreeId> first = pool.acquire(3);
    pool.release(first[1]);
    pool.release(first[0]);
    EXPECT_EQ(pool.available(), 2U);
    // Lowest-id-first reuse keeps lease patterns deterministic.
    const std::vector<TreeId> again = pool.acquire(2);
    EXPECT_EQ(again[0], first[0]);
    EXPECT_EQ(again[1], first[1]);
    EXPECT_EQ(pool.available(), 0U);
}

// ------------------------------------------------------- ClusterRuntime

TEST(ClusterRuntime, StarBuildsProgrammableFabric) {
    ClusterOptions opts;
    opts.num_hosts = 4;
    ClusterRuntime rt{opts};
    EXPECT_EQ(rt.hosts().size(), 4U);
    ASSERT_EQ(rt.daiet_switches().size(), 1U);
    EXPECT_NE(rt.program_at(rt.daiet_switches()[0]->id()), nullptr);
    EXPECT_EQ(rt.trees().capacity(), opts.config.max_trees);
}

TEST(ClusterRuntime, NonDaietClusterHasNoControllerState) {
    ClusterOptions opts;
    opts.daiet = false;
    opts.num_hosts = 3;
    ClusterRuntime rt{opts};
    EXPECT_TRUE(rt.daiet_switches().empty());
    EXPECT_EQ(rt.total_recirculations(), 0U);
    // Without programmable switches, tree ids are plain stream labels:
    // the chip's register budget must not cap them.
    EXPECT_GT(rt.trees().capacity(), opts.config.max_trees);
}

TEST(ClusterRuntime, FatTreeAggregatesAcrossAllLevels) {
    ClusterOptions opts;
    opts.topology = TopologyKind::kFatTree;
    opts.fat_tree_k = 4;
    opts.num_hosts = 16;  // full k^3/4 complement
    opts.config.max_trees = 1;
    ClusterRuntime rt{opts};
    // k=4: 4 cores + 4*(2 aggs + 2 edges) = 20 programmable switches.
    EXPECT_EQ(rt.daiet_switches().size(), 20U);

    JobSpec spec;
    spec.name = "fat-tree-sum";
    JobGroup group;
    group.reducer = &rt.host(15);
    for (std::size_t i = 0; i < 15; ++i) group.mappers.push_back(&rt.host(i));
    spec.groups.push_back(group);
    JobDriver driver{rt, spec};

    const RoundStats round = driver.run_round(
        [](std::size_t, std::size_t, MapperSender& tx) { tx.send(kv("popular", 1)); },
        [](std::size_t, ReducerReceiver& rx) {
            EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"popular"})), 15);
        });
    // Fifteen contributions fold into a single pair across up to five
    // switch levels: the reducer's edge switch is the last combiner.
    EXPECT_EQ(round.pairs_sent, 15U);
    EXPECT_EQ(round.pairs_received, 1U);
    EXPECT_GT(round.traffic_reduction(), 0.9);
}

/// Resident set of this process, from /proc/self/statm.
std::size_t resident_bytes() {
    std::ifstream statm{"/proc/self/statm"};
    std::size_t size_pages = 0;
    std::size_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(ClusterRuntime, UnplacedTreeSlotsReserveSramButNoHostMemory) {
    // Paper-default registers (16K cells x 12 trees) on all 320 switches
    // of a k=16 fat-tree: ~1.45 GB of cells if every slot were allocated
    // up front. No tree is placed, so only the SRAM books are charged.
    ClusterOptions opts;
    opts.topology = TopologyKind::kFatTree;
    opts.fat_tree_k = 16;
    opts.num_hosts = 16;
    const std::size_t before = resident_bytes();
    ClusterRuntime rt{opts};
    const std::size_t after = resident_bytes();
    EXPECT_LT(after - std::min(before, after), 256U << 20);

    const Config& cfg = opts.config;
    const std::size_t per_slot =
        cfg.register_size * (sizeof(Key16) + sizeof(WireValue) + sizeof(std::uint32_t)) +
        cfg.spillover_capacity * sizeof(KvPair) + 8 * sizeof(std::uint32_t);
    const std::size_t program_sram =
        cfg.max_trees * (sizeof(TreeId) + sizeof(TreeRule) + per_slot);
    ASSERT_EQ(rt.daiet_switches().size(), 320U);
    for (const sim::PipelineSwitchNode* sw : rt.daiet_switches()) {
        const DaietSwitchProgram* program = rt.program_at(sw->id());
        ASSERT_NE(program, nullptr);
        EXPECT_EQ(program->sram_bytes(), program_sram);
        EXPECT_EQ(rt.chip_at(sw->id()).sram().used_bytes(),
                  program_sram + rt.router_at(sw->id())->sram_bytes());
    }
}

TEST(ClusterRuntime, FatTreeRejectsOversubscription) {
    ClusterOptions opts;
    opts.topology = TopologyKind::kFatTree;
    opts.fat_tree_k = 4;
    opts.num_hosts = 17;  // capacity is 16
    EXPECT_THROW(ClusterRuntime{opts}, std::runtime_error);
}

TEST(ClusterRuntime, LeafSpineSpreadsHostsAcrossLeaves) {
    ClusterOptions opts;
    opts.topology = TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    opts.num_hosts = 6;
    opts.config.max_trees = 1;
    ClusterRuntime rt{opts};
    EXPECT_EQ(rt.hosts().size(), 6U);
    EXPECT_EQ(rt.daiet_switches().size(), 4U);

    JobSpec spec;
    JobGroup group;
    group.reducer = &rt.host(5);
    for (std::size_t i = 0; i < 5; ++i) group.mappers.push_back(&rt.host(i));
    spec.groups.push_back(group);
    JobDriver driver{rt, spec};
    driver.run_round(
        [](std::size_t, std::size_t, MapperSender& tx) { tx.send(kv("w", 1)); },
        [](std::size_t, ReducerReceiver& rx) {
            EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"w"})), 5);
        });
}

TEST(ClusterRuntime, RejectsAnEcmpSetLargerThanANextHopGroup) {
    // Nine spines give every leaf a 9-port ECMP set toward remote
    // racks; a next-hop group holds 8, and the fabric must say so
    // instead of silently spreading traffic over 8 paths.
    ClusterOptions opts;
    opts.topology = TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 9;
    opts.num_hosts = 4;
    opts.config.max_trees = 1;
    try {
        ClusterRuntime rt{opts};
        FAIL() << "a 9-port ECMP set was accepted";
    } catch (const dp::ResourceError& e) {
        EXPECT_NE(std::string{e.what()}.find("ECMP set of 9 ports"), std::string::npos)
            << e.what();
    }
}

// -------------------------------------------------------- ClusterLayout
//
// The fabric each TopologyKind builds, pinned node by node and link by
// link. Node ids, port numbering and link order feed routing, ECMP
// choices and the per-link loss seeds (derived from the link index), so
// a reordering changes every simulated result.

struct Layout {
    std::vector<std::string> nodes;  ///< "id name port_count", by id
    std::vector<std::string> links;  ///< "a:port b:port", creation order
    std::vector<std::uint32_t> shards;
    std::vector<std::string> chips;  ///< "name chip_ports", daiet_switches() order
};

Layout layout_of(ClusterOptions opts) {
    opts.config.max_trees = 1;
    ClusterRuntime rt{opts};
    Layout out;
    for (const auto& node : rt.network().nodes()) {
        out.nodes.push_back(std::to_string(node->id()) + " " + node->name() + " " +
                            std::to_string(node->port_count()));
    }
    for (const auto& link : rt.network().links()) {
        // end_of(0) is the first endpoint; peer_port(1) is its port.
        out.links.push_back(link->end_of(0).name() + ":" +
                            std::to_string(link->peer_port(1)) + " " +
                            link->end_of(1).name() + ":" +
                            std::to_string(link->peer_port(0)));
    }
    out.shards = rt.shard_plan();
    for (const sim::PipelineSwitchNode* sw : rt.daiet_switches()) {
        out.chips.push_back(sw->name() + " " +
                            std::to_string(sw->chip().config().num_ports));
    }
    return out;
}

/// The DAIET fabric matches `want`; the plain-L2 fabric of the same
/// options matches it too, except that it has no programmable chips.
void expect_layout(ClusterOptions opts, const Layout& want) {
    const Layout got = layout_of(opts);
    EXPECT_EQ(got.nodes, want.nodes);
    EXPECT_EQ(got.links, want.links);
    EXPECT_EQ(got.shards, want.shards);
    EXPECT_EQ(got.chips, want.chips);
    opts.daiet = false;
    const Layout plain = layout_of(opts);
    EXPECT_EQ(plain.nodes, want.nodes);
    EXPECT_EQ(plain.links, want.links);
    EXPECT_EQ(plain.shards, want.shards);
    EXPECT_TRUE(plain.chips.empty());
}

TEST(ClusterLayout, Star) {
    ClusterOptions opts;
    opts.topology = TopologyKind::kStar;
    opts.num_hosts = 4;
    expect_layout(opts,
                  {.nodes = {"0 tor 4", "1 h0 1", "2 h1 1", "3 h2 1", "4 h3 1"},
                   .links = {"h0:0 tor:0", "h1:0 tor:1", "h2:0 tor:2", "h3:0 tor:3"},
                   .shards = {0, 0, 0, 0, 0},
                   .chips = {"tor 6"}});
}

TEST(ClusterLayout, LeafSpineUnevenFill) {
    // 7 hosts over 3 leaves: racks of 3, 3 and 1, filled consecutively.
    ClusterOptions opts;
    opts.topology = TopologyKind::kLeafSpine;
    opts.n_leaf = 3;
    opts.n_spine = 2;
    opts.num_hosts = 7;
    expect_layout(
        opts,
        {.nodes = {"0 spine0 3", "1 spine1 3", "2 leaf0 5", "3 leaf1 5", "4 leaf2 3",
                   "5 h0 1", "6 h1 1", "7 h2 1", "8 h3 1", "9 h4 1", "10 h5 1",
                   "11 h6 1"},
         .links = {"leaf0:0 spine0:0", "leaf0:1 spine1:0", "leaf1:0 spine0:1",
                   "leaf1:1 spine1:1", "leaf2:0 spine0:2", "leaf2:1 spine1:2",
                   "h0:0 leaf0:2", "h1:0 leaf0:3", "h2:0 leaf0:4", "h3:0 leaf1:2",
                   "h4:0 leaf1:3", "h5:0 leaf1:4", "h6:0 leaf2:2"},
         .shards = {0, 1, 0, 1, 2, 0, 0, 0, 1, 1, 1, 2},
         .chips = {"spine0 5", "spine1 5", "leaf0 7", "leaf1 7", "leaf2 7"}});
}

TEST(ClusterLayout, FatTreeK4PartialFill) {
    // 10 of 16 hosts, dealt round-robin over the 8 edge switches.
    ClusterOptions opts;
    opts.topology = TopologyKind::kFatTree;
    opts.fat_tree_k = 4;
    opts.num_hosts = 10;
    Layout want;
    want.nodes = {"0 core0 4",    "1 core1 4",    "2 core2 4",    "3 core3 4",
                  "4 agg0_0 4",   "5 agg0_1 4",   "6 edge0_0 4",  "7 edge0_1 4",
                  "8 agg1_0 4",   "9 agg1_1 4",   "10 edge1_0 3", "11 edge1_1 3",
                  "12 agg2_0 4",  "13 agg2_1 4",  "14 edge2_0 3", "15 edge2_1 3",
                  "16 agg3_0 4",  "17 agg3_1 4",  "18 edge3_0 3", "19 edge3_1 3",
                  "20 host0 1",   "21 host1 1",   "22 host2 1",   "23 host3 1",
                  "24 host4 1",   "25 host5 1",   "26 host6 1",   "27 host7 1",
                  "28 host8 1",   "29 host9 1"};
    for (int p = 0; p < 4; ++p) {
        const std::string pod = std::to_string(p);
        const std::string up = ":" + pod;  // core port p faces pod p
        want.links.insert(want.links.end(),
                          {"agg" + pod + "_0:0 core0" + up, "agg" + pod + "_0:1 core1" + up,
                           "agg" + pod + "_1:0 core2" + up, "agg" + pod + "_1:1 core3" + up,
                           "edge" + pod + "_0:0 agg" + pod + "_0:2",
                           "edge" + pod + "_0:1 agg" + pod + "_1:2",
                           "edge" + pod + "_1:0 agg" + pod + "_0:3",
                           "edge" + pod + "_1:1 agg" + pod + "_1:3"});
    }
    want.links.insert(want.links.end(),
                      {"host0:0 edge0_0:2", "host1:0 edge0_1:2", "host2:0 edge1_0:2",
                       "host3:0 edge1_1:2", "host4:0 edge2_0:2", "host5:0 edge2_1:2",
                       "host6:0 edge3_0:2", "host7:0 edge3_1:2", "host8:0 edge0_0:3",
                       "host9:0 edge0_1:3"});
    want.shards = {0, 1, 2, 3, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                   2, 3, 3, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3, 0, 0};
    // Tier order: cores, then every pod's aggs, then every pod's edges.
    for (const char* tier : {"core0", "core1", "core2", "core3"}) {
        want.chips.push_back(std::string{tier} + " 6");
    }
    for (const char* tier : {"agg", "edge"}) {
        for (int p = 0; p < 4; ++p) {
            for (int i = 0; i < 2; ++i) {
                want.chips.push_back(std::string{tier} + std::to_string(p) + "_" +
                                     std::to_string(i) + " 6");
            }
        }
    }
    expect_layout(opts, want);
}

/// Oracle for the routes install_routes computes: on every switch and
/// for every host, the router resolves, in ascending port order, exactly
/// the ports whose neighbour is one BFS hop closer to the host, at the
/// cost of one table application.
void expect_routes_step_one_hop_closer(ClusterRuntime& rt) {
    const sim::Network& net = rt.network();
    // (port, neighbour) per node, sorted by port.
    std::vector<std::vector<std::pair<dp::PortId, sim::NodeId>>> ports(net.nodes().size());
    for (const auto& link : net.links()) {
        const sim::NodeId a = link->end_of(0).id();
        const sim::NodeId b = link->end_of(1).id();
        ports[a].emplace_back(link->peer_port(1), b);
        ports[b].emplace_back(link->peer_port(0), a);
    }
    for (auto& p : ports) std::sort(p.begin(), p.end());

    std::size_t routes = 0;
    for (const sim::Host* host : rt.hosts()) {
        std::vector<int> dist(ports.size(), -1);
        std::vector<sim::NodeId> queue{host->id()};
        dist[host->id()] = 0;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            for (const auto& [port, peer] : ports[queue[head]]) {
                if (dist[peer] >= 0) continue;
                dist[peer] = dist[queue[head]] + 1;
                queue.push_back(peer);
            }
        }
        for (const sim::PipelineSwitchNode* sw : rt.daiet_switches()) {
            RoutePorts want;
            for (const auto& [port, peer] : ports[sw->id()]) {
                if (dist[peer] + 1 == dist[sw->id()]) want.ports[want.count++] = port;
            }
            ASSERT_GT(want.count, 0U) << sw->name() << " -> host " << host->addr();
            const std::shared_ptr<FabricRouter> router = rt.router_at(sw->id());
            dp::Packet packet;
            dp::PacketContext ctx{packet, 0};
            const RoutePorts* got = router->apply(ctx, host->addr());
            EXPECT_EQ(ctx.total_ops().of(dp::OpKind::kTableApply), 1U);
            EXPECT_EQ(ctx.total_ops().total(), 1U);
            ASSERT_NE(got, nullptr) << sw->name() << " -> host " << host->addr();
            EXPECT_EQ(*got, want) << sw->name() << " -> host " << host->addr();
            EXPECT_EQ(router->peek(host->addr()), got);
            ++routes;
        }
    }
    EXPECT_EQ(routes, rt.hosts().size() * rt.daiet_switches().size());
    for (const sim::PipelineSwitchNode* sw : rt.daiet_switches()) {
        EXPECT_EQ(rt.router_at(sw->id())->size(), rt.hosts().size()) << sw->name();
    }
}

TEST(FabricRouter, RoutesStepOneHopCloserOnFatTree) {
    ClusterOptions opts;
    opts.topology = TopologyKind::kFatTree;
    opts.fat_tree_k = 8;
    opts.num_hosts = 128;
    opts.config.max_trees = 1;
    ClusterRuntime rt{opts};
    expect_routes_step_one_hop_closer(rt);
}

TEST(FabricRouter, RoutesStepOneHopCloserOnLeafSpine) {
    ClusterOptions opts;
    opts.topology = TopologyKind::kLeafSpine;
    opts.n_leaf = 4;
    opts.n_spine = 3;
    opts.num_hosts = 12;
    opts.config.max_trees = 1;
    ClusterRuntime rt{opts};
    expect_routes_step_one_hop_closer(rt);
}

/// The capacity bounds host routes and switch vaddrs together: a new
/// destination of either kind past it throws, re-installing a known one
/// does not, and the SRAM charge is the capacity's whatever is stored.
TEST(FabricRouter, DestinationsBeyondCapacityThrow) {
    dp::SramBook book;
    FabricRouter router{book, 4};
    const std::size_t charged = book.used_bytes();
    EXPECT_EQ(router.sram_bytes(), charged);
    const std::array<dp::PortId, 2> ports{1, 3};
    router.install(1, ports);
    router.install(2, ports);
    router.install(0xE0000001, ports);
    router.install(0xF0000002, ports);
    EXPECT_EQ(router.size(), 4U);
    EXPECT_NO_THROW(router.install(2, std::array<dp::PortId, 1>{2}));
    EXPECT_NO_THROW(router.install(0xE0000001, std::array<dp::PortId, 1>{2}));
    EXPECT_THROW(router.install(3, ports), dp::ResourceError);
    EXPECT_THROW(router.install(0xE0000003, ports), dp::ResourceError);
    EXPECT_EQ(router.size(), 4U);
    EXPECT_EQ(router.peek(3), nullptr);
    EXPECT_EQ(router.peek(0xE0000003), nullptr);
    ASSERT_NE(router.peek(2), nullptr);
    EXPECT_EQ(router.peek(2)->count, 1U);
    EXPECT_EQ(book.used_bytes(), charged);
}

// ------------------------------------------------------------ JobDriver

ClusterOptions star_options(std::size_t hosts, std::size_t trees = 4) {
    ClusterOptions opts;
    opts.num_hosts = hosts;
    opts.config.register_size = 512;
    opts.config.max_trees = trees;
    return opts;
}

TEST(JobDriver, RoundAggregatesAndReportsStats) {
    ClusterRuntime rt{star_options(5)};
    JobSpec spec;
    JobGroup group;
    group.reducer = &rt.host(4);
    for (std::size_t i = 0; i < 4; ++i) group.mappers.push_back(&rt.host(i));
    spec.groups.push_back(group);
    JobDriver driver{rt, spec};

    const RoundStats round = driver.run_round(
        [](std::size_t, std::size_t mapper, MapperSender& tx) {
            tx.send(kv("shared", 1));
            tx.send(kv("solo" + std::to_string(mapper), 5));
        },
        [](std::size_t, ReducerReceiver& rx) {
            EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"shared"})), 4);
            EXPECT_EQ(rx.aggregated().size(), 5U);
        });
    EXPECT_EQ(round.attempts, 1U);
    EXPECT_EQ(round.pairs_sent, 8U);
    EXPECT_EQ(round.pairs_received, 5U);
    EXPECT_GT(round.finished, round.started);
    EXPECT_EQ(driver.rounds_completed(), 1U);
}

TEST(JobDriver, IterativeRoundsReuseTrees) {
    ClusterRuntime rt{star_options(3)};
    JobSpec spec;
    JobGroup group;
    group.reducer = &rt.host(2);
    group.mappers = {&rt.host(0), &rt.host(1)};
    spec.groups.push_back(group);
    JobDriver driver{rt, spec};

    for (int round = 0; round < 3; ++round) {
        driver.run_round(
            [round](std::size_t, std::size_t, MapperSender& tx) {
                tx.send(kv("iter", round + 1));
            },
            [round](std::size_t, ReducerReceiver& rx) {
                EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"iter"})),
                          2 * (round + 1));
            });
    }
    EXPECT_EQ(driver.history().size(), 3U);
}

TEST(JobDriver, ReleasesTreesOnDestructionWithCleanState) {
    ClusterRuntime rt{star_options(3, 1)};  // a single tree id to fight over
    JobSpec spec;
    JobGroup group;
    group.reducer = &rt.host(2);
    group.mappers = {&rt.host(0), &rt.host(1)};
    spec.groups.push_back(group);

    {
        JobDriver first{rt, spec};
        EXPECT_EQ(rt.trees().available(), 0U);
        first.run_round([](std::size_t, std::size_t, MapperSender& tx) {
            tx.send(kv("a", 7));
        });
    }
    EXPECT_EQ(rt.trees().available(), 1U);

    // The successor leases the same id and must see pristine registers.
    JobDriver second{rt, spec};
    second.run_round(
        [](std::size_t, std::size_t, MapperSender& tx) { tx.send(kv("b", 1)); },
        [](std::size_t, ReducerReceiver& rx) {
            EXPECT_EQ(rx.aggregated().size(), 1U);
            EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"b"})), 2);
        });
}

TEST(JobDriver, PoolExhaustionSurfacesAsError) {
    ClusterRuntime rt{star_options(4, 1)};
    JobSpec spec;
    JobGroup group;
    group.reducer = &rt.host(3);
    group.mappers = {&rt.host(0)};
    spec.groups.push_back(group);
    JobDriver holder{rt, spec};

    JobSpec second = spec;
    second.groups[0].reducer = &rt.host(2);
    EXPECT_THROW((JobDriver{rt, second}), std::runtime_error);
}

// --------------------------------------------------------- multi-tenant

/// Two jobs, each two mappers -> one reducer, on one 6-host fabric.
struct TenantFixture {
    static constexpr std::size_t kJobs = 2;

    static JobSpec spec_for(ClusterRuntime& rt, std::size_t job) {
        JobSpec spec;
        spec.name = "tenant" + std::to_string(job);
        JobGroup group;
        group.reducer = &rt.host(4 + job);
        group.mappers = {&rt.host(2 * job), &rt.host(2 * job + 1)};
        spec.groups.push_back(group);
        return spec;
    }

    static void produce(std::size_t job, std::size_t mapper, MapperSender& tx) {
        for (int i = 0; i < 40; ++i) {
            tx.send(kv("j" + std::to_string(job) + "_k" + std::to_string(i % 10),
                       static_cast<std::int32_t>(mapper + 1)));
        }
    }
};

TEST(JobDriver, ConcurrentJobsMatchSerialExecution) {
    // Serial: each job alone on its own (identically seeded) fabric.
    std::vector<std::map<std::string, std::int64_t>> serial(TenantFixture::kJobs);
    for (std::size_t job = 0; job < TenantFixture::kJobs; ++job) {
        ClusterRuntime rt{star_options(6)};
        JobDriver driver{rt, TenantFixture::spec_for(rt, job)};
        driver.run_round(
            [job](std::size_t, std::size_t mapper, MapperSender& tx) {
                TenantFixture::produce(job, mapper, tx);
            },
            [&serial, job](std::size_t, ReducerReceiver& rx) {
                serial[job] = as_map(rx);
            });
        EXPECT_EQ(serial[job].size(), 10U);
    }

    // Concurrent: both jobs lease disjoint trees from one fabric's pool
    // and their traffic interleaves in a single simulation run.
    ClusterRuntime rt{star_options(6)};
    auto job0 = std::make_unique<JobDriver>(rt, TenantFixture::spec_for(rt, 0));
    auto job1 = std::make_unique<JobDriver>(rt, TenantFixture::spec_for(rt, 1));
    EXPECT_NE(job0->tree(0), job1->tree(0));

    job0->begin_round();
    job1->begin_round();
    auto rx0 = job0->bind_receivers();
    auto rx1 = job1->bind_receivers();
    job0->schedule_sends([](std::size_t, std::size_t mapper, MapperSender& tx) {
        TenantFixture::produce(0, mapper, tx);
    });
    job1->schedule_sends([](std::size_t, std::size_t mapper, MapperSender& tx) {
        TenantFixture::produce(1, mapper, tx);
    });
    rt.run();
    job0->verify(rx0);
    job1->verify(rx1);
    const RoundStats round0 = job0->collect(rx0);
    const RoundStats round1 = job1->collect(rx1);

    EXPECT_EQ(as_map(*rx0[0]), serial[0]);
    EXPECT_EQ(as_map(*rx1[0]), serial[1]);
    // Isolation: neither reducer saw the other job's keys, and both
    // streams still aggregated in-network.
    EXPECT_EQ(rx0[0]->aggregated().count(Key16{"j1_k0"}), 0U);
    EXPECT_EQ(rx1[0]->aggregated().count(Key16{"j0_k0"}), 0U);
    EXPECT_LT(round0.pairs_received, round0.pairs_sent);
    EXPECT_LT(round1.pairs_received, round1.pairs_sent);
}

// ------------------------------------------------------------- recovery

TEST(JobDriver, RecoversFromPacketLossViaRestart) {
    ClusterOptions opts = star_options(3);
    opts.link.loss_probability = 0.06;
    opts.seed = 2;  // deterministic: this seed drops frames on attempt 1
    ClusterRuntime rt{opts};

    JobSpec spec;
    spec.name = "lossy";
    JobGroup group;
    group.reducer = &rt.host(2);
    group.mappers = {&rt.host(0), &rt.host(1)};
    spec.groups.push_back(group);
    JobDriver::Options jopts;
    jopts.max_restarts = 500;
    JobDriver driver{rt, spec, jopts};

    const RoundStats round = driver.run_round(
        [](std::size_t, std::size_t, MapperSender& tx) {
            for (int i = 0; i < 100; ++i) {
                tx.send(kv("k" + std::to_string(i), 1));
            }
        },
        [](std::size_t, ReducerReceiver& rx) {
            // The recovery path wiped every partial attempt: totals are
            // exact, not inflated by re-aggregated leftovers.
            ASSERT_EQ(rx.aggregated().size(), 100U);
            for (int i = 0; i < 100; ++i) {
                EXPECT_EQ(
                    i32_from_wire(rx.aggregated().at(Key16{"k" + std::to_string(i)})),
                    2);
            }
        });
    // The seeded loss process drops frames on the first attempt, so the
    // round must have gone through the recovery path at least once.
    EXPECT_GT(round.attempts, 1U);
}

// ------------------------------------------------------ parallel parity

/// What one three-tenant fat-tree run delivered: each kv client's
/// replies keyed by request id, each reducer's sorted output, each echo
/// endpoint's receive count, plus the schedule's size and end.
struct ThreeTenantOutcome {
    using Reply = std::tuple<kv::KvOp, std::string, WireValue, bool>;
    std::vector<std::map<std::uint32_t, Reply>> kv_replies;
    std::vector<std::vector<KvPair>> reduced;
    std::vector<std::uint64_t> echo_rx;
    std::uint64_t events{0};
    sim::SimTime final_time{0};
};

/// kv (server on host 0, clients on hosts 1 mod 4, rack cache on the
/// server's edge switch), one two-group aggregation round (reducers 2
/// and 6, mappers 3 mod 4) and a cross-pod echo between hosts 10 and 14,
/// all on one k=4 fat tree. threads == 0 runs the sequential simulator;
/// otherwise the pod-per-shard partition with that many workers.
ThreeTenantOutcome run_three_tenant_fat_tree(std::size_t threads) {
    ClusterOptions opts;
    opts.topology = TopologyKind::kFatTree;
    opts.fat_tree_k = 4;
    opts.num_hosts = 16;
    opts.seed = 23;
    ClusterRuntime rt{opts};
    if (threads > 0) rt.enable_parallel(threads);

    kv::KvServiceOptions kopts;
    kopts.server_host = 0;
    kopts.client_hosts = {1, 5, 9, 13};
    kv::KvService svc{rt, kopts};
    kv::KvWorkload wl;
    wl.num_keys = 64;
    wl.requests_per_client = 60;
    wl.get_fraction = 0.75;
    // One writer per key: a reply's value cannot depend on how the
    // clients' requests interleave, only on the client's own history.
    wl.partition_keys = true;
    wl.rebalance_interval = 40 * sim::kMicrosecond;
    svc.schedule(wl);

    constexpr std::uint16_t kEchoPort = 47001;
    constexpr std::uint32_t kEchoLegs = 40;
    const std::size_t echo_hosts[2] = {10, 14};
    ThreeTenantOutcome out;
    out.echo_rx.assign(2, 0);
    for (std::size_t j = 0; j < 2; ++j) {
        rt.host(echo_hosts[j])
            .udp_bind(kEchoPort, [&rt, &out, &echo_hosts, j](
                                     sim::HostAddr src, std::uint16_t src_port,
                                     std::span<const std::byte> payload) {
                ++out.echo_rx[j];
                std::uint32_t remaining = 0;
                std::memcpy(&remaining, payload.data(),
                            std::min(sizeof remaining, payload.size()));
                if (remaining == 0) return;
                --remaining;
                std::byte buf[sizeof remaining];
                std::memcpy(buf, &remaining, sizeof remaining);
                rt.host(echo_hosts[j]).udp_send(src, kEchoPort, src_port, buf);
            });
    }
    rt.host(echo_hosts[0]).simulator().schedule_at(700, [&rt, &echo_hosts] {
        std::uint32_t remaining = kEchoLegs - 1;
        std::byte buf[sizeof remaining];
        std::memcpy(buf, &remaining, sizeof remaining);
        rt.host(echo_hosts[0])
            .udp_send(rt.host(echo_hosts[1]).addr(), kEchoPort, kEchoPort, buf);
    });

    JobSpec spec;
    spec.name = "parity";
    for (std::size_t g = 0; g < 2; ++g) {
        JobGroup group;
        group.reducer = &rt.host(2 + 4 * g);
        group.mappers = {&rt.host(3 + 8 * g), &rt.host(7 + 8 * g)};
        spec.groups.push_back(group);
    }
    JobDriver driver{rt, spec};
    out.reduced.resize(2);
    driver.run_round(
        [](std::size_t g, std::size_t m, MapperSender& tx) {
            for (int p = 0; p < 120; ++p) {
                tx.send(kv("g" + std::to_string(g) + "k" + std::to_string(p % 37),
                           static_cast<std::int32_t>(1 + m + p % 5)));
            }
        },
        [&out](std::size_t g, ReducerReceiver& rx) {
            out.reduced[g] = rx.sorted_result();
        });
    rt.run();

    for (std::size_t c = 0; c < svc.num_clients(); ++c) {
        auto& replies = out.kv_replies.emplace_back();
        for (const kv::KvClient::OpRecord& rec : svc.client(c).log()) {
            replies[rec.req_id] = {rec.op, rec.key.to_string(), rec.value, rec.found};
        }
    }
    out.events = rt.network().events_executed();
    out.final_time = rt.now();
    return out;
}

// The parallel driver must reproduce the sequential run's outcomes on a
// full three-tenant workload, and its own schedule must not depend on
// the worker count.
TEST(ParallelSim, ThreeTenantFatTreeMatchesSequentialOutcomes) {
    const ThreeTenantOutcome seq = run_three_tenant_fat_tree(0);
    const ThreeTenantOutcome one = run_three_tenant_fat_tree(1);
    const ThreeTenantOutcome two = run_three_tenant_fat_tree(2);

    ASSERT_EQ(seq.kv_replies.size(), 4U);
    for (const auto& replies : seq.kv_replies) EXPECT_EQ(replies.size(), 60U);
    for (const auto& reduced : seq.reduced) EXPECT_EQ(reduced.size(), 37U);
    EXPECT_EQ(seq.echo_rx[0] + seq.echo_rx[1], 40U);

    for (const ThreeTenantOutcome* par : {&one, &two}) {
        EXPECT_EQ(par->kv_replies, seq.kv_replies);
        EXPECT_EQ(par->reduced, seq.reduced);
        EXPECT_EQ(par->echo_rx, seq.echo_rx);
    }
    EXPECT_EQ(one.events, two.events);
    EXPECT_EQ(one.final_time, two.final_time);
}

// --------------------------------------------- networked ML and Pregel

TEST(NetworkedTraining, MatchesInMemoryOverlapAndLearns) {
    ml::TrainingConfig base;
    base.num_workers = 3;
    base.batch_size = 10;
    base.steps = 12;
    const auto in_memory = ml::train_parameter_server(base);

    ml::TrainingConfig net = base;
    net.exchange = ml::GradientExchange::kDaietNetwork;
    const auto networked = ml::train_parameter_server(net);

    // Overlap statistics are computed before the exchange and must not
    // depend on how gradients travel.
    EXPECT_DOUBLE_EQ(networked.mean_overlap, in_memory.mean_overlap);
    // The fabric must have realized an actual reduction.
    EXPECT_GT(networked.wire_pairs_sent, 0U);
    EXPECT_LT(networked.wire_pairs_received, networked.wire_pairs_sent);
    EXPECT_GT(networked.realized_traffic_reduction, 0.2);
    // And training still works on in-network-summed gradients.
    EXPECT_LT(networked.final_loss, networked.initial_loss);
}

graph::Graph small_graph() {
    graph::RmatConfig rc;
    rc.scale = 8;
    rc.edge_factor = 8;
    rc.seed = 11;
    return graph::generate_rmat(rc);
}

TEST(NetworkedPregel, WccMatchesInMemoryEngineExactly) {
    const graph::Graph g = small_graph().symmetrized();

    ClusterOptions opts;
    opts.num_hosts = 4;
    opts.config.max_trees = 4;
    ClusterRuntime rt{opts};
    graph::NetworkedPregelEngine<graph::WccProgram> networked{rt, g, 4, {}};
    graph::PregelEngine<graph::WccProgram> reference{g, 4, {}};

    const auto net_hist = networked.run(30);
    const auto ref_hist = reference.run(30);

    ASSERT_EQ(networked.values(), reference.values());
    ASSERT_EQ(net_hist.size(), ref_hist.size());
    for (std::size_t s = 0; s < net_hist.size(); ++s) {
        EXPECT_EQ(net_hist[s].compute.messages_sent, ref_hist[s].messages_sent);
        EXPECT_EQ(net_hist[s].compute.distinct_destinations,
                  ref_hist[s].distinct_destinations);
        EXPECT_EQ(net_hist[s].compute.remote_messages, ref_hist[s].remote_messages);
        // On the wire only remote messages travel, and the switch folds
        // duplicates per destination.
        EXPECT_EQ(net_hist[s].wire_pairs_sent, ref_hist[s].remote_messages);
        EXPECT_LE(net_hist[s].wire_pairs_received, net_hist[s].wire_pairs_sent);
    }
    EXPECT_EQ(networked.values(), graph::reference_components(g));
}

TEST(NetworkedPregel, PageRankTracksReferenceWithWirePrecision) {
    const graph::Graph g = small_graph();
    constexpr std::size_t kIterations = 5;

    ClusterOptions opts;
    opts.num_hosts = 4;
    opts.config.max_trees = 4;
    ClusterRuntime rt{opts};
    graph::NetworkedPregelEngine<graph::PageRankProgram> engine{rt, g, 4, {}};
    engine.run(kIterations + 1);  // +1: ranks settle one superstep behind

    const auto reference = graph::reference_pagerank(g, kIterations);
    double max_err = 0.0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
        max_err = std::max(max_err, std::abs(engine.values()[v] - reference[v]));
    }
    EXPECT_LT(max_err, 1e-3);  // f32 wire quantization only

    const auto& hist = engine.history();
    EXPECT_GT(hist[1].wire_pairs_sent, 0U);
    EXPECT_GT(hist[1].realized_wire_reduction(), 0.3);
}

}  // namespace
}  // namespace daiet::rt
