// Tests for aggregation-tree computation and rule installation.
#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "core/pipeline_program.hpp"
#include "netsim/network.hpp"

namespace daiet {
namespace {

Config tree_config() {
    Config cfg;
    cfg.register_size = 256;
    cfg.max_trees = 4;
    return cfg;
}

TEST(Controller, StarTopologySingleSwitchTree) {
    sim::Network net;
    Config cfg = tree_config();
    dp::SwitchConfig sc;
    sc.num_ports = 16;
    auto& tor = net.add_pipeline_switch("tor", sc);
    auto program = load_daiet_program(cfg, tor.chip());
    std::vector<sim::Host*> hosts;
    for (int i = 0; i < 5; ++i) {
        auto& h = net.add_host("h" + std::to_string(i));
        net.connect(h, tor);
        hosts.push_back(&h);
    }
    net.install_routes();

    Controller ctrl{net, cfg};
    ctrl.register_program(tor.id(), program);

    TreeSpec spec;
    spec.id = 1;
    spec.reducer = hosts[4];
    spec.mappers = {hosts[0], hosts[1], hosts[2], hosts[3]};
    const TreeLayout& layout = ctrl.setup_tree(spec);

    ASSERT_EQ(layout.rules.size(), 1U);
    const TreeRule& rule = layout.rules.at(tor.id());
    EXPECT_EQ(rule.num_children, 4U);
    EXPECT_EQ(rule.flush_dst, hosts[4]->addr());
    // The ToR's out port must be the one wired to the reducer (hosts
    // were connected in order, so port i leads to hosts[i]).
    EXPECT_EQ(rule.out_port, 4);
    EXPECT_EQ(layout.reducer_expected_ends, 1U);
}

TEST(Controller, LeafSpineTwoLevelTree) {
    sim::Network net;
    Config cfg = tree_config();
    dp::SwitchConfig sc;
    sc.num_ports = 16;
    sc.sram_bytes = 64 << 20;

    auto topo = make_leaf_spine(net, 2, 2, 6,
                                [&](const std::string& name, std::size_t) -> sim::Node* {
                                    return &net.add_pipeline_switch(name, sc);
                                });
    Controller ctrl{net, cfg};
    std::vector<std::shared_ptr<DaietSwitchProgram>> programs;
    for (auto* node : topo.leaves) {
        auto* sw = dynamic_cast<sim::PipelineSwitchNode*>(node);
        programs.push_back(load_daiet_program(cfg, sw->chip()));
        ctrl.register_program(sw->id(), programs.back());
    }
    for (auto* node : topo.spines) {
        auto* sw = dynamic_cast<sim::PipelineSwitchNode*>(node);
        programs.push_back(load_daiet_program(cfg, sw->chip()));
        ctrl.register_program(sw->id(), programs.back());
    }
    net.install_routes();

    // Mappers: all three hosts of leaf 0 plus two hosts of leaf 1;
    // reducer: last host of leaf 1.
    TreeSpec spec;
    spec.id = 2;
    spec.reducer = topo.hosts[5];
    spec.mappers = {topo.hosts[0], topo.hosts[1], topo.hosts[2], topo.hosts[3],
                    topo.hosts[4]};
    const TreeLayout& layout = ctrl.setup_tree(spec);

    // Expected shape: leaf0 aggregates its 3 local mappers and sends
    // through one spine; leaf1 aggregates its 2 local mappers plus the
    // spine's stream and feeds the reducer.
    const auto leaf0 = topo.leaves[0]->id();
    const auto leaf1 = topo.leaves[1]->id();
    ASSERT_TRUE(layout.rules.contains(leaf0));
    ASSERT_TRUE(layout.rules.contains(leaf1));
    EXPECT_EQ(layout.rules.at(leaf0).num_children, 3U);
    // leaf1: 2 local mappers + 1 upstream (spine or leaf0 via spine).
    EXPECT_EQ(layout.rules.at(leaf1).num_children, 3U);
    EXPECT_EQ(layout.reducer_expected_ends, 1U);

    // Exactly one spine carries the tree.
    int spine_rules = 0;
    for (auto* node : topo.spines) {
        if (layout.rules.contains(node->id())) ++spine_rules;
    }
    EXPECT_EQ(spine_rules, 1);
}

TEST(Controller, PartialDeploymentContractsChildren) {
    // Only the spine runs DAIET; leaves are plain L2. Every mapper's
    // END travels uncontested to the spine, so the spine must expect
    // one END per mapper, and the reducer one END from the spine.
    sim::Network net;
    Config cfg = tree_config();
    dp::SwitchConfig sc;
    sc.num_ports = 8;

    auto& spine = net.add_pipeline_switch("spine", sc);
    auto program = load_daiet_program(cfg, spine.chip());
    auto& leaf0 = net.add_l2_switch("leaf0");
    auto& leaf1 = net.add_l2_switch("leaf1");
    net.connect(leaf0, spine);
    net.connect(leaf1, spine);
    std::vector<sim::Host*> mappers;
    for (int i = 0; i < 3; ++i) {
        auto& h = net.add_host("m" + std::to_string(i));
        net.connect(h, leaf0);
        mappers.push_back(&h);
    }
    auto& reducer = net.add_host("r");
    net.connect(reducer, leaf1);
    net.install_routes();

    Controller ctrl{net, cfg};
    ctrl.register_program(spine.id(), program);

    TreeSpec spec;
    spec.id = 3;
    spec.reducer = &reducer;
    spec.mappers = mappers;
    const TreeLayout& layout = ctrl.setup_tree(spec);

    ASSERT_EQ(layout.rules.size(), 1U);
    EXPECT_EQ(layout.rules.at(spine.id()).num_children, 3U);
    EXPECT_EQ(layout.reducer_expected_ends, 1U);
}

TEST(Controller, NoProgramsMeansReducerSeesAllEnds) {
    sim::Network net;
    auto topo = make_star(net, 4, l2_switches(net));
    net.install_routes();
    Controller ctrl{net, tree_config()};
    TreeSpec spec;
    spec.id = 1;
    spec.reducer = topo.hosts[3];
    spec.mappers = {topo.hosts[0], topo.hosts[1], topo.hosts[2]};
    const TreeLayout& layout = ctrl.setup_tree(spec);
    EXPECT_TRUE(layout.rules.empty());
    EXPECT_EQ(layout.reducer_expected_ends, 3U);
}

TEST(Controller, UnreachableMapperThrows) {
    sim::Network net;
    auto topo = make_star(net, 2, l2_switches(net));
    auto& island = net.add_host("island");  // never connected
    net.install_routes();
    Controller ctrl{net, tree_config()};
    TreeSpec spec;
    spec.id = 1;
    spec.reducer = topo.hosts[0];
    spec.mappers = {&island};
    EXPECT_THROW(ctrl.setup_tree(spec), std::runtime_error);
}

TEST(Controller, ResetReArmsAllRules) {
    sim::Network net;
    Config cfg = tree_config();
    dp::SwitchConfig sc;
    sc.num_ports = 8;
    auto& tor = net.add_pipeline_switch("tor", sc);
    auto program = load_daiet_program(cfg, tor.chip());
    auto& m = net.add_host("m");
    auto& r = net.add_host("r");
    net.connect(m, tor);
    net.connect(r, tor);
    net.install_routes();

    Controller ctrl{net, cfg};
    ctrl.register_program(tor.id(), program);
    TreeSpec spec;
    spec.id = 1;
    spec.reducer = &r;
    spec.mappers = {&m};
    ctrl.setup_tree(spec);

    // Run a full round through the program so children hit zero.
    const auto payload = serialize_end(1);
    auto frame = sim::build_udp_frame(m.addr(), r.addr(), kMapperUdpPort,
                                      kDaietUdpPort, payload);
    tor.chip().receive(dp::Packet{std::move(frame)}, 0);

    ctrl.reset_tree(1);
    // After reset, another END must complete again (children re-armed).
    auto frame2 = sim::build_udp_frame(m.addr(), r.addr(), kMapperUdpPort,
                                       kDaietUdpPort, serialize_end(1));
    const auto out = tor.chip().receive(dp::Packet{std::move(frame2)}, 0);
    ASSERT_EQ(out.size(), 1U);  // empty registers: just the END propagates
}

TEST(Controller, UnknownTreeQueriesThrow) {
    sim::Network net;
    Controller ctrl{net, tree_config()};
    EXPECT_THROW(ctrl.layout(9), std::runtime_error);
    EXPECT_THROW(ctrl.reset_tree(9), std::runtime_error);
}

}  // namespace
}  // namespace daiet
