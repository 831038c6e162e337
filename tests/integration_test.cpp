// End-to-end integration tests: DAIET senders, programmable switches,
// controller-built trees and receivers, all over the simulated network.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/pipeline_program.hpp"
#include "core/worker.hpp"
#include "netsim/network.hpp"

namespace daiet {
namespace {

Config it_config(std::size_t registers = 512) {
    Config cfg;
    cfg.register_size = registers;
    cfg.max_trees = 4;
    return cfg;
}

struct DaietStar {
    sim::Network net{11};
    Config cfg;
    sim::PipelineSwitchNode* tor{nullptr};
    std::shared_ptr<DaietSwitchProgram> program;
    std::vector<sim::Host*> mappers;
    sim::Host* reducer{nullptr};
    std::unique_ptr<Controller> controller;
    TreeLayout layout;

    explicit DaietStar(std::size_t n_mappers, Config c = it_config()) : cfg{c} {
        dp::SwitchConfig sc;
        sc.num_ports = static_cast<std::uint16_t>(n_mappers + 2);
        tor = &net.add_pipeline_switch("tor", sc);
        program = load_daiet_program(cfg, tor->chip());
        for (std::size_t i = 0; i < n_mappers; ++i) {
            auto& h = net.add_host("m" + std::to_string(i));
            net.connect(h, *tor);
            mappers.push_back(&h);
        }
        auto& r = net.add_host("reducer");
        net.connect(r, *tor);
        reducer = &r;
        net.install_routes();
        controller = std::make_unique<Controller>(net, cfg);
        controller->register_program(tor->id(), program);
        TreeSpec spec;
        spec.id = 1;
        spec.reducer = reducer;
        spec.mappers = mappers;
        layout = controller->setup_tree(spec);
    }
};

KvPair kv(const std::string& k, std::int32_t v) {
    return KvPair{Key16{k}, wire_from_i32(v)};
}

TEST(Integration, StarAggregatesAcrossMappers) {
    DaietStar star{4};
    ReducerReceiver rx{*star.reducer, 1, AggFnId::kSumI32,
                       star.layout.reducer_expected_ends};
    std::vector<MapperSender> senders;
    for (auto* m : star.mappers) {
        senders.emplace_back(*m, star.cfg, 1, star.reducer->addr());
    }
    for (auto& tx : senders) {
        tx.send(kv("shared", 1));
        tx.send(kv("solo" + std::to_string(&tx - senders.data()), 5));
        tx.finish();
    }
    star.net.run();

    EXPECT_TRUE(rx.complete());
    EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"shared"})), 4);
    EXPECT_EQ(rx.aggregated().size(), 5U);
    // In-network aggregation: the reducer received fewer pairs than
    // were sent (8 sent, 5 distinct arrive).
    EXPECT_EQ(rx.stats().pairs_received, 5U);
    EXPECT_EQ(rx.stats().end_packets_received, 1U);
}

TEST(Integration, ValueConservationUnderRegisterPressure) {
    // Tiny registers force spillover flushes mid-stream; totals must
    // still be exact.
    DaietStar star{3, it_config(4)};
    ReducerReceiver rx{*star.reducer, 1, AggFnId::kSumI32,
                       star.layout.reducer_expected_ends};
    Rng rng{3};
    std::map<std::string, std::int64_t> expected;
    std::vector<MapperSender> senders;
    for (auto* m : star.mappers) {
        senders.emplace_back(*m, star.cfg, 1, star.reducer->addr());
    }
    for (auto& tx : senders) {
        for (int i = 0; i < 500; ++i) {
            const auto word = "w" + std::to_string(rng.next_below(40));
            const auto value = static_cast<std::int32_t>(rng.next_int(1, 9));
            expected[word] += value;
            tx.send(kv(word, value));
        }
        tx.finish();
    }
    star.net.run();

    ASSERT_TRUE(rx.complete());
    std::map<std::string, std::int64_t> actual;
    for (const auto& [key, value] : rx.aggregated()) {
        actual[key.to_string()] += i32_from_wire(value);
    }
    EXPECT_EQ(actual, expected);
    EXPECT_GT(star.program->tree_stats(1).pairs_spilled, 0U)
        << "test must actually exercise spillover";
}

TEST(Integration, LeafSpineMultiLevelAggregation) {
    sim::Network net{13};
    Config cfg = it_config();
    dp::SwitchConfig sc;
    sc.num_ports = 12;
    sc.sram_bytes = 64 << 20;
    auto topo = make_leaf_spine(net, 2, 2, 6,
                                [&](const std::string& name, std::size_t) -> sim::Node* {
                                    return &net.add_pipeline_switch(name, sc);
                                });
    Controller ctrl{net, cfg};
    std::vector<std::shared_ptr<DaietSwitchProgram>> programs;
    for (auto* nodes : {&topo.leaves, &topo.spines}) {
        for (auto* node : *nodes) {
            auto* sw = dynamic_cast<sim::PipelineSwitchNode*>(node);
            programs.push_back(load_daiet_program(cfg, sw->chip()));
            ctrl.register_program(sw->id(), programs.back());
        }
    }
    net.install_routes();

    // 5 mappers (3 on leaf 0, 2 on leaf 1), reducer on leaf 1.
    std::vector<sim::Host*> mappers{topo.hosts[0], topo.hosts[1], topo.hosts[2],
                                    topo.hosts[3], topo.hosts[4]};
    sim::Host* reducer = topo.hosts[5];
    TreeSpec spec;
    spec.id = 2;
    spec.reducer = reducer;
    spec.mappers = mappers;
    const TreeLayout& layout = ctrl.setup_tree(spec);

    ReducerReceiver rx{*reducer, 2, AggFnId::kSumI32,
                       layout.reducer_expected_ends};
    for (auto* m : mappers) {
        MapperSender tx{*m, cfg, 2, reducer->addr()};
        tx.send(kv("popular", 1));
        tx.finish();
    }
    net.run();

    ASSERT_TRUE(rx.complete());
    // Five contributions merged across two levels into exactly one pair.
    EXPECT_EQ(rx.stats().pairs_received, 1U);
    EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"popular"})), 5);

    // The leaf-0 switch must have combined its three local mappers
    // before anything crossed the fabric.
    const auto leaf0 = topo.leaves[0]->id();
    ASSERT_TRUE(layout.rules.contains(leaf0));
    const auto& leaf0_stats = ctrl.program_at(leaf0)->tree_stats(2);
    EXPECT_EQ(leaf0_stats.pairs_in, 3U);
    EXPECT_EQ(leaf0_stats.pairs_out, 1U);
}

TEST(Integration, MultipleTreesRunConcurrently) {
    sim::Network net{17};
    Config cfg = it_config();
    dp::SwitchConfig sc;
    sc.num_ports = 8;
    auto& tor = net.add_pipeline_switch("tor", sc);
    auto program = load_daiet_program(cfg, tor.chip());
    std::vector<sim::Host*> hosts;
    for (int i = 0; i < 4; ++i) {
        auto& h = net.add_host("h" + std::to_string(i));
        net.connect(h, tor);
        hosts.push_back(&h);
    }
    net.install_routes();
    Controller ctrl{net, cfg};
    ctrl.register_program(tor.id(), program);

    // Two trees: reducers hosts[2] and hosts[3]; mappers hosts[0..1].
    std::vector<TreeLayout> layouts;
    for (TreeId t : {0, 1}) {
        TreeSpec spec;
        spec.id = t;
        spec.reducer = hosts[2 + t];
        spec.mappers = {hosts[0], hosts[1]};
        layouts.push_back(ctrl.setup_tree(spec));
    }
    ReducerReceiver rx0{*hosts[2], 0, AggFnId::kSumI32,
                        layouts[0].reducer_expected_ends};
    ReducerReceiver rx1{*hosts[3], 1, AggFnId::kSumI32,
                        layouts[1].reducer_expected_ends};
    for (auto* m : {hosts[0], hosts[1]}) {
        MapperSender tx0{*m, cfg, 0, hosts[2]->addr()};
        MapperSender tx1{*m, cfg, 1, hosts[3]->addr()};
        tx0.send(kv("t0", 1));
        tx1.send(kv("t1", 2));
        tx0.finish();
        tx1.finish();
    }
    net.run();
    EXPECT_TRUE(rx0.complete());
    EXPECT_TRUE(rx1.complete());
    EXPECT_EQ(i32_from_wire(rx0.aggregated().at(Key16{"t0"})), 2);
    EXPECT_EQ(i32_from_wire(rx1.aggregated().at(Key16{"t1"})), 4);
}

TEST(Integration, IterativeRoundsViaReset) {
    DaietStar star{2};
    for (int round = 0; round < 3; ++round) {
        if (round > 0) star.controller->reset_tree(1);
        ReducerReceiver rx{*star.reducer, 1, AggFnId::kSumI32,
                           star.layout.reducer_expected_ends};
        for (auto* m : star.mappers) {
            MapperSender tx{*m, star.cfg, 1, star.reducer->addr()};
            tx.send(kv("iter", round + 1));
            tx.finish();
        }
        star.net.run();
        ASSERT_TRUE(rx.complete()) << "round " << round;
        EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"iter"})), 2 * (round + 1));
    }
}

TEST(Integration, FloatGradientAggregation) {
    // The ML use case: keys are tensor indices, values are f32 deltas.
    DaietStar star{5};
    // Reconfigure tree 1 for float sums.
    TreeSpec spec;
    spec.id = 1;
    spec.reducer = star.reducer;
    spec.mappers = star.mappers;
    spec.fn = AggFnId::kSumF32;
    star.layout = star.controller->setup_tree(spec);

    ReducerReceiver rx{*star.reducer, 1, AggFnId::kSumF32,
                       star.layout.reducer_expected_ends};
    for (std::size_t w = 0; w < star.mappers.size(); ++w) {
        MapperSender tx{*star.mappers[w], star.cfg, 1, star.reducer->addr()};
        // Parameter ids are offset by one: the all-zero key is the
        // empty-register sentinel and cannot travel as data.
        for (std::uint64_t param = 1; param <= 100; ++param) {
            tx.send(KvPair{Key16::from_u64(param),
                           wire_from_f32(0.25F * static_cast<float>(w + 1))});
        }
        tx.finish();
    }
    star.net.run();
    ASSERT_TRUE(rx.complete());
    EXPECT_EQ(rx.aggregated().size(), 100U);
    // Sum over workers: 0.25*(1+2+3+4+5) = 3.75 for every parameter.
    for (std::uint64_t param = 1; param <= 100; ++param) {
        EXPECT_FLOAT_EQ(f32_from_wire(rx.aggregated().at(Key16::from_u64(param))),
                        3.75F);
    }
    // 5 x 100 sent pairs shrink to ~100 (hash collisions may spill a
    // few keys past the registers, so allow modest slack).
    EXPECT_LT(rx.stats().pairs_received, 200U);
    EXPECT_GE(rx.stats().pairs_received, 100U);
}

TEST(Integration, PacketLossLosesDataWithoutReliability) {
    // Characterization of the paper's stated limitation (§4: "we do not
    // address the issue of packet losses, which we leave as future
    // work"): with loss on the wire and no reliability layer, the
    // reducer under-counts or never completes.
    sim::Network net{23};
    Config cfg = it_config();
    dp::SwitchConfig sc;
    sc.num_ports = 4;
    auto& tor = net.add_pipeline_switch("tor", sc);
    auto program = load_daiet_program(cfg, tor.chip());
    sim::LinkParams lossy;
    lossy.loss_probability = 0.05;
    auto& m = net.add_host("m");
    auto& r = net.add_host("r");
    net.connect(m, tor, lossy);
    net.connect(r, tor, lossy);
    net.install_routes();
    Controller ctrl{net, cfg};
    ctrl.register_program(tor.id(), program);
    TreeSpec spec;
    spec.id = 1;
    spec.reducer = &r;
    spec.mappers = {&m};
    const auto& layout = ctrl.setup_tree(spec);

    ReducerReceiver rx{r, 1, AggFnId::kSumI32, layout.reducer_expected_ends};
    MapperSender tx{m, cfg, 1, r.addr()};
    std::int64_t sent_total = 0;
    for (int i = 0; i < 2000; ++i) {
        tx.send(kv("w" + std::to_string(i % 200), 1));
        sent_total += 1;
    }
    tx.finish();
    net.run();

    std::int64_t received_total = 0;
    for (const auto& [key, value] : rx.aggregated()) {
        received_total += i32_from_wire(value);
    }
    EXPECT_LT(received_total, sent_total)
        << "without a reliability layer, loss must be visible";
}

TEST(Integration, EcmpBaselineStillCorrectForUdp) {
    // UDP/no-agg over a multipath fabric: ECMP must not break the
    // DAIET *protocol* even when frames take different spines.
    sim::Network net{29};
    auto topo = make_leaf_spine(net, 2, 2, 4, l2_switches(net));
    net.install_routes();
    Config cfg;
    auto* reducer = topo.hosts[3];
    ReducerReceiver rx{*reducer, 1, AggFnId::kSumI32, 2};
    std::vector<MapperSender> senders;
    senders.emplace_back(*topo.hosts[0], cfg, 1, reducer->addr());
    senders.emplace_back(*topo.hosts[1], cfg, 1, reducer->addr());
    for (auto& tx : senders) {
        for (int i = 0; i < 200; ++i) tx.send(kv("k" + std::to_string(i), 1));
        tx.finish();
    }
    net.run();
    ASSERT_TRUE(rx.complete());
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"k" + std::to_string(i)})), 2);
    }
}

}  // namespace
}  // namespace daiet
