// Microbenchmarks of the dataplane pipeline model (§2 constraints):
// per-packet cost of the DAIET program, plain forwarding, and the
// recirculation-based flush.
#include <benchmark/benchmark.h>

#include <optional>

#include "common/rng.hpp"
#include "core/pipeline_program.hpp"

namespace {

using namespace daiet;

struct PipelineHarness {
    Config cfg;
    dp::PipelineSwitch chip;
    std::shared_ptr<DaietSwitchProgram> program;

    PipelineHarness() : chip{"bench", make_switch_config()} {
        cfg.register_size = 16 * 1024;
        cfg.max_trees = 1;
        program = load_daiet_program(cfg, chip);
        TreeRule rule;
        rule.fn = AggFnId::kSumI32;
        rule.num_children = 1;
        rule.out_port = 1;
        rule.flush_dst = 99;
        program->configure_tree(1, rule);
        program->router().install(50, std::array<dp::PortId, 1>{2});
    }

    static dp::SwitchConfig make_switch_config() {
        dp::SwitchConfig sc;
        sc.num_ports = 4;
        sc.sram_bytes = 64 << 20;
        return sc;
    }

    FrameBuf daiet_frame(std::uint64_t salt) {
        Rng rng{salt};
        std::vector<KvPair> pairs;
        for (int i = 0; i < 10; ++i) {
            pairs.push_back(KvPair{Key16::from_u64(rng.next_u64() | 1),
                                   wire_from_i32(1)});
        }
        return sim::build_udp_frame(10, 99, kMapperUdpPort, kDaietUdpPort,
                                    serialize_data(1, pairs));
    }
};

/// Full parse + Algorithm-1 processing of a 10-pair DATA packet. The
/// 1024 input frames are built before timing starts; the loop times one
/// pipeline pass into a reused result vector.
void BM_DaietDataPacket(benchmark::State& state) {
    PipelineHarness h;
    std::vector<FrameBuf> frames;
    for (std::uint64_t salt = 0; salt < 1024; ++salt) frames.push_back(h.daiet_frame(salt));
    std::vector<dp::Packet> out;
    std::size_t next = 0;
    for (auto _ : state) {
        out.clear();
        h.chip.receive_into(dp::Packet{frames[next++ % frames.size()]}, 0, out);
        benchmark::DoNotOptimize(out.data());
    }
    // 10 pairs per packet.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_DaietDataPacket);

/// Plain L2 forwarding through the same program (route table + ECMP).
void BM_PlainForwarding(benchmark::State& state) {
    PipelineHarness h;
    const auto frame = sim::build_udp_frame(10, 50, 1234, 80,
                                            as_bytes("0123456789abcdef"));
    std::vector<dp::Packet> out;
    for (auto _ : state) {
        out.clear();
        h.chip.receive_into(dp::Packet{frame}, 0, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PlainForwarding);

/// END-triggered flush: one recirculation pass per 10 held pairs. Only
/// the END pass is timed: the harness is built and filled, and freed
/// with the packets the pass emitted, while the timer is paused.
void BM_EndFlushRecirculation(benchmark::State& state) {
    const auto held = static_cast<std::size_t>(state.range(0));
    std::optional<PipelineHarness> harness;
    for (auto _ : state) {
        state.PauseTiming();
        PipelineHarness& h = harness.emplace();
        Rng rng{3};
        std::vector<KvPair> pairs;
        for (std::size_t i = 0; i < held; ++i) {
            pairs.push_back(KvPair{Key16::from_u64(rng.next_u64() | 1),
                                   wire_from_i32(1)});
        }
        for (std::size_t off = 0; off < pairs.size(); off += 10) {
            const auto n = std::min<std::size_t>(10, pairs.size() - off);
            auto frame = sim::build_udp_frame(
                10, 99, kMapperUdpPort, kDaietUdpPort,
                serialize_data(1, std::span{pairs}.subspan(off, n)));
            h.chip.receive(dp::Packet{std::move(frame)}, 0);
        }
        auto end_frame = sim::build_udp_frame(10, 99, kMapperUdpPort,
                                              kDaietUdpPort, serialize_end(1));
        state.ResumeTiming();
        {
            const auto out = h.chip.receive(dp::Packet{std::move(end_frame)}, 0);
            benchmark::DoNotOptimize(out.data());
            state.PauseTiming();
        }
        harness.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(held));
}
BENCHMARK(BM_EndFlushRecirculation)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
