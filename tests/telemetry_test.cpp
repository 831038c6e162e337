// Tests for the in-network telemetry tenant: wire protocol, count-min
// sketch guarantees, heavy-hitter completeness, queue watermark / ECN
// instrumentation, the collector's poll loop, both closed control
// loops (sketch-driven cache promotion, ECN-mark transport back-off),
// per-tenant SRAM accounting, and three tenant families coexisting on
// one lossy fabric without perturbing results.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "kvcache/service.hpp"
#include "runtime/job_driver.hpp"
#include "telemetry/service.hpp"

namespace daiet::telemetry {
namespace {

// ------------------------------------------------------------- protocol

TEST(TelemetryProtocol, RoundTripsAllOps) {
    const sim::NodeId node = 42;
    const std::uint32_t window = 7;

    const auto probe_wire = serialize_probe(node, window);
    const TelemetryMessage probe = decode_telemetry(probe_wire).value();
    EXPECT_EQ(probe.op, TelemetryOp::kProbe);
    EXPECT_EQ(probe.switch_node, node);
    EXPECT_EQ(probe.window, window);

    SummaryRecord summary;
    summary.frames_observed = 123456789012ull;
    summary.bytes_observed = 987654321098ull;
    summary.kv_gets = 1001;
    summary.kv_puts = 99;
    summary.hot_logged = 17;
    summary.hot_dropped = 3;
    const TelemetryMessage sum =
        decode_telemetry(serialize_summary(node, window, summary)).value();
    EXPECT_EQ(sum.op, TelemetryOp::kSummary);
    EXPECT_EQ(sum.summary, summary);

    std::vector<PortStatRecord> ports;
    for (std::uint16_t p = 0; p < 5; ++p) {
        PortStatRecord rec;
        rec.port = p;
        rec.frames = 10u + p;
        rec.bytes = 1000ull * (p + 1);
        rec.queue_drops = p;
        rec.loss_drops = 2u * p;
        rec.ecn_marks = 3u * p;
        rec.backlog_bytes = 500u + p;
        rec.watermark_bytes = 700u + p;
        ports.push_back(rec);
    }
    const TelemetryMessage ps =
        decode_telemetry(serialize_port_stats(node, window, ports)).value();
    EXPECT_EQ(ps.op, TelemetryOp::kPortStats);
    EXPECT_EQ(ps.ports, ports);

    std::vector<HotKeyRecord> keys;
    for (std::uint32_t i = 0; i < 9; ++i) {
        keys.push_back({Key16::from_u64(100 + i), 50 - i});
    }
    const TelemetryMessage hk =
        decode_telemetry(serialize_hot_keys(node, window, keys)).value();
    EXPECT_EQ(hk.op, TelemetryOp::kHotKeys);
    EXPECT_EQ(hk.hot_keys, keys);
}

TEST(TelemetryProtocol, RejectsForeignTraffic) {
    const auto kv_wire = kv::serialize_kv(kv::KvMessage{});
    EXPECT_FALSE(decode_telemetry(kv_wire));
    std::vector<std::byte> truncated{4, std::byte{0x7E}};
    EXPECT_FALSE(decode_telemetry(truncated));
}

// ------------------------------------------------- sketch data structures

/// Context factory for driving dataplane structures without a chip.
struct CtxHarness {
    dp::Packet packet{std::vector<std::byte>(64)};
    dp::PacketContext ctx{packet, /*budget=*/0};
};

TEST(CountMin, NeverUndercountsAndOverestimationStaysBounded) {
    dp::SramBook book;
    CountMinSketch sketch{"cms", 1024, 3, book};
    CtxHarness h;

    // A Zipf(1.0) stream over 512 keys, 5000 updates.
    Rng rng{123};
    const ZipfSampler zipf{512, 1.0};
    std::unordered_map<std::uint64_t, std::uint32_t> truth;
    const std::size_t updates = 5000;
    for (std::size_t i = 0; i < updates; ++i) {
        const std::uint64_t id = zipf(rng) + 1;
        ++truth[id];
        sketch.update(h.ctx, Key16::from_u64(id));
    }

    // est >= count always (the hard count-min guarantee), and the
    // overestimate stays within a small multiple of the theoretical
    // e*N/width expectation for this deterministic stream.
    const auto bound = static_cast<std::uint32_t>(
        3.0 * 2.718 * static_cast<double>(updates) / 1024.0);
    std::uint32_t worst = 0;
    for (const auto& [id, count] : truth) {
        const std::uint32_t est = sketch.estimate(Key16::from_u64(id));
        ASSERT_GE(est, count);
        worst = std::max(worst, est - count);
    }
    EXPECT_LE(worst, bound);

    // Keys never inserted can only collide upward, never invent more
    // than the bound either.
    EXPECT_LE(sketch.estimate(Key16::from_u64(99999)), bound);

    sketch.reset();
    EXPECT_EQ(sketch.estimate(Key16::from_u64(1)), 0u);
}

TEST(HotKeyLog, NeverMissesAKeyTheSketchFlagged) {
    dp::SramBook book;
    CountMinSketch sketch{"cms", 2048, 3, book};
    HotKeyLog log{"hot", 128, 512, book};
    CtxHarness h;
    const std::uint32_t threshold = 8;

    Rng rng{99};
    const ZipfSampler zipf{256, 0.95};
    std::unordered_map<std::uint64_t, std::uint32_t> truth;
    for (std::size_t i = 0; i < 4000; ++i) {
        const std::uint64_t id = zipf(rng) + 1;
        ++truth[id];
        if (sketch.update(h.ctx, Key16::from_u64(id)) >= threshold) {
            log.offer(h.ctx, Key16::from_u64(id));
        }
    }

    // Completeness: every key whose TRUE count reached the threshold
    // must be in the log — count-min never undercounts, so a true-hot
    // key always trips the estimate check, and a dedup collision can
    // only duplicate an entry, never suppress one (full-key compare).
    std::vector<Key16> logged = log.drain();
    const auto contains = [&](const Key16& key) {
        return std::find(logged.begin(), logged.end(), key) != logged.end();
    };
    std::size_t true_hot = 0;
    for (const auto& [id, count] : truth) {
        if (count < threshold) continue;
        ++true_hot;
        EXPECT_TRUE(contains(Key16::from_u64(id)))
            << "true-hot key " << id << " (count " << count << ") missing";
    }
    ASSERT_GT(true_hot, 8u);  // the workload actually produced heavy hitters
    ASSERT_LE(log.logged(), log.capacity());

    log.reset();
    EXPECT_EQ(log.logged(), 0u);
}

// --------------------------------- queue watermarks and ECN instrumentation

TEST(Netsim, QueueWatermarkAndEcnMarking) {
    sim::Network net;
    sim::LinkParams slow;
    slow.gbps = 0.01;  // ~80 us per 100-byte frame: queues build instantly
    slow.queue_bytes = 4096;
    slow.ecn_threshold_bytes = 512;
    auto topo = sim::make_star(net, 2, sim::l2_switches(net), slow);

    bool saw_ce_in_handler = false;
    topo.hosts[1]->udp_bind(9, [&](sim::HostAddr, std::uint16_t,
                                   std::span<const std::byte>) {
        saw_ce_in_handler |= topo.hosts[1]->rx_ecn_ce();
    });
    net.install_routes();
    std::vector<std::byte> payload(100);
    for (int i = 0; i < 20; ++i) {
        topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, payload);
    }
    net.run();

    // The sender's access link queued and marked.
    const sim::EgressQueueSample sample =
        topo.hosts[0]->sample_egress_queue(0, /*reset_peak=*/true);
    EXPECT_GT(sample.peak_backlog_bytes, slow.ecn_threshold_bytes);
    EXPECT_GT(sample.frames_marked_ecn, 0u);
    EXPECT_EQ(sample.backlog_bytes, 0u);  // drained at quiescence
    // The receiver saw the marks, both in counters and as ancillary
    // data during delivery.
    EXPECT_GT(topo.hosts[1]->counters().udp_frames_rx_ce, 0u);
    EXPECT_TRUE(saw_ce_in_handler);
    // After the reset the watermark window starts over.
    EXPECT_EQ(topo.hosts[0]->sample_egress_queue(0).peak_backlog_bytes, 0u);
}

TEST(RetryChannel, CongestionMarkPostponesRtoWhenEnabled) {
    for (const bool backoff : {true, false}) {
        sim::Network net;
        auto topo = sim::make_star(net, 2, sim::l2_switches(net), {});
        net.install_routes();
        sim::Host& client = *topo.hosts[0];

        transport::RetryOptions options;
        options.initial_rto = 200 * sim::kMicrosecond;
        options.max_attempts = 3;
        options.ecn_backoff = backoff;
        // The server never answers: every transmission times out.
        transport::RetryChannel channel{client, topo.hosts[1]->addr(), 7000,
                                        7001, options};
        channel.submit(Key16{"k"}, false, [](std::uint32_t, ByteWriter& out) {
            out.put_u64(0);
        });
        // A congestion mark lands just before the first RTO would fire.
        net.simulator().schedule_at(150 * sim::kMicrosecond,
                                    [&] { channel.note_congestion(); });
        net.run();

        EXPECT_EQ(channel.stats().congestion_marks, 1u);
        EXPECT_EQ(channel.stats().abandoned, 1u);  // budget still bounds it
        if (backoff) {
            // The 200us expiry waited for the hold window (150us + RTO).
            EXPECT_GT(channel.stats().ecn_backoffs, 0u);
        } else {
            EXPECT_EQ(channel.stats().ecn_backoffs, 0u);
        }
    }
}

// ----------------------------------------------------- collector poll loop

rt::ClusterOptions leaf_spine_options(std::size_t hosts) {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    opts.num_hosts = hosts;
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    return opts;
}

kv::KvWorkload small_workload() {
    kv::KvWorkload workload;
    workload.num_keys = 256;
    workload.zipf_s = 0.99;
    workload.requests_per_client = 300;
    workload.get_fraction = 0.9;
    workload.request_interval = 10 * sim::kMicrosecond;
    workload.rebalance_interval = 0;  // no controller in this test
    return workload;
}

TEST(TelemetryCollector, PollsEverySwitchAndMergesViews) {
    rt::ClusterRuntime rt{leaf_spine_options(6)};
    TelemetryService tel{rt, {}};
    kv::KvServiceOptions kv_opts;
    kv_opts.config.cache_slots = 0;  // raw stream: the sketch sees it all
    kv::KvService svc{rt, kv_opts};

    const kv::KvWorkload workload = small_workload();
    svc.schedule(workload);
    tel.start(100 * sim::kMicrosecond, 4 * sim::kMillisecond);
    rt.run();

    EXPECT_EQ(tel.num_programs(), rt.daiet_switches().size());
    EXPECT_GT(tel.collector().stats().polls, 10u);
    EXPECT_GT(tel.collector().stats().report_frames_rx, 0u);

    // Every switch reported at least once; the busy ones saw traffic.
    for (const auto* sw : rt.daiet_switches()) {
        const SwitchView* view = tel.collector().view(sw->id());
        ASSERT_NE(view, nullptr) << sw->name() << " never reported";
        EXPECT_GT(view->window, 0u);
        EXPECT_FALSE(view->ports.empty());
    }

    // The storage server's ToR sketched the kv stream and flagged the
    // Zipf head. Its *last* window is whatever tail traffic remained,
    // so check the cumulative program stats plus hot-key sanity.
    const TelemetrySwitchProgram* tor = tel.program_at(svc.cache_node());
    ASSERT_NE(tor, nullptr);
    EXPECT_GT(tor->stats().kv_gets_sketched, 0u);
    EXPECT_GT(tor->stats().hot_logged, 0u);
    EXPECT_GT(tor->stats().probes_answered, 10u);
}

// -------------------------------------- control loop 1: sketch promotion

TEST(TelemetryControlLoop, SketchDrivenPromotionServesTheHotSet) {
    rt::ClusterRuntime rt{leaf_spine_options(6)};
    TelemetryService tel{rt, {}};
    kv::KvServiceOptions kv_opts;
    kv_opts.config.cache_slots = 32;
    kv::KvService svc{rt, kv_opts};
    svc.controller()->set_hot_key_source(
        tel.collector().hot_key_source_for(svc.cache_node()));
    ASSERT_TRUE(svc.controller()->sketch_mode());

    kv::KvWorkload workload = small_workload();
    workload.rebalance_interval = 50 * sim::kMicrosecond;
    tel.start(50 * sim::kMicrosecond, 6 * sim::kMillisecond);
    const kv::KvRunStats stats = svc.run(workload);

    EXPECT_EQ(stats.get_replies, stats.gets_sent);
    EXPECT_GT(stats.promotions, 0u);
    // A 32-of-256-key cache fed by ToR-level detection absorbs the
    // bulk of a Zipf(0.99) stream.
    EXPECT_GT(stats.hit_rate(), 0.4);
}

// ------------------------------------------ per-tenant SRAM accounting

TEST(SramReport, AccountsEveryTenantAndMatchesTheBook) {
    rt::ClusterRuntime rt{leaf_spine_options(6)};
    TelemetryService tel{rt, {}};
    kv::KvService svc{rt, {}};

    const auto* mux = dynamic_cast<SwitchProgramMux*>(
        &rt.chip_at(svc.cache_node()).program());
    ASSERT_NE(mux, nullptr);
    const auto report = mux->sram_report();
    ASSERT_EQ(report.size(), 4u);  // daiet + telemetry + kvcache + router

    std::size_t total = 0;
    std::map<std::string, std::size_t> by_name;
    for (const auto& [name, bytes] : report) {
        EXPECT_GT(bytes, 0u) << name;
        by_name[name] = bytes;
        total += bytes;
    }
    EXPECT_TRUE(by_name.contains("daiet"));
    EXPECT_TRUE(by_name.contains("shared:router"));
    EXPECT_EQ(by_name.count("kvcache@" + std::to_string(svc.server().addr())),
              1u);
    // Every byte the chip's book holds is attributed to exactly one
    // ledger line — nothing hidden, nothing double-counted.
    EXPECT_EQ(total, rt.chip_at(svc.cache_node()).sram().used_bytes());
}

// ------------------------------------------- controller idle-decay fix

TEST(KvController, DeadKeysDecayOutInsteadOfLingering) {
    rt::ClusterRuntime rt{leaf_spine_options(5)};
    kv::KvServiceOptions kv_opts;
    kv_opts.config.cache_slots = 4;
    kv::KvService svc{rt, kv_opts};
    svc.preload(16);
    sim::Simulator& sim = rt.simulator();

    // Phase 1: keys 0..3 are hammered, promoted, then go stone dead.
    for (int r = 0; r < 50; ++r) {
        for (std::size_t k = 0; k < 4; ++k) {
            const auto at = static_cast<sim::SimTime>(r * 4 + k) *
                            sim::kMicrosecond;
            sim.schedule_at(at, [&svc, k] { svc.client(0).get(svc.key_of(k)); });
        }
    }
    sim.schedule_at(250 * sim::kMicrosecond,
                    [&svc] { svc.controller()->rebalance(); });

    // Phase 2: only keys 8..11 are touched, lightly (10 gets per key
    // per window — far below phase 1's dead weight of 50), across four
    // rebalance windows.
    for (int window = 0; window < 4; ++window) {
        const sim::SimTime base = (300 + window * 100) * sim::kMicrosecond;
        for (int r = 0; r < 10; ++r) {
            for (std::size_t k = 8; k < 12; ++k) {
                const auto at = base + static_cast<sim::SimTime>(r * 8 + k) *
                                           sim::kMicrosecond;
                sim.schedule_at(at,
                                [&svc, k] { svc.client(0).get(svc.key_of(k)); });
            }
        }
        sim.schedule_at(base + 99 * sim::kMicrosecond,
                        [&svc] { svc.controller()->rebalance(); });
    }
    rt.run();

    // The dead phase-1 keys halved away (kIdleDecay) and the live
    // phase-2 keys own the slots. With base decay alone 50 * 0.95^4 ≈
    // 40.7 would still outrank 10 — the lingering this fix removes.
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_FALSE(svc.cache()->contains(svc.key_of(k))) << "key " << k;
    }
    for (std::size_t k = 8; k < 12; ++k) {
        EXPECT_TRUE(svc.cache()->contains(svc.key_of(k))) << "key " << k;
    }
}

// ------------------------------- three tenant families, one lossy fabric

using OpSignature =
    std::vector<std::tuple<std::uint32_t, kv::KvOp, Key16, WireValue>>;

OpSignature signature_of(const kv::KvClient& client) {
    OpSignature out;
    for (const auto& record : client.log()) {
        out.emplace_back(record.req_id, record.op, record.key, record.value);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/// One aggregation round over hosts 6/7 -> 5 of an 8-host leaf-spine.
rt::RoundStats run_agg_round(rt::ClusterRuntime& rt, bool run_now) {
    rt::JobSpec spec;
    spec.name = "tenant-test";
    rt::JobGroup group;
    group.reducer = &rt.host(5);
    group.mappers = {&rt.host(6), &rt.host(7)};
    spec.groups.push_back(group);
    rt::JobDriver driver{rt, spec};
    driver.begin_round();
    auto receivers = driver.bind_receivers();
    driver.schedule_sends([](std::size_t, std::size_t mapper, MapperSender& tx) {
        for (int i = 0; i < 150; ++i) {
            tx.send(KvPair{Key16{"w" + std::to_string(i % 30)},
                           wire_from_i32(static_cast<std::int32_t>(mapper + 1))});
        }
    });
    if (run_now) rt.run();
    const rt::RoundStats stats = driver.collect(receivers);
    driver.verify(receivers);
    return stats;
}

TEST(ThreeTenants, ConcurrentLossyRunMatchesSerialResults) {
    kv::KvWorkload workload;
    workload.num_keys = 128;
    workload.zipf_s = 0.9;
    workload.requests_per_client = 150;
    workload.get_fraction = 0.8;
    workload.partition_keys = true;  // single writer: exact determinism
    workload.request_interval = 25 * sim::kMicrosecond;
    workload.rebalance_interval = 50 * sim::kMicrosecond;

    const auto options = [] {
        rt::ClusterOptions opts = leaf_spine_options(8);
        opts.link.loss_probability = 0.01;
        return opts;
    };

    // Serial reference 1: the kv workload alone (telemetry attached —
    // it must not perturb values either).
    std::vector<OpSignature> serial_kv;
    {
        rt::ClusterRuntime rt{options()};
        TelemetryService tel{rt, {}};
        kv::KvServiceOptions kv_opts;
        kv_opts.server_host = 0;
        kv_opts.client_hosts = {1, 2, 3, 4};
        kv_opts.config.cache_slots = 16;
        kv::KvService svc{rt, kv_opts};
        tel.start(100 * sim::kMicrosecond, 10 * sim::kMillisecond);
        svc.run(workload);
        for (std::size_t c = 0; c < svc.num_clients(); ++c) {
            serial_kv.push_back(signature_of(svc.client(c)));
        }
    }
    // Serial reference 2: the aggregation round alone.
    rt::RoundStats serial_agg;
    {
        rt::ClusterRuntime rt{options()};
        serial_agg = run_agg_round(rt, /*run_now=*/true);
    }

    // Concurrent: all three tenant families share the lossy fabric.
    std::vector<OpSignature> concurrent_kv;
    rt::RoundStats concurrent_agg;
    {
        rt::ClusterRuntime rt{options()};
        TelemetryService tel{rt, {}};
        kv::KvServiceOptions kv_opts;
        kv_opts.server_host = 0;
        kv_opts.client_hosts = {1, 2, 3, 4};
        kv_opts.config.cache_slots = 16;
        kv::KvService svc{rt, kv_opts};
        svc.schedule(workload);
        tel.start(100 * sim::kMicrosecond, 10 * sim::kMillisecond);
        concurrent_agg = run_agg_round(rt, /*run_now=*/true);
        for (std::size_t c = 0; c < svc.num_clients(); ++c) {
            concurrent_kv.push_back(signature_of(svc.client(c)));
        }
        // The telemetry tenant really ran on the shared chips.
        const TelemetrySwitchProgram* tor = tel.program_at(svc.cache_node());
        ASSERT_NE(tor, nullptr);
        EXPECT_GT(tor->stats().kv_gets_sketched, 0u);
        EXPECT_GT(tor->stats().probes_answered, 0u);
    }

    // Value determinism: co-tenancy and telemetry polling changed no kv
    // reply and no aggregate.
    EXPECT_EQ(concurrent_kv, serial_kv);
    EXPECT_EQ(concurrent_agg.pairs_received, serial_agg.pairs_received);
}

}  // namespace
}  // namespace daiet::telemetry
