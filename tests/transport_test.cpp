// Tests for the loss-tolerant transport layer (src/transport/): the
// stream-restart strategy (migrated from the old core/reliable tests),
// the request/response retry strategy (RetryChannel / ReplyCache), the
// SwitchProgramMux dispatch edge cases, and the headline guarantees —
// a cache-enabled kv service on a lossy fabric returns values identical
// to a loss-free cache-disabled run, and aggregation + kv recovering
// concurrently on one fabric both match loss-free serial runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/pipeline_program.hpp"
#include "core/worker.hpp"
#include "kvcache/service.hpp"
#include "netsim/network.hpp"
#include "runtime/job_driver.hpp"
#include "transport/request_reply.hpp"
#include "transport/restart.hpp"

namespace daiet {
namespace {

// ------------------------------------------------------- stream restart

struct LossyStar {
    sim::Network net;
    Config cfg;
    sim::PipelineSwitchNode* tor{nullptr};
    std::shared_ptr<DaietSwitchProgram> program;
    std::vector<sim::Host*> mappers;
    sim::Host* reducer{nullptr};
    std::unique_ptr<Controller> controller;
    TreeLayout layout;

    LossyStar(std::size_t n_mappers, double loss, std::uint64_t seed) : net{seed} {
        cfg.register_size = 1024;
        cfg.max_trees = 2;
        dp::SwitchConfig sc;
        sc.num_ports = static_cast<std::uint16_t>(n_mappers + 2);
        tor = &net.add_pipeline_switch("tor", sc);
        program = load_daiet_program(cfg, tor->chip());
        sim::LinkParams lossy;
        lossy.loss_probability = loss;
        for (std::size_t i = 0; i < n_mappers; ++i) {
            auto& h = net.add_host("m" + std::to_string(i));
            net.connect(h, *tor, lossy);
            mappers.push_back(&h);
        }
        auto& r = net.add_host("reducer");
        net.connect(r, *tor, lossy);
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

/// The DAIET-shaped hooks: between attempts wipe tree 1's switch state
/// through the controller and reset the receiver — what JobDriver's
/// restart() does for real jobs.
transport::RestartReport run_with_tree_restart(LossyStar& star,
                                               ReducerReceiver& rx,
                                               const std::function<void()>& resend,
                                               std::size_t max_attempts = 8) {
    transport::StreamHooks hooks;
    hooks.resend = resend;
    hooks.all_complete = [&rx] { return rx.complete() && rx.clean(); };
    hooks.reset = [&star, &rx] {
        star.controller->restart_tree(1);
        rx.reset(star.layout.reducer_expected_ends);
    };
    return transport::run_stream_with_restart(star.net, hooks, max_attempts);
}

TEST(StreamRestart, CompletesFirstTryOnCleanNetwork) {
    LossyStar star{2, 0.0, 5};
    ReducerReceiver rx{*star.reducer, star.cfg, 1, AggFnId::kSumI32,
                       star.layout.reducer_expected_ends};
    const auto report = run_with_tree_restart(star, rx, [&] {
        for (auto* m : star.mappers) {
            MapperSender tx{*m, star.cfg, 1, star.reducer->addr()};
            tx.send(KvPair{Key16{"k"}, wire_from_i32(1)});
            tx.finish();
        }
    });
    EXPECT_TRUE(report.success);
    EXPECT_EQ(report.attempts, 1U);
    EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"k"})), 2);
}

TEST(StreamRestart, RestartRecoversExactTotalsUnderLoss) {
    // 2% loss per hop: most attempts lose something; the coordinator
    // must converge to a loss-free replay with *exact* totals (no
    // double counting from earlier partial attempts).
    LossyStar star{3, 0.02, 99};
    ReducerReceiver rx{*star.reducer, star.cfg, 1, AggFnId::kSumI32,
                       star.layout.reducer_expected_ends};

    std::map<std::string, std::int64_t> expected;
    std::vector<std::vector<KvPair>> streams(star.mappers.size());
    Rng rng{4};
    for (auto& stream : streams) {
        for (int i = 0; i < 400; ++i) {
            const auto word = "w" + std::to_string(rng.next_below(100));
            const auto value = static_cast<std::int32_t>(rng.next_int(1, 5));
            expected[word] += value;
            stream.push_back(KvPair{Key16{word}, wire_from_i32(value)});
        }
    }

    const auto report = run_with_tree_restart(
        star, rx,
        [&] {
            for (std::size_t m = 0; m < star.mappers.size(); ++m) {
                MapperSender tx{*star.mappers[m], star.cfg, 1, star.reducer->addr()};
                tx.send_all(streams[m]);
                tx.finish();
            }
        },
        /*max_attempts=*/64);

    ASSERT_TRUE(report.success) << "did not converge in 64 attempts";
    std::map<std::string, std::int64_t> actual;
    for (const auto& [key, value] : rx.aggregated()) {
        actual[key.to_string()] += i32_from_wire(value);
    }
    EXPECT_EQ(actual, expected)
        << "restart recovery must preserve exactly-once aggregation";
    EXPECT_GE(report.attempts, 2U) << "test should exercise at least one restart";
}

TEST(StreamRestart, GivesUpAfterMaxAttempts) {
    LossyStar star{1, 1.0, 7};  // dead links
    ReducerReceiver rx{*star.reducer, star.cfg, 1, AggFnId::kSumI32,
                       star.layout.reducer_expected_ends};
    const auto report = run_with_tree_restart(
        star, rx,
        [&] {
            MapperSender tx{*star.mappers[0], star.cfg, 1, star.reducer->addr()};
            tx.send(KvPair{Key16{"k"}, wire_from_i32(1)});
            tx.finish();
        },
        /*max_attempts=*/3);
    EXPECT_FALSE(report.success);
    EXPECT_EQ(report.attempts, 3U);
}

TEST(StreamRestart, RestartTreeWipesHeldState) {
    LossyStar star{2, 0.0, 11};
    // First attempt: only one mapper sends an END, so the switch holds
    // partial state.
    MapperSender first{*star.mappers[0], star.cfg, 1, star.reducer->addr()};
    first.send(KvPair{Key16{"partial"}, wire_from_i32(7)});
    first.finish();
    star.net.run();
    EXPECT_GT(star.program->held_pairs(1), 0U);

    star.controller->restart_tree(1);
    EXPECT_EQ(star.program->held_pairs(1), 0U);

    // A fresh round now completes with only the fresh data.
    ReducerReceiver rx{*star.reducer, star.cfg, 1, AggFnId::kSumI32,
                       star.layout.reducer_expected_ends};
    for (auto* m : star.mappers) {
        MapperSender tx{*m, star.cfg, 1, star.reducer->addr()};
        tx.send(KvPair{Key16{"fresh"}, wire_from_i32(1)});
        tx.finish();
    }
    star.net.run();
    ASSERT_TRUE(rx.complete());
    EXPECT_EQ(rx.aggregated().size(), 1U);
    EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"fresh"})), 2);
}

// ------------------------------------------------------- retry channel

/// Two hosts on one (possibly lossy) wire; the far end echoes each
/// request's payload back after `reply_delay`, recording arrival order.
struct EchoPair {
    sim::Network net;
    sim::Host* client{nullptr};
    sim::Host* server{nullptr};
    std::vector<std::uint32_t> arrival_order;  // seqs as the server saw them

    static constexpr std::uint16_t kClientPort = 7000;
    static constexpr std::uint16_t kServerPort = 7001;

    EchoPair(double loss, std::uint64_t seed, sim::SimTime reply_delay)
        : net{seed} {
        client = &net.add_host("client");
        server = &net.add_host("server");
        sim::LinkParams params;
        params.loss_probability = loss;
        net.connect(*client, *server, params);
        server->udp_bind(
            kServerPort,
            [this, reply_delay](sim::HostAddr src, std::uint16_t src_port,
                                std::span<const std::byte> payload) {
                ByteReader r{payload};
                arrival_order.push_back(r.get_u32());
                const std::vector<std::byte> echo{payload.begin(), payload.end()};
                server->simulator().schedule_after(
                    reply_delay, [this, src, src_port, echo] {
                        server->udp_send(src, kServerPort, src_port, echo);
                    });
            });
    }
};

std::vector<std::byte> seq_payload(std::uint32_t seq) {
    ByteWriter w;
    w.put_u32(seq);
    return w.take();
}

TEST(RetryChannel, RetransmitsUntilEveryRequestCompletes) {
    EchoPair wire{/*loss=*/0.2, /*seed=*/17, /*reply_delay=*/0};
    transport::RetryOptions options;
    options.initial_rto = 50 * sim::kMicrosecond;
    transport::RetryChannel channel{*wire.client, wire.server->addr(),
                                    EchoPair::kClientPort, EchoPair::kServerPort,
                                    options};
    std::vector<std::uint32_t> completed;
    wire.client->udp_bind(EchoPair::kClientPort,
                          [&](sim::HostAddr, std::uint16_t,
                              std::span<const std::byte> payload) {
                              ByteReader r{payload};
                              const std::uint32_t seq = r.get_u32();
                              if (channel.complete(seq)) completed.push_back(seq);
                          });

    for (int i = 0; i < 50; ++i) {
        channel.submit(Key16{"k" + std::to_string(i)}, /*is_write=*/false,
                       seq_payload);
    }
    wire.net.run();

    EXPECT_EQ(completed.size(), 50U);
    EXPECT_EQ(channel.outstanding(), 0U);
    EXPECT_EQ(channel.stats().replies, 50U);
    EXPECT_EQ(channel.stats().abandoned, 0U);
    // 20% loss per direction: the run cannot have been clean.
    EXPECT_GT(channel.stats().retransmits, 0U);
}

TEST(RetryChannel, PerKeyWriteBarrierOrdersSameKeyTraffic) {
    // Replies take 10us, so every request is in flight long enough for
    // later submissions to trip over the barrier.
    EchoPair wire{/*loss=*/0.0, /*seed=*/1, /*reply_delay=*/10 * sim::kMicrosecond};
    transport::RetryChannel channel{*wire.client, wire.server->addr(),
                                    EchoPair::kClientPort, EchoPair::kServerPort,
                                    {}};
    wire.client->udp_bind(EchoPair::kClientPort,
                          [&](sim::HostAddr, std::uint16_t,
                              std::span<const std::byte> payload) {
                              ByteReader r{payload};
                              channel.complete(r.get_u32());
                          });

    const Key16 hot{"hot"};
    const Key16 cold{"cold"};
    const std::uint32_t read1 = channel.submit(hot, false, seq_payload);
    const std::uint32_t write2 = channel.submit(hot, true, seq_payload);
    const std::uint32_t read3 = channel.submit(hot, false, seq_payload);
    const std::uint32_t other = channel.submit(cold, false, seq_payload);
    wire.net.run();

    // The write waited for the older read, the younger read waited for
    // the write; the read of a *different* key overlapped freely.
    const std::vector<std::uint32_t> expected{read1, other, write2, read3};
    EXPECT_EQ(wire.arrival_order, expected);
    EXPECT_EQ(channel.stats().barrier_delays, 2U);
    EXPECT_EQ(channel.stats().replies, 4U);
}

TEST(ReplyCache, AtMostOnceClassificationAndPruning) {
    transport::ReplyCache cache{/*window=*/8};
    const sim::HostAddr client = 42;

    EXPECT_EQ(cache.classify(client, 1), transport::Sighting::kNew);
    cache.record(client, 1, seq_payload(1));
    EXPECT_EQ(cache.classify(client, 1), transport::Sighting::kDuplicate);
    ASSERT_NE(cache.find(client, 1), nullptr);
    EXPECT_EQ(*cache.find(client, 1), seq_payload(1));

    // seq 0 marks untransported traffic: never cached, always new.
    EXPECT_EQ(cache.classify(client, 0), transport::Sighting::kNew);
    cache.record(client, 0, seq_payload(0));
    EXPECT_EQ(cache.classify(client, 0), transport::Sighting::kNew);

    // Advancing the per-client window prunes old entries; a straggler
    // from before the window is recognized as forgotten, not new.
    for (std::uint32_t seq = 2; seq <= 12; ++seq) {
        cache.record(client, seq, seq_payload(seq));
    }
    EXPECT_EQ(cache.classify(client, 1), transport::Sighting::kForgotten);
    EXPECT_EQ(cache.find(client, 1), nullptr);
    EXPECT_EQ(cache.classify(client, 12), transport::Sighting::kDuplicate);
    // Other clients have independent seq spaces.
    EXPECT_EQ(cache.classify(client + 1, 12), transport::Sighting::kNew);
}

TEST(ReplyCache, LongLivedClientKeepsOnlyTheWindow) {
    constexpr std::uint32_t kWindow = 4096;
    constexpr std::uint32_t kLast = 50000;
    transport::ReplyCache cache{kWindow};
    const sim::HostAddr client = 7;
    for (std::uint32_t seq = 1; seq <= kLast; ++seq) {
        cache.record(client, seq, seq_payload(seq));
        ASSERT_LE(cache.entries(), kWindow) << "seq " << seq;
    }
    EXPECT_EQ(cache.entries(), kWindow);
    EXPECT_EQ(cache.classify(client, 1), transport::Sighting::kForgotten);
    EXPECT_EQ(cache.classify(client, kLast - kWindow), transport::Sighting::kForgotten);
    EXPECT_EQ(cache.find(client, kLast - kWindow), nullptr);
    EXPECT_EQ(cache.classify(client, kLast - kWindow + 1), transport::Sighting::kDuplicate);
    EXPECT_EQ(cache.classify(client, kLast), transport::Sighting::kDuplicate);
    ASSERT_NE(cache.find(client, kLast - kWindow + 1), nullptr);
    EXPECT_EQ(*cache.find(client, kLast - kWindow + 1), seq_payload(kLast - kWindow + 1));

    // A seq jump past the whole window prunes every older entry.
    cache.record(client, kLast + 3 * kWindow, seq_payload(1));
    EXPECT_EQ(cache.entries(), 1U);
    EXPECT_EQ(cache.classify(client, kLast), transport::Sighting::kForgotten);
    cache.record(client, kLast + 3 * kWindow - 1, seq_payload(2));  // late, in window
    EXPECT_EQ(cache.entries(), 2U);
}

// -------------------------------------------------------- mux dispatch

rt::ClusterOptions star_options(std::size_t hosts) {
    rt::ClusterOptions opts;
    opts.num_hosts = hosts;
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    return opts;
}

kv::KvServiceOptions cache_options(std::size_t slots) {
    kv::KvServiceOptions opts;
    opts.config.cache_slots = slots;
    return opts;
}

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

TEST(SwitchProgramMux, UnclaimedTrafficIsDroppedOrForwardedSanely) {
    rt::ClusterRuntime rt{star_options(3)};
    kv::KvService svc{rt, cache_options(8)};  // daiet + kvcache resident

    // A frame with an ethertype the fabric cannot even parse (no tenant
    // claims it, and it is not IPv4) dies at the switch, quietly.
    sim::EthernetHeader eth;
    eth.ethertype = 0x86DD;  // IPv6: nobody home
    ByteWriter w;
    eth.serialize(w);
    w.put_u32(0xdeadbeef);
    rt.host(1).send_frame(w.take());
    rt.run();
    EXPECT_EQ(rt.host(2).counters().frames_rx, 0U);
    EXPECT_EQ(rt.host(0).counters().frames_rx, 0U);

    // A UDP flow on a port no tenant claims falls through the mux to
    // plain forwarding and reaches its destination untouched.
    bool delivered = false;
    rt.host(2).udp_bind(9999, [&](sim::HostAddr src, std::uint16_t,
                                  std::span<const std::byte> payload) {
        delivered = src == rt.host(1).addr() && payload.size() == 4;
    });
    rt.host(1).udp_send(rt.host(2).addr(), 9998, 9999, seq_payload(7));
    rt.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(svc.cache()->stats().gets_seen, 0U);
}

TEST(SwitchProgramMux, DispatchOrderDoesNotChangeResults) {
    // Three tenants on one chip: daiet plus two kv caches (one per
    // storage server). Registration order must not affect any
    // tenant's results — claims() scopes each to its own slice.
    kv::KvWorkload workload;
    workload.num_keys = 64;
    workload.zipf_s = 0.9;
    workload.requests_per_client = 120;
    workload.get_fraction = 0.8;
    workload.partition_keys = true;
    workload.rebalance_interval = 40 * sim::kMicrosecond;

    const auto run_pair = [&workload](bool a_first) {
        rt::ClusterRuntime rt{star_options(6)};
        kv::KvServiceOptions a = cache_options(8);
        a.server_host = 0;
        a.client_hosts = {2, 3};
        kv::KvServiceOptions b = cache_options(8);
        b.server_host = 1;
        b.client_hosts = {4, 5};
        std::unique_ptr<kv::KvService> first;
        std::unique_ptr<kv::KvService> second;
        if (a_first) {
            first = std::make_unique<kv::KvService>(rt, a);
            second = std::make_unique<kv::KvService>(rt, b);
        } else {
            second = std::make_unique<kv::KvService>(rt, b);
            first = std::make_unique<kv::KvService>(rt, a);
        }
        first->schedule(workload);
        second->schedule(workload);
        rt.run();
        std::vector<OpSignature> out;
        for (auto* svc : {first.get(), second.get()}) {
            for (std::size_t c = 0; c < svc->num_clients(); ++c) {
                out.push_back(signature_of(svc->client(c)));
            }
        }
        return out;
    };

    EXPECT_EQ(run_pair(true), run_pair(false));
}

/// A tenant that claims nothing and counts the UDP frames the mux
/// offers it.
class OfferCountingTenant final : public TenantProgram {
public:
    OfferCountingTenant(std::shared_ptr<FabricRouter> router, std::string name,
                        std::vector<std::uint16_t> ports)
        : TenantProgram{std::move(router)}, name_{std::move(name)},
          ports_{std::move(ports)} {}

    bool claims(const sim::ParsedFrame&, std::span<const std::byte>) const override {
        ++offered;
        return false;
    }
    bool on_claimed(dp::PacketContext&, const sim::ParsedFrame&,
                    std::span<const std::byte>) override {
        return false;
    }
    std::vector<std::uint16_t> claim_ports() const override { return ports_; }
    std::size_t sram_bytes() const override { return 0; }
    std::string name() const override { return name_; }

    mutable std::size_t offered{0};

private:
    std::string name_;
    std::vector<std::uint16_t> ports_;
};

TEST(SwitchProgramMux, ClaimPortUnionBeyondTheFilterOffersEveryFrame) {
    // Returns how often each of two tenants was offered three UDP frames:
    // one on a port neither advertises, one on each tenant's last port.
    const auto offers = [](std::uint16_t ports_a, std::uint16_t ports_b) {
        dp::SwitchConfig sc;
        sc.num_ports = 4;
        dp::PipelineSwitch chip{"mux", sc};
        const auto router = std::make_shared<FabricRouter>(chip.sram(), 16);
        const auto mux = std::make_shared<SwitchProgramMux>(router);
        std::vector<std::uint16_t> a_ports, b_ports;
        for (std::uint16_t i = 0; i < ports_a; ++i) a_ports.push_back(1000 + i);
        for (std::uint16_t i = 0; i < ports_b; ++i) b_ports.push_back(2000 + i);
        const auto a = std::make_shared<OfferCountingTenant>(router, "a", a_ports);
        const auto b = std::make_shared<OfferCountingTenant>(router, "b", b_ports);
        mux->add_tenant(a);
        mux->add_tenant(b);
        chip.load_program(mux);
        router->install(2, {1});
        for (const std::uint16_t port : {std::uint16_t{9999}, a_ports.back(), b_ports.back()}) {
            const auto out = chip.receive(
                dp::Packet{sim::build_udp_frame(1, 2, 9998, port, as_bytes("x"))}, 0);
            EXPECT_EQ(out.size(), 1U);  // unclaimed: forwarded as plain traffic
        }
        return std::pair{a->offered, b->offered};
    };
    // A union of 8 ports fits the filter: each tenant is offered only
    // the frames on a port some tenant advertises.
    EXPECT_EQ(offers(5, 3), std::pair(std::size_t{2}, std::size_t{2}));
    // A union of 9 does not: the filter is off and every tenant is
    // offered every UDP frame.
    EXPECT_EQ(offers(5, 4), std::pair(std::size_t{3}, std::size_t{3}));
}

// ---------------------------------------------- switch-side idempotence

/// A bare cache chip (no network): packets injected straight into the
/// pipeline, the idiom the dataplane tests use.
struct ChipHarness {
    static constexpr sim::HostAddr kServer = 1;
    static constexpr sim::HostAddr kClient = 2;

    kv::KvConfig cfg;
    dp::PipelineSwitch chip;
    std::shared_ptr<FabricRouter> router;
    std::shared_ptr<kv::KvCacheSwitchProgram> program;
    std::uint32_t next_req{1};

    ChipHarness() : chip{"tor", switch_config()} {
        cfg.cache_slots = 8;
        router = std::make_shared<FabricRouter>(chip.sram(), 16);
        program = std::make_shared<kv::KvCacheSwitchProgram>(cfg, kServer, chip,
                                                             router);
        chip.load_program(program);
        router->install(kServer, {1});
        router->install(kClient, {2});
    }

    static dp::SwitchConfig switch_config() {
        dp::SwitchConfig sc;
        sc.num_ports = 4;
        return sc;
    }

    std::vector<dp::Packet> inject(const kv::KvMessage& msg, bool toward_server) {
        auto frame = toward_server
                         ? sim::build_udp_frame(kClient, kServer,
                                                kv::kClientUdpPort,
                                                kv::kServerUdpPort,
                                                kv::serialize_kv(msg))
                         : sim::build_udp_frame(kServer, kClient,
                                                kv::kServerUdpPort,
                                                kv::kClientUdpPort,
                                                kv::serialize_kv(msg));
        return chip.receive(dp::Packet{std::move(frame)},
                            toward_server ? 2 : 1);
    }

    kv::KvMessage put_msg(const Key16& key, std::uint32_t seq, WireValue value) {
        kv::KvMessage msg;
        msg.op = kv::KvOp::kPut;
        msg.req_id = next_req++;
        msg.seq = seq;
        msg.key = key;
        msg.value = value;
        return msg;
    }

    kv::KvMessage ack_msg(const Key16& key, std::uint32_t seq, WireValue value,
                          bool replay = false) {
        kv::KvMessage msg;
        msg.op = kv::KvOp::kPutAck;
        msg.flags = kv::kKvFlagFound;
        if (replay) msg.flags |= kv::kKvFlagReplay;
        msg.req_id = next_req++;
        msg.seq = seq;
        msg.key = key;
        msg.value = value;
        return msg;
    }

    /// Inject a GET; true (plus the value) if the switch answered it.
    bool get_hits(const Key16& key, WireValue* value = nullptr) {
        kv::KvMessage get;
        get.op = kv::KvOp::kGet;
        get.req_id = next_req;
        get.seq = 100000 + next_req;
        ++next_req;
        get.key = key;
        const auto out = inject(get, true);
        if (out.size() != 1) return false;
        const auto frame = sim::parse_frame(out[0].payload());
        if (!frame || !frame->udp) return false;
        const kv::KvMessage reply =
            kv::parse_kv(frame->payload_of(out[0].payload()));
        if (reply.op != kv::KvOp::kGetReply || !reply.from_switch()) return false;
        if (value != nullptr) *value = reply.value;
        return true;
    }
};

TEST(KvSwitchIdempotence, ReplayedAckDrainsButNeverRevalidates) {
    ChipHarness h;
    const Key16 k{"hot"};
    ASSERT_TRUE(h.program->insert(k, 5));
    EXPECT_TRUE(h.get_hits(k));

    // A write passes: slot invalidated, one write in flight.
    h.inject(h.put_msg(k, /*seq=*/7, 6), true);
    EXPECT_FALSE(h.get_hits(k));
    EXPECT_EQ(h.program->outstanding_writes(k), 1U);

    // The server's original ACK drains and re-validates with its value.
    const kv::KvMessage ack = h.ack_msg(k, /*seq=*/7, 6);
    h.inject(ack, false);
    EXPECT_EQ(h.program->outstanding_writes(k), 0U);
    WireValue got{};
    EXPECT_TRUE(h.get_hits(k, &got));
    EXPECT_EQ(got, 6U);

    // The same identity again: recognized, skipped outright.
    h.inject(ack, false);
    EXPECT_EQ(h.program->stats().duplicate_acks, 1U);
    EXPECT_TRUE(h.get_hits(k, &got));
    EXPECT_EQ(got, 6U);

    // A *replayed* ACK whose identity this switch never drained (its
    // PUT and original ACK both died elsewhere — or, equivalently, a
    // colliding tag evicted it from the filter) drains as a first
    // sighting but must never re-validate: its recorded value may be
    // stale. It invalidates instead.
    h.inject(h.ack_msg(k, /*seq=*/8, 0xdead, /*replay=*/true), false);
    EXPECT_FALSE(h.get_hits(k)) << "a replay re-validated a slot";
}

TEST(KvSwitchIdempotence, RetransmittedPutCountsOnceAndResetClearsResidue) {
    ChipHarness h;
    const Key16 k{"w"};
    const kv::KvMessage put = h.put_msg(k, /*seq=*/3, 9);
    h.inject(put, true);
    h.inject(put, true);  // client retransmission: same (client, seq)
    EXPECT_EQ(h.program->stats().duplicate_puts, 1U);
    EXPECT_EQ(h.program->outstanding_writes(k), 1U) << "transmissions counted";

    // Abandoned write: no ACK will ever cross this switch, so the
    // dataplane cannot drain the residue — the control-plane reset can,
    // and it is safe at any time (slots just fall back to the server).
    h.program->reset_flight_state();
    EXPECT_EQ(h.program->outstanding_writes(k), 0U);
    ASSERT_TRUE(h.program->insert(k, 9));  // promotable again
    WireValue got{};
    EXPECT_TRUE(h.get_hits(k, &got));
    EXPECT_EQ(got, 9U);
}

TEST(KvSwitchIdempotence, ControllerHealsWedgedCountersAfterStuckWindows) {
    ChipHarness h;
    sim::Network net{1};
    kv::KvStoreServer server{net.add_host("srv"), h.cfg};
    const Key16 k{"wedge"};
    server.preload(k, 9);
    kv::KvCacheController controller{*h.program, server};

    // Make the key hot (cached with hits), then wedge it: a write
    // passes the switch and is abandoned before any ACK returns.
    ASSERT_TRUE(h.program->insert(k, 9));
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(h.get_hits(k));
    h.inject(h.put_msg(k, /*seq=*/5, 1), true);
    EXPECT_EQ(h.program->outstanding_writes(k), 1U);
    EXPECT_FALSE(h.get_hits(k));

    // The residue survives rebalances (insert repairs pending_, never
    // write_flight_) until the stuck-window threshold trips.
    for (std::uint32_t w = 1; w < kv::KvCacheController::kStuckWindows; ++w) {
        controller.rebalance();
        EXPECT_EQ(controller.stats().flight_resets, 0U);
        EXPECT_EQ(h.program->outstanding_writes(k), 1U);
    }
    controller.rebalance();
    EXPECT_EQ(controller.stats().flight_resets, 1U);
    EXPECT_EQ(h.program->outstanding_writes(k), 0U);

    // One more window re-validates the slot from the server's store.
    controller.rebalance();
    WireValue got{};
    EXPECT_TRUE(h.get_hits(k, &got));
    EXPECT_EQ(got, 9U);
}

// --------------------------------------------------- coherence under loss

TEST(KvUnderLoss, LossyCachedRunMatchesLossFreeUncachedRun) {
    kv::KvWorkload workload;
    workload.num_keys = 256;
    workload.zipf_s = 0.99;
    workload.requests_per_client = 200;
    workload.get_fraction = 0.8;
    workload.partition_keys = true;  // single writer per key
    // Keep the server below saturation so the loss-free reference is
    // retransmission-free: 4 clients at one request per 50us against a
    // 10us service time.
    workload.request_interval = 50 * sim::kMicrosecond;
    workload.rebalance_interval = 40 * sim::kMicrosecond;

    // Loss-free, cache-disabled reference: the plainest possible kv
    // deployment.
    rt::ClusterRuntime plain_rt{star_options(5)};
    kv::KvService plain{plain_rt, cache_options(0)};
    const kv::KvRunStats plain_stats = plain.run(workload);
    EXPECT_EQ(plain_stats.retransmits, 0U);

    // Lossy, cache-enabled run: 1% per-link loss, two links per path.
    rt::ClusterOptions lossy = star_options(5);
    lossy.link.loss_probability = 0.01;
    lossy.seed = 3;
    rt::ClusterRuntime lossy_rt{lossy};
    kv::KvService cached{lossy_rt, cache_options(32)};
    const kv::KvRunStats stats = cached.run(workload);

    // The transport actually worked for a living...
    EXPECT_GT(stats.retransmits, 0U);
    EXPECT_EQ(stats.abandoned, 0U);
    EXPECT_EQ(stats.get_replies, stats.gets_sent);
    EXPECT_EQ(stats.put_acks, stats.puts_sent);
    // ...the cache still served hits...
    EXPECT_GT(stats.switch_hits, 0U);
    // ...and every client saw values byte-identical to the loss-free
    // uncached run: loss changes timing, never outcomes.
    ASSERT_EQ(cached.num_clients(), plain.num_clients());
    for (std::size_t c = 0; c < cached.num_clients(); ++c) {
        EXPECT_EQ(signature_of(cached.client(c)), signature_of(plain.client(c)));
    }

    // No wedged coherence state: every in-flight-write register drained
    // (a dropped or replayed ACK used to leave these stuck), so any key
    // is still promotable and hittable after the storm.
    for (std::size_t i = 0; i < workload.num_keys; ++i) {
        ASSERT_EQ(cached.cache()->outstanding_writes(kv::KvService::key_of(i)), 0U)
            << "write_flight wedged for key " << i;
    }
    const Key16 probe = kv::KvService::key_of(0);
    ASSERT_TRUE(cached.cache()->insert(
        probe, cached.server().store().at(probe)));
    cached.client(0).get(probe);
    lossy_rt.run();
    const auto& last = cached.client(0).log().back();
    EXPECT_TRUE(last.from_switch);
    EXPECT_EQ(last.value, cached.server().store().at(probe));
}

// ------------------------------------------- concurrent tenants, lossy

void produce_pairs(std::size_t mapper, MapperSender& tx) {
    // Enough pairs (~60 data packets per mapper) that a 1%-loss fabric
    // all but guarantees at least one dirty attempt.
    for (int i = 0; i < 600; ++i) {
        tx.send(KvPair{Key16{"agg_k" + std::to_string(i % 12)},
                       wire_from_i32(static_cast<std::int32_t>(mapper + 1))});
    }
}

std::map<std::string, std::int64_t> as_map(const ReducerReceiver& rx) {
    std::map<std::string, std::int64_t> out;
    for (const auto& [key, value] : rx.aggregated()) {
        out[key.to_string()] = i32_from_wire(value);
    }
    return out;
}

TEST(ConcurrentLoss, AggregationAndKvRecoveringTogetherMatchSerialRuns) {
    // Six hosts behind one lossy ToR: h0 serves kv to h1/h2 while h3/h4
    // feed an aggregation tree rooted at h5. Both tenants recover with
    // their own strategy — restart for the stream, retransmission for
    // the RPCs — in one simulation, and both must land on results
    // identical to loss-free serial runs.
    kv::KvWorkload workload;
    workload.num_keys = 128;
    workload.zipf_s = 0.99;
    workload.requests_per_client = 150;
    workload.get_fraction = 0.8;
    workload.partition_keys = true;
    workload.request_interval = 50 * sim::kMicrosecond;  // below saturation
    workload.rebalance_interval = 40 * sim::kMicrosecond;

    kv::KvServiceOptions kv_opts = cache_options(16);
    kv_opts.server_host = 0;
    kv_opts.client_hosts = {1, 2};

    // --- loss-free serial references ---------------------------------------
    OpSignature serial_kv[2];
    {
        rt::ClusterRuntime rt{star_options(6)};
        kv::KvService svc{rt, kv_opts};
        svc.run(workload);
        serial_kv[0] = signature_of(svc.client(0));
        serial_kv[1] = signature_of(svc.client(1));
    }
    std::map<std::string, std::int64_t> serial_agg;
    {
        rt::ClusterRuntime rt{star_options(6)};
        rt::JobSpec spec;
        spec.name = "serial";
        rt::JobGroup group;
        group.reducer = &rt.host(5);
        group.mappers = {&rt.host(3), &rt.host(4)};
        spec.groups.push_back(group);
        rt::JobDriver driver{rt, spec};
        driver.run_round(
            [](std::size_t, std::size_t mapper, MapperSender& tx) {
                produce_pairs(mapper, tx);
            },
            [&serial_agg](std::size_t, ReducerReceiver& rx) {
                serial_agg = as_map(rx);
            });
    }

    // --- combined lossy run -------------------------------------------------
    rt::ClusterOptions opts = star_options(6);
    opts.link.loss_probability = 0.01;
    opts.seed = 9;
    rt::ClusterRuntime rt{opts};
    kv::KvService svc{rt, kv_opts};
    rt::JobSpec spec;
    spec.name = "lossy-coexist";
    rt::JobGroup group;
    group.reducer = &rt.host(5);
    group.mappers = {&rt.host(3), &rt.host(4)};
    spec.groups.push_back(group);
    rt::JobDriver::Options jopts;
    jopts.max_restarts = 500;
    rt::JobDriver driver{rt, spec, jopts};

    svc.schedule(workload);
    std::map<std::string, std::int64_t> lossy_agg;
    const rt::RoundStats round = driver.run_round(
        [](std::size_t, std::size_t mapper, MapperSender& tx) {
            produce_pairs(mapper, tx);
        },
        [&lossy_agg](std::size_t, ReducerReceiver& rx) {
            lossy_agg = as_map(rx);
        });
    rt.run();  // drain any kv stragglers past the final agg attempt
    const kv::KvRunStats kv_stats = svc.collect();

    // Both recovery paths fired...
    EXPECT_GT(round.attempts, 1U);
    EXPECT_GT(kv_stats.retransmits, 0U);
    EXPECT_EQ(kv_stats.abandoned, 0U);
    // ...and both tenants converged to their serial loss-free results.
    EXPECT_EQ(lossy_agg, serial_agg);
    EXPECT_EQ(signature_of(svc.client(0)), serial_kv[0]);
    EXPECT_EQ(signature_of(svc.client(1)), serial_kv[1]);
    EXPECT_EQ(kv_stats.get_replies, kv_stats.gets_sent);
    EXPECT_EQ(kv_stats.put_acks, kv_stats.puts_sent);
}

}  // namespace
}  // namespace daiet
