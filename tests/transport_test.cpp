// Tests for loss tolerance: JobDriver's all-or-nothing round restart on
// a lossy star, the request/response retry strategy of src/transport/ (RetryChannel / ReplyCache,
// including a differential test of the reply rings against the old
// std::map cache and a count of heap allocations in steady state), the
// SwitchProgramMux dispatch edge cases, and the headline guarantees —
// a cache-enabled kv service on a lossy fabric returns values identical
// to a loss-free cache-disabled run, and aggregation + kv recovering
// concurrently on one fabric both match loss-free serial runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "alloc_counter.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/pipeline_program.hpp"
#include "core/worker.hpp"
#include "directory/edge_cache.hpp"
#include "kvcache/service.hpp"
#include "netsim/network.hpp"
#include "runtime/job_driver.hpp"
#include "transport/request_reply.hpp"

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

/// A star cluster whose every link drops frames with probability
/// `loss`, and a one-group job: hosts 0..n_mappers-1 feed the last host.
rt::ClusterOptions lossy_star_options(std::size_t n_mappers, double loss,
                                      std::uint64_t seed) {
    rt::ClusterOptions opts;
    opts.num_hosts = n_mappers + 1;
    opts.config.register_size = 1024;
    opts.config.max_trees = 2;
    opts.link.loss_probability = loss;
    opts.seed = seed;
    return opts;
}

rt::JobSpec one_group_job(rt::ClusterRuntime& rt) {
    rt::JobGroup group;
    group.reducer = &rt.host(rt.hosts().size() - 1);
    for (std::size_t i = 0; i + 1 < rt.hosts().size(); ++i) {
        group.mappers.push_back(&rt.host(i));
    }
    rt::JobSpec spec;
    spec.groups.push_back(group);
    return spec;
}

rt::JobDriver::Options attempt_budget(std::size_t attempts) {
    rt::JobDriver::Options options;
    options.max_restarts = attempts - 1;
    return options;
}

TEST(StreamRestart, CompletesFirstTryOnCleanNetwork) {
    rt::ClusterRuntime rt{lossy_star_options(2, 0.0, 5)};
    rt::JobDriver driver{rt, one_group_job(rt), attempt_budget(8)};
    std::int64_t total = 0;
    const rt::RoundStats round = driver.run_round(
        [](std::size_t, std::size_t, MapperSender& tx) {
            tx.send(KvPair{Key16{"k"}, wire_from_i32(1)});
        },
        [&total](std::size_t, ReducerReceiver& rx) {
            total = i32_from_wire(rx.aggregated().at(Key16{"k"}));
        });
    EXPECT_EQ(round.attempts, 1U);
    EXPECT_EQ(total, 2);
}

TEST(StreamRestart, RestartRecoversExactTotalsUnderLoss) {
    // 2% loss per hop: most attempts lose something; the round must
    // converge to a loss-free replay with *exact* totals (no double
    // counting from earlier partial attempts).
    rt::ClusterRuntime rt{lossy_star_options(3, 0.02, 99)};
    rt::JobDriver driver{rt, one_group_job(rt), attempt_budget(64)};

    std::map<std::string, std::int64_t> expected;
    std::vector<std::vector<KvPair>> streams(3);
    Rng rng{4};
    for (auto& stream : streams) {
        for (int i = 0; i < 400; ++i) {
            const auto word = "w" + std::to_string(rng.next_below(100));
            const auto value = static_cast<std::int32_t>(rng.next_int(1, 5));
            expected[word] += value;
            stream.push_back(KvPair{Key16{word}, wire_from_i32(value)});
        }
    }

    std::map<std::string, std::int64_t> actual;
    const rt::RoundStats round = driver.run_round(
        [&streams](std::size_t, std::size_t m, MapperSender& tx) {
            tx.send_all(streams[m]);
        },
        [&actual](std::size_t, ReducerReceiver& rx) {
            for (const auto& [key, value] : rx.aggregated()) {
                actual[key.to_string()] += i32_from_wire(value);
            }
        });
    EXPECT_EQ(actual, expected)
        << "restart recovery must preserve exactly-once aggregation";
    EXPECT_GE(round.attempts, 2U) << "test should exercise at least one restart";
}

TEST(StreamRestart, GivesUpAfterMaxAttempts) {
    rt::ClusterRuntime rt{lossy_star_options(1, 1.0, 7)};  // dead links
    rt::JobDriver driver{rt, one_group_job(rt), attempt_budget(3)};
    std::size_t sends = 0;
    EXPECT_THROW(driver.run_round([&sends](std::size_t, std::size_t, MapperSender& tx) {
                     ++sends;
                     tx.send(KvPair{Key16{"k"}, wire_from_i32(1)});
                 }),
                 std::runtime_error);
    EXPECT_EQ(sends, 3U);
    EXPECT_EQ(driver.rounds_completed(), 0U);
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
    ReducerReceiver rx{*star.reducer, 1, AggFnId::kSumI32,
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

/// MakePayload twin of seq_payload.
void write_seq(std::uint32_t seq, ByteWriter& out) { out.put_u32(seq); }

std::vector<std::byte> bytes_of(std::span<const std::byte> s) {
    return {s.begin(), s.end()};
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
                       write_seq);
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
    const std::uint32_t read1 = channel.submit(hot, false, write_seq);
    const std::uint32_t write2 = channel.submit(hot, true, write_seq);
    const std::uint32_t read3 = channel.submit(hot, false, write_seq);
    const std::uint32_t other = channel.submit(cold, false, write_seq);
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
    ASSERT_TRUE(cache.find(client, 1).has_value());
    EXPECT_EQ(bytes_of(*cache.find(client, 1)), seq_payload(1));

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
    EXPECT_FALSE(cache.find(client, 1).has_value());
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
    EXPECT_FALSE(cache.find(client, kLast - kWindow).has_value());
    EXPECT_EQ(cache.classify(client, kLast - kWindow + 1), transport::Sighting::kDuplicate);
    EXPECT_EQ(cache.classify(client, kLast), transport::Sighting::kDuplicate);
    ASSERT_TRUE(cache.find(client, kLast - kWindow + 1).has_value());
    EXPECT_EQ(bytes_of(*cache.find(client, kLast - kWindow + 1)),
              seq_payload(kLast - kWindow + 1));

    // A seq jump past the whole window prunes every older entry.
    cache.record(client, kLast + 3 * kWindow, seq_payload(1));
    EXPECT_EQ(cache.entries(), 1U);
    EXPECT_EQ(cache.classify(client, kLast), transport::Sighting::kForgotten);
    cache.record(client, kLast + 3 * kWindow - 1, seq_payload(2));  // late, in window
    EXPECT_EQ(cache.entries(), 2U);
}

/// The std::map ReplyCache the per-client rings replaced, kept as the
/// reference model for the differential test below.
class MapReplyCache {
public:
    explicit MapReplyCache(std::uint32_t window) : window_{window} {}

    transport::Sighting classify(sim::HostAddr client, std::uint32_t seq) const {
        if (seq == 0) return transport::Sighting::kNew;
        const auto it = clients_.find(client);
        if (it == clients_.end()) return transport::Sighting::kNew;
        const PerClient& pc = it->second;
        if (pc.replies.contains(seq)) return transport::Sighting::kDuplicate;
        if (pc.max_seq > window_ && seq <= pc.max_seq - window_) {
            return transport::Sighting::kForgotten;
        }
        return transport::Sighting::kNew;
    }

    const std::vector<std::byte>* find(sim::HostAddr client, std::uint32_t seq) const {
        const auto it = clients_.find(client);
        if (it == clients_.end()) return nullptr;
        const auto rit = it->second.replies.find(seq);
        return rit == it->second.replies.end() ? nullptr : &rit->second;
    }

    void record(sim::HostAddr client, std::uint32_t seq, std::vector<std::byte> reply) {
        if (seq == 0) return;
        PerClient& pc = clients_[client];
        pc.replies[seq] = std::move(reply);
        if (seq > pc.max_seq) {
            pc.max_seq = seq;
            if (pc.max_seq > window_) {
                const std::uint32_t floor = pc.max_seq - window_;
                pc.replies.erase(pc.replies.begin(), pc.replies.upper_bound(floor));
            }
        }
    }

    std::size_t entries() const {
        std::size_t n = 0;
        for (const auto& [client, pc] : clients_) n += pc.replies.size();
        return n;
    }

private:
    struct PerClient {
        std::map<std::uint32_t, std::vector<std::byte>> replies;
        std::uint32_t max_seq{0};
    };
    std::uint32_t window_;
    std::map<sim::HostAddr, PerClient> clients_;
};

TEST(ReplyCache, RingMatchesTheMapReferenceModel) {
    for (const std::uint32_t window : {8U, 4096U}) {
        transport::ReplyCache ring{window};
        MapReplyCache model{window};
        Rng rng{window};
        std::array<std::uint32_t, 3> newest{};  // per client, for seq generation
        std::array<std::size_t, 3> sightings{};  // by Sighting
        for (int step = 0; step < 100000; ++step) {
            const std::size_t c = rng.next_below(newest.size());
            const sim::HostAddr client = 40 + static_cast<sim::HostAddr>(c);
            const std::uint32_t top = newest[c];
            std::uint32_t seq = 0;
            switch (rng.next_below(16)) {
                case 0:  // untransported
                    break;
                case 1:  // jump past the whole window
                    seq = top + window + 1 +
                          static_cast<std::uint32_t>(rng.next_below(2 * window));
                    break;
                case 2:
                case 3:
                case 4: {  // a recent retransmission: mostly duplicates
                    const auto back = static_cast<std::uint32_t>(rng.next_below(8));
                    seq = top - std::min(top, back);
                    break;
                }
                case 5:
                case 6: {  // anywhere back: late, duplicate or forgotten
                    const auto back = static_cast<std::uint32_t>(
                        rng.next_below(window + window / 2 + 1));
                    seq = top - std::min(top, back);
                    break;
                }
                default:  // in order, with small gaps
                    seq = top + 1 + static_cast<std::uint32_t>(rng.next_below(3));
                    break;
            }
            const transport::Sighting got = ring.classify(client, seq);
            ASSERT_EQ(got, model.classify(client, seq)) << "step " << step << " seq " << seq;
            ++sightings[static_cast<std::size_t>(got)];
            const std::vector<std::byte>* want = model.find(client, seq);
            const auto have = ring.find(client, seq);
            ASSERT_EQ(have.has_value(), want != nullptr) << "step " << step;
            if (want != nullptr) {
                ASSERT_EQ(bytes_of(*have), *want) << "step " << step;
            }
            if (got == transport::Sighting::kNew) {
                std::vector<std::byte> reply(rng.next_below(transport::kMaxPayload + 1));
                for (std::byte& b : reply) b = static_cast<std::byte>(rng.next_below(256));
                ring.record(client, seq, reply);
                model.record(client, seq, reply);
                newest[c] = std::max(newest[c], seq);
            }
            ASSERT_EQ(ring.entries(), model.entries()) << "step " << step;
        }
        // Every answer was exercised, not just kNew.
        for (const std::size_t n : sightings) EXPECT_GT(n, 100U) << "window " << window;
    }
}

TEST(RetryChannel, ThousandsOfConcurrentRequestsKeepEveryKeysBarrier) {
    EchoPair wire{/*loss=*/0.05, /*seed=*/23, /*reply_delay=*/2 * sim::kMicrosecond};
    transport::RetryOptions options;
    options.initial_rto = 50 * sim::kMicrosecond;
    transport::RetryChannel channel{*wire.client, wire.server->addr(),
                                    EchoPair::kClientPort, EchoPair::kServerPort,
                                    options};
    // 1,000 requests at once, then 1,000 more, one per completion, so
    // requests also join key queues that have drained part-way.
    constexpr std::size_t kBurst = 1000;
    constexpr std::size_t kRequests = 2 * kBurst;
    constexpr std::size_t kKeys = 50;
    struct Op {
        std::size_t key;
        bool is_write;
    };
    std::map<std::uint32_t, Op> ops;  // by seq
    Rng rng{5};
    const auto submit_one = [&] {
        const Op op{rng.next_below(kKeys), rng.next_below(4) == 0};
        const std::uint32_t seq = channel.submit(Key16{"k" + std::to_string(op.key)},
                                                 op.is_write, write_seq);
        ops[seq] = op;
    };
    std::size_t completed = 0;
    wire.client->udp_bind(EchoPair::kClientPort,
                          [&](sim::HostAddr, std::uint16_t,
                              std::span<const std::byte> payload) {
                              ByteReader r{payload};
                              if (!channel.complete(r.get_u32())) return;
                              ++completed;
                              if (ops.size() < kRequests) submit_one();
                          });
    for (std::size_t i = 0; i < kBurst; ++i) submit_one();
    EXPECT_EQ(channel.outstanding(), kBurst);
    wire.net.run();

    EXPECT_EQ(completed, kRequests);
    EXPECT_EQ(channel.outstanding(), 0U);
    EXPECT_EQ(channel.stats().abandoned, 0U);
    EXPECT_GT(channel.stats().retransmits, 0U);
    EXPECT_GT(channel.stats().barrier_delays, 0U);

    // Barrier order at the server: a write's first arrival follows the
    // first arrival of every older request on its key and precedes that
    // of every younger one.
    std::map<std::uint32_t, std::size_t> first_arrival;
    for (std::size_t i = 0; i < wire.arrival_order.size(); ++i) {
        first_arrival.try_emplace(wire.arrival_order[i], i);
    }
    ASSERT_EQ(first_arrival.size(), kRequests);
    for (const auto& [wseq, wop] : ops) {
        if (!wop.is_write) continue;
        for (const auto& [seq, op] : ops) {
            if (op.key != wop.key || seq == wseq) continue;
            if (seq < wseq) {
                EXPECT_LT(first_arrival[seq], first_arrival[wseq]) << seq << " before write " << wseq;
            } else {
                EXPECT_GT(first_arrival[seq], first_arrival[wseq]) << seq << " after write " << wseq;
            }
        }
    }
}

TEST(Transport, SeqZeroNeverNamesARequestOrAReply) {
    EchoPair wire{/*loss=*/0.0, /*seed=*/1, /*reply_delay=*/0};
    transport::RetryChannel channel{*wire.client, wire.server->addr(),
                                    EchoPair::kClientPort, EchoPair::kServerPort,
                                    {}};
    // Slot 0 of the empty request ring holds seq 0 as its "free" mark.
    EXPECT_FALSE(channel.is_outstanding(0));
    EXPECT_FALSE(channel.nudge(0));
    EXPECT_FALSE(channel.complete(0).has_value());
    EXPECT_EQ(channel.stats().duplicate_replies, 1U);

    transport::ReplyCache cache{/*window=*/8};
    const sim::HostAddr client = 42;
    EXPECT_EQ(cache.classify(client, 0), transport::Sighting::kNew);
    cache.record(client, 1, seq_payload(1));  // the client's slot 0 stays free
    EXPECT_EQ(cache.classify(client, 0), transport::Sighting::kNew);
    EXPECT_FALSE(cache.find(client, 0).has_value());
    cache.record(client, 8, seq_payload(8));  // seq 8 fills slot 0
    EXPECT_EQ(cache.classify(client, 0), transport::Sighting::kNew);
    EXPECT_FALSE(cache.find(client, 0).has_value());
    EXPECT_EQ(cache.entries(), 2U);
}

TEST(Transport, PayloadsPastTheInlineLimitFailLoudly) {
    EchoPair wire{/*loss=*/0.0, /*seed=*/1, /*reply_delay=*/0};
    transport::RetryChannel channel{*wire.client, wire.server->addr(),
                                    EchoPair::kClientPort, EchoPair::kServerPort,
                                    {}};
    EXPECT_THROW(channel.submit(Key16{"k"}, false,
                                [](std::uint32_t, ByteWriter& out) {
                                    out.put_bytes(std::vector<std::byte>(transport::kMaxPayload + 1));
                                }),
                 BufferError);
    // The refused request left no trace: the next one still gets seq 1.
    EXPECT_EQ(channel.outstanding(), 0U);
    EXPECT_EQ(channel.stats().requests, 0U);
    EXPECT_EQ(channel.submit(Key16{"k"}, false, write_seq), 1U);

    transport::ReplyCache cache;
    EXPECT_THROW(cache.record(7, 1, std::vector<std::byte>(transport::kMaxPayload + 1)),
                 BufferError);
    EXPECT_EQ(cache.entries(), 0U);
}

/// Both transport halves over a lossy wire. The client keeps a fixed
/// number of requests outstanding on kKeys keys (one in four a write,
/// so barriers queue), issuing the next as each completes; the server
/// answers through a ReplyCache, replaying duplicates and holding each
/// fresh reply by value in its send event.
struct ClosedLoopEcho {
    static constexpr std::uint16_t kClientPort = 7000;
    static constexpr std::uint16_t kServerPort = 7001;
    static constexpr std::size_t kKeys = 32;

    sim::Network net{11};
    sim::Host* client{nullptr};
    sim::Host* server{nullptr};
    transport::ReplyCache replies;
    std::unique_ptr<transport::RetryChannel> channel;
    std::array<Key16, kKeys> keys;
    Rng rng{3};
    std::uint64_t submitted{0};
    std::uint64_t completed{0};
    std::uint64_t replays{0};
    std::uint64_t limit{0};

    explicit ClosedLoopEcho(double loss) {
        client = &net.add_host("client");
        server = &net.add_host("server");
        sim::LinkParams params;
        params.loss_probability = loss;
        net.connect(*client, *server, params);
        for (std::size_t i = 0; i < kKeys; ++i) keys[i] = Key16{"key" + std::to_string(i)};
        transport::RetryOptions options;
        options.initial_rto = 50 * sim::kMicrosecond;
        channel = std::make_unique<transport::RetryChannel>(
            *client, server->addr(), kClientPort, kServerPort, options);
        client->udp_bind(kClientPort, [this](sim::HostAddr, std::uint16_t,
                                             std::span<const std::byte> payload) {
            ByteReader r{payload};
            if (!channel->complete(r.get_u32())) return;
            ++completed;
            if (submitted < limit) submit_one();
        });
        server->udp_bind(kServerPort, [this](sim::HostAddr src, std::uint16_t src_port,
                                             std::span<const std::byte> payload) {
            ByteReader r{payload};
            const std::uint32_t seq = r.get_u32();
            switch (replies.classify(src, seq)) {
                case transport::Sighting::kDuplicate:
                    ++replays;
                    server->udp_send(src, kServerPort, src_port, *replies.find(src, seq));
                    return;
                case transport::Sighting::kForgotten:
                    return;
                case transport::Sighting::kNew:
                    break;
            }
            std::array<std::byte, 8> reply{};
            std::copy_n(payload.begin(), reply.size(), reply.begin());
            replies.record(src, seq, reply);
            server->simulator().schedule_after(
                10 * sim::kMicrosecond, [this, reply, src, src_port] {
                    server->udp_send(src, kServerPort, src_port, reply);
                });
        });
    }

    void submit_one() {
        const std::size_t key = rng.next_below(kKeys);
        channel->submit(keys[key], rng.next_below(4) == 0,
                        [](std::uint32_t seq, ByteWriter& out) {
                            out.put_u32(seq);
                            out.put_u32(~seq);
                        });
        ++submitted;
    }

    /// Run `n` more requests to completion, `concurrency` at a time.
    void run_requests(std::uint64_t n, std::size_t concurrency) {
        limit = submitted + n;
        for (std::size_t i = 0; i < concurrency && submitted < limit; ++i) submit_one();
        net.run();
    }
};

TEST(Transport, SteadyStateRequestPathAllocatesNothing) {
#ifdef DAIET_TEST_SANITIZED
    GTEST_SKIP() << "sanitizer builds replace operator new";
#else
    ClosedLoopEcho echo{/*loss=*/0.05};
    // Warm with 5,000 requests. The first 1,024 go out at once: that
    // sizes the request ring, the event queue and the link FIFO for a
    // seq span no 4-deep closed loop reaches (at 4 requests per ~12 us
    // round trip, a request would have to lose 6 transmissions in a row
    // to stay outstanding for 1,024 seqs).
    echo.run_requests(1024, 1024);
    echo.run_requests(5000 - 1024, 4);
    ASSERT_EQ(echo.completed, 5000U);
    const transport::RetryStats warm = echo.channel->stats();
    const std::uint64_t warm_replays = echo.replays;
    const std::uint64_t before = g_heap_allocations.load();
    echo.run_requests(10000, 4);
    const std::uint64_t allocations = g_heap_allocations.load() - before;
    EXPECT_EQ(allocations, 0U);
    EXPECT_EQ(echo.completed, 15000U);
    EXPECT_EQ(echo.channel->outstanding(), 0U);
    EXPECT_EQ(echo.channel->stats().abandoned, 0U);
    // The measured stretch took every path: retransmission, replay from
    // the reply cache, and queueing behind a key's barrier.
    EXPECT_GT(echo.channel->stats().retransmits, warm.retransmits);
    EXPECT_GT(echo.replays, warm_replays);
    EXPECT_GT(echo.channel->stats().barrier_delays, warm.barrier_delays);
#endif
}

/// A kv client whose server never answers: every request times out.
struct SilentServer {
    sim::Network net{3};
    sim::Host* client_host{nullptr};
    sim::Host* silent{nullptr};

    SilentServer() {
        client_host = &net.add_host("client");
        silent = &net.add_host("silent");
        net.connect(*client_host, *silent, {});
    }
};

TEST(KvClientLifetime, DestroyingAClientWithArmedTimersAndQueuedRequestsIsSafe) {
    SilentServer fabric;
    auto client = std::make_unique<kv::KvClient>(*fabric.client_host, kv::KvConfig{},
                                                 fabric.silent->addr());
    const Key16 key{"k"};
    client->put(key, 1);          // in flight, RTO armed
    client->get(key);             // queued behind the write
    client->get(Key16{"other"});  // in flight, RTO armed
    EXPECT_EQ(client->outstanding(), 3U);
    EXPECT_EQ(client->channel().stats().barrier_delays, 1U);
    fabric.net.simulator().run_until(20 * sim::kMicrosecond);
    client.reset();
    // Every RTO still queued fires into the destroyed channel as a no-op.
    fabric.net.run();
    EXPECT_TRUE(fabric.net.simulator().idle());
}

TEST(KvClientLifetime, AbandonedRequestsLeaveOutstanding) {
    SilentServer fabric;
    kv::KvConfig config;
    config.retry.initial_rto = 20 * sim::kMicrosecond;
    config.retry.max_attempts = 2;
    kv::KvClient client{*fabric.client_host, config, fabric.silent->addr()};
    const Key16 key{"k"};
    client.put(key, 1);
    client.get(key);  // launched only once the write is abandoned
    client.get(Key16{"other"});
    EXPECT_EQ(client.outstanding(), 3U);
    fabric.net.run();
    EXPECT_EQ(client.outstanding(), 0U);
    EXPECT_EQ(client.channel().stats().abandoned, 3U);
    EXPECT_TRUE(client.log().empty());
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
    // tenant's results — on_frame() scopes each to its own slice.
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

    Claim on_frame(dp::PacketContext&, const sim::ParsedFrame&,
                   std::span<const std::byte>) override {
        ++offered;
        return Claim::kNotMine;
    }
    std::vector<std::uint16_t> claim_ports() const override { return ports_; }
    std::size_t sram_bytes() const override { return 0; }
    std::string name() const override { return name_; }

    std::size_t offered{0};

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
        router->install(2, std::array<dp::PortId, 1>{1});
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

/// Load `chip` with a one-tenant mux, the only program a chip runs.
void load_one_tenant(dp::PipelineSwitch& chip, std::shared_ptr<FabricRouter> router,
                     std::shared_ptr<TenantProgram> tenant) {
    auto mux = std::make_shared<SwitchProgramMux>(std::move(router));
    mux->add_tenant(std::move(tenant));
    chip.load_program(std::move(mux));
}

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
        load_one_tenant(chip, router, program);
        router->install(kServer, std::array<dp::PortId, 1>{1});
        router->install(kClient, std::array<dp::PortId, 1>{2});
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
            kv::decode_kv(frame->payload_of(out[0].payload())).value();
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

    // A write passes: slot invalidated.
    h.inject(h.put_msg(k, /*seq=*/7, 6), true);
    EXPECT_FALSE(h.get_hits(k));

    // The server's original ACK re-validates with its value.
    const kv::KvMessage ack = h.ack_msg(k, /*seq=*/7, 6);
    h.inject(ack, false);
    WireValue got{};
    EXPECT_TRUE(h.get_hits(k, &got));
    EXPECT_EQ(got, 6U);

    // The same identity again still carries the newest value.
    h.inject(ack, false);
    EXPECT_TRUE(h.get_hits(k, &got));
    EXPECT_EQ(got, 6U);

    // A *replayed* ACK must never re-validate: its recorded value may
    // be stale. It invalidates instead.
    h.inject(h.ack_msg(k, /*seq=*/8, 0xdead, /*replay=*/true), false);
    EXPECT_FALSE(h.get_hits(k)) << "a replay re-validated a slot";
}

TEST(KvSwitchIdempotence, LateOriginalAckNeverServesASupersededValue) {
    // The stale-read trace: PUT 10 is applied, but its original ACK
    // waits behind the server's busy worker while a spurious
    // retransmission is answered by an immediate replay. The client
    // moves on to PUT 46, which the controller installs from the store
    // over several promotion passes before its ACK leaves the worker.
    // When the late original ACK of 10 finally crosses, the switch must
    // not serve 10 again.
    ChipHarness h;
    sim::Network net{1};
    kv::KvStoreServer server{net.add_host("srv"), h.cfg};
    const Key16 k{"trace"};
    server.preload(k, 1);
    kv::KvCacheController controller{*h.program, server};
    ASSERT_TRUE(h.program->insert(k, 1));
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(h.get_hits(k));  // hot: stays cached

    h.inject(h.put_msg(k, /*seq=*/10, 10), true);
    server.preload(k, 10);  // applied; the original ACK is still queued
    h.inject(h.ack_msg(k, /*seq=*/10, 10, /*replay=*/true), false);
    h.inject(h.put_msg(k, /*seq=*/46, 46), true);
    server.preload(k, 46);
    WireValue got{};
    for (int pass = 0; pass < 3; ++pass) {
        controller.rebalance();
        if (h.get_hits(k, &got)) {
            EXPECT_EQ(got, 46U);
        }
    }
    h.inject(h.ack_msg(k, /*seq=*/46, 46), false);
    EXPECT_TRUE(h.get_hits(k, &got));
    EXPECT_EQ(got, 46U);

    h.inject(h.ack_msg(k, /*seq=*/10, 10), false);
    EXPECT_FALSE(h.get_hits(k, &got)) << "served " << got << " after a late ACK";
    controller.rebalance();
    EXPECT_TRUE(h.get_hits(k, &got));
    EXPECT_EQ(got, 46U);
}

TEST(KvSwitchIdempotence, InstallDuringAWriteServesTheSnapshotUntilItsAck) {
    ChipHarness h;
    WireValue got{};

    // A cached key: the PUT on the switch->server link armed last_put,
    // so its original ACK re-validates with the written value.
    const Key16 cached{"cached"};
    ASSERT_TRUE(h.program->insert(cached, 5));
    h.inject(h.put_msg(cached, /*seq=*/7, 6), true);
    EXPECT_FALSE(h.get_hits(cached));
    ASSERT_TRUE(h.program->insert(cached, 5));  // snapshot predates the PUT
    EXPECT_TRUE(h.get_hits(cached, &got));
    EXPECT_EQ(got, 5U);
    h.inject(h.ack_msg(cached, /*seq=*/7, 6), false);
    EXPECT_TRUE(h.get_hits(cached, &got));
    EXPECT_EQ(got, 6U);

    // A key promoted while its PUT is on the link: the fresh slot never
    // saw the PUT, so the ACK cannot vouch for its value and
    // invalidates.
    const Key16 fresh{"fresh"};
    h.inject(h.put_msg(fresh, /*seq=*/8, 9), true);
    ASSERT_TRUE(h.program->insert(fresh, 3));
    EXPECT_TRUE(h.get_hits(fresh, &got));
    EXPECT_EQ(got, 3U);
    h.inject(h.ack_msg(fresh, /*seq=*/8, 9), false);
    EXPECT_FALSE(h.get_hits(fresh));
}

/// A frame with the kv magic and size but an unknown op byte is not the
/// cache's: the chip forwards it unchanged, as plain traffic, instead of
/// throwing out of the pipeline.
TEST(KvSwitchIdempotence, UnknownOpCrossesAsPlainTraffic) {
    ChipHarness h;
    const Key16 k{"hot"};
    ASSERT_TRUE(h.program->insert(k, 5));
    for (const std::uint8_t op : {0, 5, 9, 255}) {
        kv::KvMessage get;
        get.op = kv::KvOp::kGet;
        get.req_id = op;
        get.seq = op;
        get.key = k;
        auto wire = kv::serialize_kv(get);
        wire[2] = std::byte{op};
        const FrameBuf frame = sim::build_udp_frame(ChipHarness::kClient, ChipHarness::kServer,
                                                    kv::kClientUdpPort, kv::kServerUdpPort,
                                                    wire);
        const std::vector<std::byte> sent(frame.bytes().begin(), frame.bytes().end());
        std::vector<dp::Packet> out;
        EXPECT_NO_THROW(out = h.chip.receive(dp::Packet{frame}, 2)) << int{op};
        ASSERT_EQ(out.size(), 1U) << int{op};
        EXPECT_EQ(out[0].meta().egress_port, 1U);  // on toward the server
        EXPECT_TRUE(std::ranges::equal(out[0].payload(), sent));
    }
    EXPECT_EQ(h.program->stats().gets_seen, 0U);
    EXPECT_TRUE(h.get_hits(k));  // the cache itself is untouched
}

// ----------------------------------------------- edge-cache admission

/// A bare edge-cache chip on a switch node with no links: GETs, PUTs,
/// replies and INVALIDATEs injected straight into its pipeline, and
/// the node's simulator clock moved by hand for the lease.
struct EdgeChipHarness {
    static constexpr sim::HostAddr kServer = 1;
    static constexpr sim::HostAddr kClient = 2;

    sim::Network net{1};
    sim::PipelineSwitchNode& node;
    std::shared_ptr<FabricRouter> router;
    std::shared_ptr<dir::EdgeCacheSwitchProgram> program;
    std::uint32_t next_req{1};

    explicit EdgeChipHarness(dir::EdgeCacheConfig cfg = small_config())
        : node{net.add_pipeline_switch("edge", ChipHarness::switch_config())} {
        router = std::make_shared<FabricRouter>(node.chip().sram(), 16);
        program = std::make_shared<dir::EdgeCacheSwitchProgram>(cfg, node, node.chip(),
                                                                 router);
        program->add_client(kClient);
        load_one_tenant(node.chip(), router, program);
        router->install(dir::kServiceVaddr, std::array<dp::PortId, 1>{1});
        router->install(kClient, std::array<dp::PortId, 1>{2});
        for (std::size_t r = 0; r < dir::kNumRanges; ++r) program->grant(r);
    }

    static dir::EdgeCacheConfig small_config() {
        dir::EdgeCacheConfig cfg;
        cfg.slots = 8;
        cfg.lease_ttl = 100 * sim::kMicrosecond;
        return cfg;
    }

    std::size_t slot_of(const Key16& key) const {
        return register_index_from_crc(Crc32::compute(key.bytes()),
                                       program->config().slots);
    }
    static std::size_t range_of(const Key16& key) {
        return dir::range_of_key(key, dir::kNumRanges);
    }
    /// The first key ("k0", "k1", ...) that `pred` accepts.
    template <typename Pred>
    static Key16 find_key(Pred pred) {
        for (int i = 0;; ++i) {
            const Key16 key{"k" + std::to_string(i)};
            if (pred(key)) return key;
        }
    }

    std::vector<dp::Packet> from_client(kv::KvOp op, const Key16& key,
                                        std::uint32_t seq, WireValue value = 0) {
        kv::KvMessage msg;
        msg.op = op;
        msg.req_id = next_req++;
        msg.seq = seq;
        msg.key = key;
        msg.value = value;
        return node.chip().receive(
            dp::Packet{sim::build_udp_frame(kClient, dir::kServiceVaddr,
                                            kv::kClientUdpPort, kv::kServerUdpPort,
                                            kv::serialize_kv(msg))},
            2);
    }

    /// Inject a GET; true (plus the value) if the edge answered it.
    bool get_hits(const Key16& key, std::uint32_t seq, WireValue* value = nullptr) {
        const auto out = from_client(kv::KvOp::kGet, key, seq);
        if (out.size() != 1) return false;
        const auto frame = sim::parse_frame(out[0].payload());
        if (!frame || !frame->udp || frame->ip.dst != kClient) return false;
        const kv::KvMessage reply =
            kv::decode_kv(frame->payload_of(out[0].payload())).value();
        if (reply.op != kv::KvOp::kGetReply || !reply.from_edge()) return false;
        if (value != nullptr) *value = reply.value;
        return true;
    }

    /// The server's original, found reply to the GET with `seq`.
    void reply(const Key16& key, std::uint32_t seq, WireValue value) {
        kv::KvMessage msg;
        msg.op = kv::KvOp::kGetReply;
        msg.flags = kv::kKvFlagFound;
        msg.req_id = next_req++;
        msg.seq = seq;
        msg.key = key;
        msg.value = value;
        node.chip().receive(
            dp::Packet{sim::build_udp_frame(kServer, kClient, kv::kServerUdpPort,
                                            kv::kClientUdpPort, kv::serialize_kv(msg))},
            1);
    }

    /// The directory's INVALIDATE for the PUT tagged `tag`.
    void invalidate(const Key16& key, std::uint64_t tag) {
        dir::DirectoryMessage msg;
        msg.op = dir::DirectoryOp::kInvalidate;
        msg.tag = tag;
        msg.key = key;
        node.chip().receive(
            dp::Packet{sim::build_udp_frame(kServer, program->vaddr(),
                                            dir::kDirectoryUdpPort,
                                            dir::kDirectoryUdpPort,
                                            dir::serialize_directory(msg))},
            1);
    }

    /// A missed GET and its reply: installs `value` for `key`.
    void install(const Key16& key, std::uint32_t seq, WireValue value) {
        EXPECT_FALSE(get_hits(key, seq));
        reply(key, seq, value);
        EXPECT_TRUE(program->holds(key));
    }

    const dir::EdgeCacheStats& stats() const { return program->stats(); }
};

TEST(EdgeCacheAdmission, ReplyAfterAnInvalidateIsRefusedAndCounted) {
    EdgeChipHarness h;
    const Key16 k{"hot"};
    ASSERT_FALSE(h.get_hits(k, 1));
    h.invalidate(k, transport::request_tag(7, 1));  // another edge's client wrote
    h.reply(k, 1, 5);
    EXPECT_EQ(h.stats().stale_refused, 1U);
    EXPECT_EQ(h.stats().cached, 0U);
    EXPECT_FALSE(h.get_hits(k, 2));

    // The next GET was forwarded after the invalidation: its reply installs.
    h.reply(k, 2, 6);
    WireValue got{};
    EXPECT_TRUE(h.get_hits(k, 3, &got));
    EXPECT_EQ(got, 6U);
    EXPECT_EQ(h.stats().stale_refused, 1U);
}

TEST(EdgeCacheAdmission, ReplySupersededByANewerGetIsIgnoredUncounted) {
    EdgeChipHarness h;
    const Key16 k{"hot"};
    ASSERT_FALSE(h.get_hits(k, 1));
    ASSERT_FALSE(h.get_hits(k, 2));
    h.reply(k, 1, 5);  // the older GET's reply may predate the newer one's
    EXPECT_FALSE(h.program->holds(k));
    EXPECT_EQ(h.stats().cached, 0U);
    EXPECT_EQ(h.stats().stale_refused, 0U);

    h.reply(k, 2, 6);
    WireValue got{};
    EXPECT_TRUE(h.get_hits(k, 3, &got));
    EXPECT_EQ(got, 6U);
    EXPECT_EQ(h.stats().cached, 1U);
    EXPECT_EQ(h.stats().stale_refused, 0U);
}

TEST(EdgeCacheAdmission, RevokeRefusesInFlightRepliesAndClearsOnlyItsRange) {
    EdgeChipHarness h;
    const Key16 a = EdgeChipHarness::find_key([](const Key16&) { return true; });
    const auto elsewhere = [&](const Key16& key) {
        return EdgeChipHarness::range_of(key) != EdgeChipHarness::range_of(a) &&
               h.slot_of(key) != h.slot_of(a);
    };
    const Key16 b = EdgeChipHarness::find_key(elsewhere);
    const Key16 c = EdgeChipHarness::find_key(
        [&](const Key16& key) { return elsewhere(key) && h.slot_of(key) != h.slot_of(b); });
    h.install(a, 1, 10);
    h.install(b, 2, 20);
    ASSERT_FALSE(h.get_hits(c, 3));  // c's reply is still in flight

    h.program->revoke(EdgeChipHarness::range_of(a));
    EXPECT_EQ(h.stats().revocations, 1U);
    EXPECT_FALSE(h.program->holds(a));
    EXPECT_TRUE(h.program->holds(b)) << "revoke cleared another range's entry";

    // Every in-flight reply is refused, even one for a granted range.
    h.reply(c, 3, 30);
    EXPECT_EQ(h.stats().stale_refused, 1U);
    EXPECT_FALSE(h.program->holds(c));

    // While the range is revoked, a fresh GET's reply installs nothing.
    EXPECT_FALSE(h.get_hits(a, 4));
    h.reply(a, 4, 11);
    EXPECT_FALSE(h.program->holds(a));
    h.program->grant(EdgeChipHarness::range_of(a));
    h.install(a, 5, 12);
    WireValue got{};
    EXPECT_TRUE(h.get_hits(a, 6, &got));
    EXPECT_EQ(got, 12U);
    EXPECT_EQ(h.stats().cached, 3U);
}

TEST(EdgeCacheAdmission, OwnClientPutInvalidatesInline) {
    EdgeChipHarness h;
    const Key16 k{"hot"};
    h.install(k, 1, 5);
    ASSERT_TRUE(h.get_hits(k, 2));

    // The PUT passes on toward the directory and clears the entry at once.
    EXPECT_EQ(h.from_client(kv::KvOp::kPut, k, 3, 6).size(), 1U);
    EXPECT_EQ(h.stats().invalidations, 1U);
    EXPECT_FALSE(h.program->holds(k));
    EXPECT_FALSE(h.get_hits(k, 4));

    // The PUT's own broadcast is not pre-marked: when it loops back it
    // still refuses the reply of a GET forwarded before it arrived.
    h.invalidate(k, transport::request_tag(EdgeChipHarness::kClient, 3));
    EXPECT_EQ(h.stats().duplicate_invalidations, 0U);
    h.reply(k, 4, 6);
    EXPECT_EQ(h.stats().stale_refused, 1U);
    EXPECT_FALSE(h.program->holds(k));
}

TEST(EdgeCacheAdmission, ExpiredLeaseCountsAsExpiredNotAsAHit) {
    EdgeChipHarness h;
    const Key16 k{"hot"};
    h.install(k, 1, 5);
    h.net.simulator().run_until(h.program->config().lease_ttl - 1);
    EXPECT_TRUE(h.get_hits(k, 2));
    h.net.simulator().run_until(h.program->config().lease_ttl);
    EXPECT_FALSE(h.get_hits(k, 3));
    EXPECT_EQ(h.stats().hits, 1U);
    EXPECT_EQ(h.stats().expired, 1U);
    EXPECT_EQ(h.stats().misses, 2U);  // the install's GET and the expired one

    // The expired GET's reply renews the lease.
    h.reply(k, 3, 6);
    WireValue got{};
    EXPECT_TRUE(h.get_hits(k, 4, &got));
    EXPECT_EQ(got, 6U);
}

TEST(EdgeCacheAdmission, CollidingKeyNeverEvictsALiveLease) {
    EdgeChipHarness h;
    const Key16 a{"hot"};
    const Key16 b = EdgeChipHarness::find_key(
        [&](const Key16& key) { return key != a && h.slot_of(key) == h.slot_of(a); });
    h.install(a, 1, 10);
    EXPECT_FALSE(h.get_hits(b, 2));
    h.reply(b, 2, 20);
    EXPECT_TRUE(h.program->holds(a));
    EXPECT_FALSE(h.program->holds(b));
    EXPECT_EQ(h.stats().cached, 1U);
    EXPECT_EQ(h.stats().stale_refused, 0U);

    // Once a's lease ran out, b takes the slot.
    h.net.simulator().run_until(h.program->config().lease_ttl);
    h.install(b, 3, 21);
    EXPECT_FALSE(h.program->holds(a));
    WireValue got{};
    EXPECT_TRUE(h.get_hits(b, 4, &got));
    EXPECT_EQ(got, 21U);
}

TEST(EdgeCacheAdmission, ZeroLeaseIsRejectedAtConstruction) {
    dir::EdgeCacheConfig cfg = EdgeChipHarness::small_config();
    cfg.lease_ttl = 0;
    EXPECT_DEATH(EdgeChipHarness{cfg}, "precondition");
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

    // Any key is still promotable and hittable after the storm.
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
