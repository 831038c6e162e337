// Fabric-level fuzz: every host sends mutated copies of real payloads,
// in frames with valid headers, while the tenants of the fattree_mix
// and kv_shard_lossy workloads carry their traffic. No exception may
// leave Simulator::run, every run must reach quiescence, and the kv
// read-your-writes, kv value-parity and aggregation oracles must hold.
// Two fixed cases replay payloads that once passed a magic-and-size
// check and then threw from the parser behind it; a third forges
// telemetry reports that once displaced the collector's genuine ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "directory/protocol.hpp"
#include "directory/sharded_service.hpp"
#include "kvcache/protocol.hpp"
#include "kvcache/service.hpp"
#include "runtime/job_driver.hpp"
#include "telemetry/protocol.hpp"
#include "telemetry/service.hpp"

namespace daiet {
namespace {

using Bytes = std::vector<std::byte>;

Bytes bytes_of(std::span<const std::byte> s) { return {s.begin(), s.end()}; }

// ------------------------------------------------------ real payloads

Bytes kv_wire(kv::KvOp op, std::uint8_t flags) {
    kv::KvMessage msg;
    msg.op = op;
    msg.flags = flags;
    msg.req_id = 3;
    msg.seq = 3;
    msg.key = kv::KvService::key_of(5);
    msg.value = 0xA5A5;
    return bytes_of(kv::serialize_kv(msg));
}

std::vector<Bytes> kv_requests() {
    return {kv_wire(kv::KvOp::kGet, 0), kv_wire(kv::KvOp::kPut, 0)};
}

std::vector<Bytes> kv_replies() {
    return {kv_wire(kv::KvOp::kGetReply, kv::kKvFlagFound),
            kv_wire(kv::KvOp::kPutAck, kv::kKvFlagFound | kv::kKvFlagReplay)};
}

std::vector<Bytes> directory_messages() {
    std::vector<Bytes> out;
    for (const dir::DirectoryOp op : {dir::DirectoryOp::kNack, dir::DirectoryOp::kInvalidate}) {
        dir::DirectoryMessage msg;
        msg.op = op;
        msg.seq = 3;
        msg.tag = 0x0000000400000003ULL;
        msg.key = kv::KvService::key_of(5);
        out.push_back(bytes_of(dir::serialize_directory(msg)));
    }
    return out;
}

std::vector<Bytes> telemetry_probes() { return {telemetry::serialize_probe(3, 2)}; }

std::vector<Bytes> telemetry_reports() {
    using namespace telemetry;
    const std::vector<PortStatRecord> ports{{.port = 1, .frames = 9}, {.port = 2}};
    const std::vector<HotKeyRecord> keys{{kv::KvService::key_of(5), 40}};
    return {serialize_summary(3, 2, SummaryRecord{.frames_observed = 7}),
            serialize_port_stats(3, 2, ports), serialize_hot_keys(3, 2, keys)};
}

std::vector<Bytes> daiet_packets(TreeId tree) {
    const std::vector<KvPair> pairs{{Key16{"agg:a"}, 1}, {Key16{"agg:b"}, 2}};
    return {serialize_data(tree, pairs), bytes_of(serialize_end(tree, 2))};
}

// ------------------------------------------------------------ injector

/// Where hostile copies of `payloads` go, and on which ports.
struct Target {
    sim::HostAddr dst;
    std::uint16_t src_port;
    std::uint16_t dst_port;
    std::vector<Bytes> payloads;
};

/// Every `period` from `from` to `until`, each host sends one mutated
/// copy of a real payload to a seeded choice of target, in a frame
/// built by build_udp_frame: the headers stay valid, the payload is
/// hostile. A mutant that still decodes as a kv or DAIET message is not
/// sent: from a stranger it would be a forged request, reply or pair
/// packet, which no decoder can tell from a real one, and it would
/// rewrite the values the oracles check. Directory and telemetry
/// mutants that decode are sent: a NACK only hurries a retry, an
/// invalidation only evicts, and probes and reports move telemetry
/// windows, not values.
class HostileInjector {
public:
    HostileInjector(rt::ClusterRuntime& rt, std::vector<Target> targets, std::uint64_t seed)
        : rt_{&rt}, targets_{std::move(targets)}, rng_{seed} {}

    void start(sim::SimTime from, sim::SimTime period, sim::SimTime until) {
        period_ = period;
        until_ = until;
        for (std::size_t h = 0; h < rt_->hosts().size(); ++h) {
            rt_->simulator().schedule_at(from + 37 * h * sim::kNanosecond,
                                         [this, h] { fire(h); });
        }
    }

    std::size_t sent() const noexcept { return sent_; }

private:
    void fire(std::size_t h) {
        const Target& target = targets_[rng_.next_below(targets_.size())];
        const Bytes& real = target.payloads[rng_.next_below(target.payloads.size())];
        if (const std::optional<Bytes> m = mutant(real)) {
            sim::Host& host = rt_->host(h);
            host.send_frame(sim::build_udp_frame(host.addr(), target.dst, target.src_port,
                                                 target.dst_port, *m));
            ++sent_;
        }
        if (rt_->now() + period_ <= until_) {
            rt_->simulator().schedule_after(period_, [this, h] { fire(h); });
        }
    }

    std::optional<Bytes> mutant(const Bytes& real) {
        Bytes m = real;
        switch (rng_.next_below(5)) {
            case 0:  // byte flips, half of them in the header
                for (std::uint64_t k = 1 + rng_.next_below(4); k > 0; --k) {
                    const std::size_t reach = rng_.next_below(2) == 0
                                                  ? std::min<std::size_t>(m.size(), 16)
                                                  : m.size();
                    m[rng_.next_below(reach)] ^= static_cast<std::byte>(1 + rng_.next_below(255));
                }
                break;
            case 1:  // any op byte
                m[2] = static_cast<std::byte>(rng_.next_below(256));
                break;
            case 2:  // any count byte (telemetry records, DAIET pairs)
                m[rng_.next_below(2) == 0 ? 3 : 5] = static_cast<std::byte>(rng_.next_below(256));
                break;
            case 3:  // truncated
                m.resize(rng_.next_below(m.size()));
                break;
            default:  // random tail
                for (std::uint64_t k = 1 + rng_.next_below(64); k > 0; --k) {
                    m.push_back(static_cast<std::byte>(rng_.next_below(256)));
                }
                break;
        }
        if (kv::decode_kv(m) || decode_daiet(m)) return std::nullopt;
        return m;
    }

    rt::ClusterRuntime* rt_;
    std::vector<Target> targets_;
    Rng rng_;
    sim::SimTime period_{0};
    sim::SimTime until_{0};
    std::size_t sent_{0};
};

// -------------------------------------------------------- kv oracles

/// A closed loop of `window` outstanding requests per client that
/// checks read-your-writes: with one writer per key and the client's
/// per-key write barrier, every GET returns the client's last PUT to
/// the key issued before it, or the preload value.
class ClosedLoop {
public:
    ClosedLoop(sim::Simulator& sim, kv::KvService& svc, const kv::KvWorkload& wl,
               std::size_t window)
        : svc_{&svc}, window_{window}, loops_(svc.num_clients()) {
        for (std::size_t ci = 0; ci < loops_.size(); ++ci) {
            loops_[ci].ops = kv::client_op_stream(wl, ci, loops_.size());
            loops_[ci].ids.assign(loops_[ci].ops.size(), 0);
            svc.client(ci).on_reply = [this, ci](const kv::KvClient::OpRecord&) {
                --loops_[ci].inflight;
                pump(ci);
            };
            sim.schedule_at((1 + ci) * 500 * sim::kNanosecond, [this, ci] { pump(ci); });
        }
    }
    ~ClosedLoop() {
        for (std::size_t ci = 0; ci < loops_.size(); ++ci) svc_->client(ci).on_reply = nullptr;
    }

    /// GETs that read anything else, plus requests that never completed.
    std::size_t violations() const {
        std::size_t bad = 0;
        for (std::size_t ci = 0; ci < loops_.size(); ++ci) {
            const Loop& loop = loops_[ci];
            std::map<std::uint32_t, WireValue> expected;  // GET req id -> value
            std::map<Key16, WireValue> latest;
            for (std::size_t k = 0; k < loop.ops.size(); ++k) {
                const kv::KvOpSpec& op = loop.ops[k];
                if (!op.is_get) {
                    latest[op.key] = op.value;
                    continue;
                }
                const auto it = latest.find(op.key);
                expected[loop.ids[k]] =
                    it != latest.end() ? it->second
                                       : kv::KvService::preload_value_of(op.key.to_u64() - 1);
            }
            const auto& log = svc_->client(ci).log();
            bad += loop.ops.size() - std::min(loop.ops.size(), log.size());
            for (const kv::KvClient::OpRecord& rec : log) {
                if (rec.op != kv::KvOp::kGet) continue;
                const auto it = expected.find(rec.req_id);
                if (!rec.found || it == expected.end() || it->second != rec.value) ++bad;
            }
        }
        return bad;
    }

private:
    struct Loop {
        std::vector<kv::KvOpSpec> ops;
        std::vector<std::uint32_t> ids;  ///< req id each op was issued under
        std::size_t next{0};
        std::size_t inflight{0};
    };

    void pump(std::size_t ci) {
        Loop& loop = loops_[ci];
        while (loop.inflight < window_ && loop.next < loop.ops.size()) {
            const std::size_t k = loop.next++;
            const kv::KvOpSpec& op = loop.ops[k];
            ++loop.inflight;
            loop.ids[k] = op.is_get ? svc_->client(ci).get(op.key)
                                    : svc_->client(ci).put(op.key, op.value);
        }
    }

    kv::KvService* svc_;
    std::size_t window_;
    std::vector<Loop> loops_;
};

kv::KvWorkload closed_loop_workload(std::uint64_t seed) {
    kv::KvWorkload wl;
    wl.num_keys = 512;
    wl.zipf_s = 0.99;
    wl.requests_per_client = 200;
    wl.get_fraction = 0.75;
    wl.partition_keys = true;
    wl.seed = seed;
    return wl;
}

/// Hostile kv requests to every server, and kv replies and directory
/// messages to every client, from the server and the directory ports.
std::vector<Target> kv_targets(const rt::ClusterRuntime& rt,
                               const std::vector<std::size_t>& server_hosts,
                               const std::vector<std::size_t>& client_hosts) {
    std::vector<Target> out;
    for (const std::size_t s : server_hosts) {
        out.push_back({rt.host(s).addr(), kv::kClientUdpPort, kv::kServerUdpPort,
                       kv_requests()});
    }
    std::vector<Bytes> to_clients = kv_replies();
    for (Bytes& m : directory_messages()) to_clients.push_back(std::move(m));
    for (const std::size_t c : client_hosts) {
        out.push_back({rt.host(c).addr(), kv::kServerUdpPort, kv::kClientUdpPort, to_clients});
        out.push_back({rt.host(c).addr(), dir::kDirectoryUdpPort, kv::kClientUdpPort,
                       to_clients});
    }
    return out;
}

// ------------------------------------- fattree_mix: aggregation + rack cache

TEST(FabricFuzz, FatTreeAggregationAndRackCacheSurviveHostilePayloads) {
    constexpr sim::SimTime kPeriod = 2 * sim::kMicrosecond;
    for (const std::uint64_t seed : {1, 7, 29}) {
        SCOPED_TRACE(seed);
        rt::ClusterOptions opts;
        opts.topology = rt::TopologyKind::kFatTree;
        opts.fat_tree_k = 4;
        opts.num_hosts = 16;
        opts.seed = seed;
        rt::ClusterRuntime rt{opts};

        // kv: server on host 0, a client on every fourth host, the rack
        // cache and its promotion passes live.
        const std::vector<std::size_t> servers{0};
        const std::vector<std::size_t> clients{1, 5, 9, 13};
        kv::KvService svc{rt, kv::KvServiceOptions{{}, 0, clients}};
        const kv::KvWorkload wl = closed_loop_workload(seed);
        svc.preload(wl.num_keys);
        const ClosedLoop loop{rt.simulator(), svc, wl, 8};
        const sim::SimTime horizon = wl.requests_per_client * 40 * sim::kMicrosecond;
        for (sim::SimTime at = 100 * sim::kMicrosecond; at <= horizon;
             at += 100 * sim::kMicrosecond) {
            rt.simulator().schedule_at(at, [&svc] { svc.rebalance_racks(); });
        }

        // Aggregation: two groups, reducers on hosts 2 and 6, mappers on
        // hosts 3 (mod 4), two rounds.
        rt::JobSpec spec;
        spec.groups.push_back({&rt.host(2), {&rt.host(3), &rt.host(7)}});
        spec.groups.push_back({&rt.host(6), {&rt.host(11), &rt.host(15)}});
        rt::JobDriver driver{rt, spec};
        std::vector<Target> targets = kv_targets(rt, servers, clients);
        for (std::size_t g = 0; g < spec.groups.size(); ++g) {
            targets.push_back({spec.groups[g].reducer->addr(), kMapperUdpPort, kDaietUdpPort,
                               daiet_packets(driver.tree(g))});
        }
        HostileInjector injector{rt, targets, seed};

        Rng rng{seed};
        for (std::size_t round = 0; round < 2; ++round) {
            // pairs[g][m] and their per-group sums.
            std::vector<std::vector<std::vector<KvPair>>> pairs(
                2, std::vector<std::vector<KvPair>>(2));
            std::vector<std::map<Key16, WireValue>> sums(2);
            for (std::size_t g = 0; g < 2; ++g) {
                for (std::size_t m = 0; m < 2; ++m) {
                    for (int p = 0; p < 300; ++p) {
                        const Key16 key = Key16::from_u64(0x6000 + (g << 8) + rng.next_below(97));
                        const auto value = static_cast<WireValue>(1 + rng.next_below(255));
                        pairs[g][m].push_back({key, value});
                        sums[g][key] += value;
                    }
                }
            }
            driver.begin_round();
            rt::JobDriver::Receivers rx = driver.bind_receivers();
            driver.schedule_sends([&pairs](std::size_t g, std::size_t m, MapperSender& tx) {
                tx.send_all(pairs[g][m]);
            });
            const sim::SimTime start = rt.now();
            injector.start(start, kPeriod,
                           start + (round == 0 ? horizon : 200 * sim::kMicrosecond));
            ASSERT_NO_THROW(driver.run_to_quiescence());
            ASSERT_NO_THROW(driver.verify(rx));
            for (std::size_t g = 0; g < 2; ++g) {
                std::map<Key16, WireValue> got;
                for (const KvPair& p : rx[g]->sorted_result()) got.emplace(p.key, p.value);
                EXPECT_EQ(got, sums[g]);
            }
            driver.collect(rx);
        }
        EXPECT_EQ(loop.violations(), 0U);
        EXPECT_GT(injector.sent(), 1000U);
        std::uint64_t malformed = 0;
        for (const sim::PipelineSwitchNode* sw : rt.daiet_switches()) {
            malformed += rt.program_at(sw->id())->drop_stats().malformed;
        }
        EXPECT_GT(malformed, 0U);
    }
}

// ------------- kv_shard_lossy: directory, edge caches, telemetry

rt::ClusterOptions leaf_spine(std::size_t n_leaf, std::size_t hosts) {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = n_leaf;
    opts.n_spine = 2;
    opts.num_hosts = hosts;
    // Smaller aggregation registers leave chip SRAM for the kv tenants.
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    return opts;
}

/// Everything kv_targets() hits, plus the service vaddr (edge caches
/// and the directory), every edge vaddr, every switch's telemetry
/// vaddr and the collector.
std::vector<Target> sharded_targets(const rt::ClusterRuntime& rt, dir::ShardedKvService& svc,
                                    const std::vector<std::size_t>& servers,
                                    const std::vector<std::size_t>& clients,
                                    std::size_t collector) {
    std::vector<Target> out = kv_targets(rt, servers, clients);
    out.push_back({dir::kServiceVaddr, kv::kClientUdpPort, kv::kServerUdpPort, kv_requests()});
    for (std::size_t e = 0; e < svc.num_edges(); ++e) {
        out.push_back({svc.edge(e).vaddr(), dir::kDirectoryUdpPort, dir::kDirectoryUdpPort,
                       directory_messages()});
    }
    std::vector<Bytes> telemetry = telemetry_probes();
    for (Bytes& m : telemetry_reports()) telemetry.push_back(std::move(m));
    for (const sim::PipelineSwitchNode* sw : rt.daiet_switches()) {
        out.push_back({telemetry::switch_vaddr(sw->id()), telemetry::kCollectorUdpPort,
                       telemetry::kTelemetryUdpPort, telemetry});
    }
    out.push_back({rt.host(collector).addr(), telemetry::kTelemetryUdpPort,
                   telemetry::kCollectorUdpPort, telemetry});
    return out;
}

TEST(FabricFuzz, ShardedKvOnALossyFabricSurvivesHostilePayloads) {
    constexpr std::size_t kCollector = 1;
    const std::vector<std::size_t> servers{0, 4, 8, 12};
    std::vector<std::size_t> clients;
    for (std::size_t h = 16; h < 32; ++h) clients.push_back(h);
    for (const std::uint64_t seed : {1, 7, 29}) {
        SCOPED_TRACE(seed);
        rt::ClusterOptions opts = leaf_spine(8, 32);
        opts.link.loss_probability = 0.01;
        opts.seed = seed;
        rt::ClusterRuntime rt{opts};
        telemetry::TelemetryService tel{rt, {.collector_host = kCollector}};
        dir::ShardedKvOptions kopts;
        kopts.config.cache_slots = 64;
        kopts.server_hosts = servers;
        kopts.client_hosts = clients;
        dir::ShardedKvService svc{rt, kopts};
        const kv::KvWorkload wl = closed_loop_workload(seed);
        svc.preload(wl.num_keys);
        const ClosedLoop loop{rt.simulator(), svc.core(), wl, 8};
        const sim::SimTime horizon = wl.requests_per_client * 40 * sim::kMicrosecond;
        for (sim::SimTime at = 100 * sim::kMicrosecond; at <= horizon;
             at += 100 * sim::kMicrosecond) {
            rt.simulator().schedule_at(at, [&svc] { svc.rebalance_racks(); });
        }
        tel.start(100 * sim::kMicrosecond, horizon);
        svc.schedule_rebalances(1000 * sim::kMicrosecond, horizon,
                                tel.collector().hot_key_source_for(svc.directory_node()));
        HostileInjector injector{rt, sharded_targets(rt, svc, servers, clients, kCollector),
                                 seed};
        injector.start(0, 2 * sim::kMicrosecond, horizon);

        ASSERT_NO_THROW(rt.run());
        EXPECT_EQ(loop.violations(), 0U);
        EXPECT_GT(injector.sent(), 10000U);
        EXPECT_GT(svc.directory().stats().foreign_dropped, 0U);
    }
}

TEST(FabricFuzz, ShardedValuesMatchTheUnshardedReferenceUnderHostilePayloads) {
    kv::KvWorkload wl;
    wl.num_keys = 256;
    wl.zipf_s = 0.9;
    wl.requests_per_client = 150;
    wl.get_fraction = 0.8;
    wl.partition_keys = true;  // single writer+reader per key
    wl.request_interval = 15 * sim::kMicrosecond;
    wl.rebalance_interval = 50 * sim::kMicrosecond;
    const std::vector<std::size_t> servers{0, 2};
    const std::vector<std::size_t> clients{4, 5, 6, 7};
    using Signature = std::vector<std::tuple<std::uint32_t, kv::KvOp, Key16, WireValue>>;
    const auto signature = [](kv::KvService& svc) {
        Signature out;
        for (std::size_t c = 0; c < svc.num_clients(); ++c) {
            for (const auto& rec : svc.client(c).log()) {
                out.emplace_back(rec.req_id, rec.op, rec.key, rec.value);
            }
        }
        std::sort(out.begin(), out.end());
        return out;
    };

    Signature reference;
    {
        rt::ClusterRuntime rt{leaf_spine(4, 8)};
        kv::KvService svc{rt, kv::KvServiceOptions{{.cache_slots = 0}, 0, clients}};
        svc.run(wl);
        reference = signature(svc);
    }
    ASSERT_EQ(reference.size(), clients.size() * wl.requests_per_client);
    for (const std::uint64_t seed : {1, 7, 29}) {
        SCOPED_TRACE(seed);
        rt::ClusterRuntime rt{leaf_spine(4, 8)};
        telemetry::TelemetryService tel{rt, {.collector_host = 1}};
        dir::ShardedKvOptions kopts;
        kopts.server_hosts = servers;
        kopts.client_hosts = clients;
        dir::ShardedKvService svc{rt, kopts};
        HostileInjector injector{rt, sharded_targets(rt, svc, servers, clients, 1), seed};
        injector.start(0, 2 * sim::kMicrosecond, 3 * sim::kMillisecond);
        ASSERT_NO_THROW(svc.run(wl));
        EXPECT_EQ(signature(svc.core()), reference);
        EXPECT_GT(injector.sent(), 1000U);
    }
}

// ----------------------------------------------------------- fixed cases

/// Sends `payload` from a client host to that client's edge cache, to
/// the telemetry tenant on the same ToR, to the collector and to
/// another client while a short workload starts: the fabric must reach
/// quiescence with no exception out of run() and answer every request.
void expect_survives_everywhere(std::span<const std::byte> payload) {
    rt::ClusterRuntime rt{leaf_spine(4, 8)};
    telemetry::TelemetryService tel{rt, {.collector_host = 1}};
    dir::ShardedKvOptions kopts;
    kopts.server_hosts = {0, 2};
    kopts.client_hosts = {4, 5, 6, 7};
    dir::ShardedKvService svc{rt, kopts};

    sim::Host& from = rt.host(4);
    const sim::NodeId tor = rt.network().edge_switch_of(from)->id();
    const std::tuple<sim::HostAddr, std::uint16_t, std::uint16_t> targets[] = {
        {dir::edge_vaddr(tor), dir::kDirectoryUdpPort, dir::kDirectoryUdpPort},
        {telemetry::switch_vaddr(tor), telemetry::kCollectorUdpPort,
         telemetry::kTelemetryUdpPort},
        {rt.host(1).addr(), telemetry::kTelemetryUdpPort, telemetry::kCollectorUdpPort},
        {rt.host(5).addr(), dir::kDirectoryUdpPort, kv::kClientUdpPort},
    };
    for (const auto& [dst, src_port, dst_port] : targets) {
        from.send_frame(sim::build_udp_frame(from.addr(), dst, src_port, dst_port, payload));
    }
    kv::KvWorkload wl;
    wl.num_keys = 64;
    wl.requests_per_client = 20;
    wl.request_interval = 15 * sim::kMicrosecond;
    kv::KvRunStats stats;
    ASSERT_NO_THROW(stats = svc.run(wl));
    EXPECT_EQ(tel.collector().stats().report_frames_rx, 0U);
    EXPECT_GT(stats.gets_sent, 0U);
    EXPECT_EQ(stats.get_replies, stats.gets_sent);
    EXPECT_EQ(stats.abandoned, 0U);
}

TEST(FabricFuzz, DirectoryWireWithAnUnknownOpIsDroppedEverywhere) {
    dir::DirectoryMessage inval;
    inval.op = dir::DirectoryOp::kInvalidate;
    inval.key = kv::KvService::key_of(5);
    auto wire = dir::serialize_directory(inval);
    wire[2] = std::byte{9};  // valid magic and size, op 9
    expect_survives_everywhere(wire);
}

TEST(FabricFuzz, PortStatsWithMissingRecordsAreDroppedEverywhere) {
    auto wire = telemetry::serialize_port_stats(3, 2, {});
    wire[3] = std::byte{5};  // five records declared, none present
    expect_survives_everywhere(wire);
}

// A report for a window the collector never probed once replaced the
// switch's view, so every genuine report after it counted as stale; one
// from a switch that is not a target once gained a view of its own.
TEST(FabricFuzz, ForgedTelemetryReportsLeaveTheViewsToGenuineOnes) {
    rt::ClusterRuntime rt{leaf_spine(4, 8)};
    telemetry::TelemetryService tel{rt, {.collector_host = 1}};
    sim::Host& from = rt.host(4);
    const sim::NodeId tor = rt.network().edge_switch_of(from)->id();
    constexpr sim::NodeId kStranger = 9999;
    for (const auto& [node, window] : {std::pair{tor, 1'000'000U}, std::pair{kStranger, 1U}}) {
        from.send_frame(sim::build_udp_frame(
            from.addr(), rt.host(1).addr(), telemetry::kTelemetryUdpPort,
            telemetry::kCollectorUdpPort,
            telemetry::serialize_summary(node, window, {.frames_observed = 7})));
    }
    tel.start(100 * sim::kMicrosecond, 1 * sim::kMillisecond);
    ASSERT_NO_THROW(rt.run());

    const telemetry::CollectorStats& stats = tel.collector().stats();
    EXPECT_EQ(stats.unrequested_frames, 2U);
    EXPECT_EQ(stats.stale_frames, 0U);
    EXPECT_EQ(tel.collector().view(kStranger), nullptr);
    const telemetry::SwitchView* view = tel.collector().view(tor);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->window, stats.polls);  // the last probed window
}

}  // namespace
}  // namespace daiet
