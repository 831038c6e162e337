// Tests for the directory tenant and the sharded kv service: wire
// protocol, request steering to the owning rack, NACK-driven retry
// across unowned ranges, edge reply caches (lease grant/expiry,
// invalidate-on-PUT, stale-reply refusal), live range migration, and
// value parity between a sharded run and the unsharded reference,
// read-your-writes under rack-cache promotion, and the metrics and
// counter tracks both kv deployments publish.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "directory/sharded_service.hpp"
#include "kvcache/service.hpp"
#include "runtime/sampler.hpp"
#include "telemetry/service.hpp"
#include "trace/metrics.hpp"
#include "trace/timeseries.hpp"

namespace daiet::dir {
namespace {

// ------------------------------------------------------------- protocol

TEST(DirProtocol, RoundTripsBothOps) {
    for (const DirectoryOp op : {DirectoryOp::kNack, DirectoryOp::kInvalidate}) {
        DirectoryMessage msg;
        msg.op = op;
        msg.seq = 0xfeedf00d;
        msg.tag = 0x0102030405060708ULL;
        msg.key = Key16{"user:nack"};
        const auto wire = serialize_directory(msg);
        ASSERT_EQ(wire.size(), kDirectoryMessageSize);
        EXPECT_EQ(decode_directory(wire), msg);
    }
}

TEST(DirProtocol, RejectsForeignTraffic) {
    const auto kv_wire = kv::serialize_kv(kv::KvMessage{});
    EXPECT_FALSE(decode_directory(kv_wire));
    std::vector<std::byte> truncated{8, std::byte{0}};
    EXPECT_FALSE(decode_directory(truncated));
}

TEST(DirProtocol, RangePartitionIsStableAndTotal) {
    constexpr std::size_t kRanges = 64;
    std::vector<std::size_t> per_range(kRanges, 0);
    for (std::size_t i = 0; i < 4096; ++i) {
        const Key16 key = kv::KvService::key_of(i);
        const std::size_t r = range_of_key(key, kRanges);
        ASSERT_LT(r, kRanges);
        EXPECT_EQ(r, range_of_key(key, kRanges));  // deterministic
        ++per_range[r];
    }
    // The scrambled hash spreads sequential keys: no range may be
    // starved or own a quarter of the keyspace.
    for (const std::size_t n : per_range) {
        EXPECT_GT(n, 0u);
        EXPECT_LT(n, 4096u / 4);
    }
}

// -------------------------------------------------------------- helpers

rt::ClusterOptions fabric(std::size_t n_leaf, std::size_t hosts) {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = n_leaf;
    opts.n_spine = 2;
    opts.num_hosts = hosts;
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    return opts;
}

/// 4 leaves x 2 hosts: servers on leaf0/leaf1 (hosts 0, 2), clients on
/// leaf2/leaf3 (hosts 4..7).
ShardedKvOptions two_rack_options() {
    ShardedKvOptions opts;
    opts.server_hosts = {0, 2};
    opts.client_hosts = {4, 5, 6, 7};
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

// ------------------------------------------------------------- steering

TEST(Directory, SteersRequestsToTheOwningRack) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvOptions opts = two_rack_options();
    opts.config.cache_slots = 0;  // every request must reach its server
    opts.edge.slots = 0;
    ShardedKvService svc{rt, opts};

    kv::KvWorkload wl;
    wl.num_keys = 256;
    wl.zipf_s = 0.0;
    wl.requests_per_client = 100;
    wl.get_fraction = 1.0;
    wl.rebalance_interval = 0;
    // Below the racks' aggregate saturation knee: counters stay exact
    // (a retransmission would re-cross the directory and re-count).
    wl.request_interval = 60 * sim::kMicrosecond;
    const ShardedKvRunStats stats = svc.run(wl);
    EXPECT_EQ(stats.retransmits, 0u);

    // Every GET answered, every value the preloaded one.
    EXPECT_EQ(stats.get_replies, stats.gets_sent);
    EXPECT_EQ(stats.abandoned, 0u);
    for (std::size_t c = 0; c < svc.num_clients(); ++c) {
        for (const auto& rec : svc.client(c).log()) {
            ASSERT_TRUE(rec.found);
            std::uint64_t i = rec.key.to_u64() - 1;
            EXPECT_EQ(rec.value, kv::KvService::preload_value_of(i));
        }
    }
    // Both racks served traffic (the partition is spread), the
    // directory steered every request, nothing was bounced.
    EXPECT_EQ(stats.server_gets, stats.gets_sent);
    EXPECT_GT(svc.server(0).stats().gets, 0u);
    EXPECT_GT(svc.server(1).stats().gets, 0u);
    EXPECT_EQ(stats.directory.gets_steered, stats.gets_sent);
    EXPECT_EQ(stats.directory.nacks, 0u);

    // Each server holds exactly the keys its shard owns.
    for (std::size_t i = 0; i < wl.num_keys; ++i) {
        const Key16 key = kv::KvService::key_of(i);
        const std::size_t range = range_of_key(key, svc.directory().num_ranges());
        const int shard = svc.controller().shard_of(range);
        ASSERT_GE(shard, 0);
        EXPECT_TRUE(
            svc.server(static_cast<std::size_t>(shard)).store().contains(key));
        EXPECT_FALSE(
            svc.server(static_cast<std::size_t>(1 - shard)).store().contains(key));
    }
}

TEST(Directory, SramReportListsTheDirectoryTenant) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    // The mux on the directory chip must carry the owner table in its
    // per-tenant SRAM ledger, charged like any other tenant's state.
    auto* tenant = rt.tenant_at(svc.directory_node(), svc.directory().name());
    ASSERT_NE(tenant, nullptr);
    EXPECT_EQ(tenant, &svc.directory());
    EXPECT_GT(svc.directory().sram_bytes(), 0u);
    // Edge caches appear in their own chips' ledgers too.
    ASSERT_GT(svc.num_edges(), 0u);
    EXPECT_GT(svc.edge(0).sram_bytes(), 0u);
}

// ------------------------------------------------------- NACK and retry

TEST(Directory, NackedRequestsSelfCorrectAfterTheOwnerReturns) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvOptions opts = two_rack_options();
    opts.edge.slots = 0;
    ShardedKvService svc{rt, opts};
    svc.preload(16);

    const Key16 key = kv::KvService::key_of(3);
    const std::size_t range = range_of_key(key, svc.directory().num_ranges());
    const sim::HostAddr owner = svc.directory().owner_of(range);
    ASSERT_NE(owner, 0u);

    sim::Simulator& sim = rt.simulator();
    // Unown the range, fire a GET into the gap, restore the owner
    // 150us later: the NACK-nudged retries must land it.
    svc.directory().set_owner(range, 0);
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(160 * sim::kMicrosecond,
                    [&] { svc.directory().set_owner(range, owner); });
    rt.run();

    const kv::KvClient::Stats stats = svc.client(0).stats();
    EXPECT_EQ(stats.get_replies, 1u);
    EXPECT_GE(stats.nacks, 1u);
    EXPECT_GE(stats.nack_retries, 1u);
    ASSERT_EQ(svc.client(0).log().size(), 1u);
    EXPECT_EQ(svc.client(0).log()[0].value, kv::KvService::preload_value_of(3));
    EXPECT_GE(svc.directory().stats().nacks, 1u);
}

// ----------------------------------------------------------- edge cache

TEST(EdgeCache, RepeatGetsServeFromTheClientTor) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(16);

    const Key16 key = kv::KvService::key_of(5);
    sim::Simulator& sim = rt.simulator();
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(100 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    // A *different* client behind the same ToR shares the lease.
    sim.schedule_at(150 * sim::kMicrosecond, [&] { svc.client(1).get(key); });
    rt.run();

    ASSERT_EQ(svc.client(0).log().size(), 2u);
    EXPECT_FALSE(svc.client(0).log()[0].from_edge);
    EXPECT_TRUE(svc.client(0).log()[1].from_edge);
    ASSERT_EQ(svc.client(1).log().size(), 1u);
    EXPECT_TRUE(svc.client(1).log()[0].from_edge);
    for (const auto& rec : svc.client(0).log()) {
        EXPECT_EQ(rec.value, kv::KvService::preload_value_of(5));
    }
}

TEST(EdgeCache, LeaseExpiryFallsBackToTheService) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvOptions opts = two_rack_options();
    opts.edge.lease_ttl = 30 * sim::kMicrosecond;
    ShardedKvService svc{rt, opts};
    svc.preload(16);

    const Key16 key = kv::KvService::key_of(7);
    sim::Simulator& sim = rt.simulator();
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(200 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    rt.run();

    ASSERT_EQ(svc.client(0).log().size(), 2u);
    EXPECT_FALSE(svc.client(0).log()[1].from_edge);  // lease ran out
    ShardedKvRunStats stats = svc.collect();
    EXPECT_GE(stats.edges.expired, 1u);
}

TEST(EdgeCache, RemotePutInvalidatesEveryEdgeLease) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(16);

    // Client 0 sits behind leaf2, client 2 behind leaf3: distinct
    // edges, so the write's invalidation must travel via the
    // directory's broadcast.
    const Key16 key = kv::KvService::key_of(9);
    constexpr WireValue kNewValue = 0xA0001;
    sim::Simulator& sim = rt.simulator();
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(100 * sim::kMicrosecond,
                    [&] { svc.client(2).put(key, kNewValue); });
    sim.schedule_at(300 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    rt.run();

    ASSERT_EQ(svc.client(0).log().size(), 2u);
    // The second read must see the remote write — a stale edge hit of
    // the pre-write value would be the lease protocol failing.
    EXPECT_EQ(svc.client(0).log()[1].value, kNewValue);
    const ShardedKvRunStats stats = svc.collect();
    EXPECT_GT(stats.directory.invalidations_sent, 0u);
    EXPECT_GE(stats.edges.invalidations + stats.edges.duplicate_invalidations,
              1u);
}

TEST(EdgeCache, WriterReadsItsOwnWrites) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(16);

    const Key16 key = kv::KvService::key_of(2);
    sim::Simulator& sim = rt.simulator();
    // get (caches the preload value) -> put -> get: the write barrier
    // orders the requests, the edge's inline invalidation plus the
    // voided ticket keep the cached pre-write value from resurfacing.
    sim.schedule_at(10 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    sim.schedule_at(100 * sim::kMicrosecond,
                    [&] { svc.client(0).put(key, 0xA0002); });
    sim.schedule_at(101 * sim::kMicrosecond, [&] { svc.client(0).get(key); });
    rt.run();

    ASSERT_EQ(svc.client(0).log().size(), 3u);
    EXPECT_EQ(svc.client(0).log()[2].value, 0xA0002u);
}

// ------------------------------------------------------------ migration

TEST(Migration, MovesTheRangeAndLosesNothing) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(64);

    const Key16 key = kv::KvService::key_of(11);
    const std::size_t range = range_of_key(key, svc.directory().num_ranges());
    const int before = svc.controller().shard_of(range);
    ASSERT_GE(before, 0);
    const auto target = static_cast<std::size_t>(1 - before);

    sim::Simulator& sim = rt.simulator();
    // Reads flow while the range migrates under them.
    for (int i = 0; i < 30; ++i) {
        sim.schedule_at((10 + 20 * i) * sim::kMicrosecond,
                        [&] { svc.client(0).get(key); });
    }
    sim.schedule_at(100 * sim::kMicrosecond,
                    [&] { EXPECT_TRUE(svc.controller().migrate(range, target)); });
    rt.run();

    EXPECT_EQ(svc.controller().shard_of(range), static_cast<int>(target));
    EXPECT_EQ(svc.controller().stats().migrations_completed, 1u);
    EXPECT_GT(svc.controller().stats().keys_moved, 0u);
    // The key lives at the new rack only.
    EXPECT_TRUE(svc.server(target).store().contains(key));
    EXPECT_FALSE(
        svc.server(static_cast<std::size_t>(before)).store().contains(key));
    // Every read completed with the (never-written) preload value.
    const kv::KvClient::Stats stats = svc.client(0).stats();
    EXPECT_EQ(stats.get_replies, 30u);
    EXPECT_EQ(svc.client(0).channel().stats().abandoned, 0u);
    for (const auto& rec : svc.client(0).log()) {
        EXPECT_EQ(rec.value, kv::KvService::preload_value_of(11));
    }
}

TEST(Migration, WritesAcrossTheMoveAreNeverLostOrStale) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    svc.preload(64);

    const Key16 key = kv::KvService::key_of(13);
    const std::size_t range = range_of_key(key, svc.directory().num_ranges());
    const int before = svc.controller().shard_of(range);
    ASSERT_GE(before, 0);
    const auto target = static_cast<std::size_t>(1 - before);

    sim::Simulator& sim = rt.simulator();
    // Writer (client 2, leaf3) bumps the value; reader (client 0,
    // leaf2) polls. Versions are encoded in the value.
    for (int i = 0; i < 20; ++i) {
        const auto value = static_cast<WireValue>(0xA1000 + i);
        sim.schedule_at((15 + 30 * i) * sim::kMicrosecond,
                        [&svc, key, value] { svc.client(2).put(key, value); });
    }
    for (int i = 0; i < 60; ++i) {
        sim.schedule_at((10 + 10 * i) * sim::kMicrosecond,
                        [&svc, key] { svc.client(0).get(key); });
    }
    sim.schedule_at(200 * sim::kMicrosecond,
                    [&] { svc.controller().migrate(range, target); });
    rt.run();

    // The reader's view never goes backwards (preload counts as
    // version 0, writer values are monotone by construction).
    WireValue last = 0;
    for (const auto& rec : svc.client(0).log()) {
        if (rec.op != kv::KvOp::kGet) continue;
        const WireValue version = rec.value >= 0xA1000 ? rec.value : 0;
        EXPECT_GE(version, last) << "stale read after a newer value was seen";
        last = std::max(last, version);
    }
    // All 20 writes committed; the final value survived the move at
    // the new rack.
    EXPECT_EQ(svc.client(2).stats().put_acks, 20u);
    const auto it = svc.server(target).store().find(key);
    ASSERT_NE(it, svc.server(target).store().end());
    EXPECT_EQ(it->second, 0xA1000u + 19);
    EXPECT_EQ(svc.controller().stats().migrations_completed, 1u);
}

// --------------------------------------------------------------- parity

TEST(ShardedParity, ShardedRunMatchesUnshardedReference) {
    kv::KvWorkload wl;
    wl.num_keys = 256;
    wl.zipf_s = 0.9;
    wl.requests_per_client = 150;
    wl.get_fraction = 0.8;
    wl.partition_keys = true;  // single writer+reader per key
    wl.request_interval = 15 * sim::kMicrosecond;
    wl.rebalance_interval = 50 * sim::kMicrosecond;

    std::vector<OpSignature> sharded;
    {
        rt::ClusterRuntime rt{fabric(4, 8)};
        ShardedKvService svc{rt, two_rack_options()};
        svc.run(wl);
        for (std::size_t c = 0; c < svc.num_clients(); ++c) {
            sharded.push_back(signature_of(svc.client(c)));
        }
    }
    std::vector<OpSignature> reference;
    {
        rt::ClusterRuntime rt{fabric(4, 8)};
        kv::KvServiceOptions opts;
        opts.server_host = 0;
        opts.client_hosts = {4, 5, 6, 7};
        opts.config.cache_slots = 0;
        kv::KvService svc{rt, opts};
        svc.run(wl);
        for (std::size_t c = 0; c < svc.num_clients(); ++c) {
            reference.push_back(signature_of(svc.client(c)));
        }
    }
    ASSERT_EQ(sharded.size(), reference.size());
    EXPECT_EQ(sharded, reference);
}

TEST(ShardedParity, ReportsRackPromotionsSummedOverRacks) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    kv::KvWorkload wl;
    wl.num_keys = 256;
    wl.zipf_s = 0.99;
    wl.requests_per_client = 200;
    wl.request_interval = 15 * sim::kMicrosecond;
    wl.rebalance_interval = 50 * sim::kMicrosecond;
    const ShardedKvRunStats stats = svc.run(wl);

    std::uint64_t promotions = 0;
    for (std::size_t s = 0; s < svc.num_shards(); ++s) {
        ASSERT_NE(svc.core().controller(s), nullptr);
        promotions += svc.core().controller(s)->stats().promotions;
    }
    EXPECT_EQ(stats.promotions, promotions);
    EXPECT_GT(stats.promotions, 0u);
}

TEST(ShardedParity, ZeroSlotCachesAreNoCaches) {
    kv::KvWorkload wl;
    wl.num_keys = 256;
    wl.zipf_s = 0.9;
    wl.requests_per_client = 150;
    wl.get_fraction = 0.8;
    wl.partition_keys = true;  // single writer+reader per key
    wl.request_interval = 15 * sim::kMicrosecond;
    wl.rebalance_interval = 50 * sim::kMicrosecond;

    const auto run = [&](std::size_t rack_slots, std::size_t edge_slots) {
        rt::ClusterRuntime rt{fabric(4, 8)};
        ShardedKvOptions opts = two_rack_options();
        opts.config.cache_slots = rack_slots;
        opts.edge.slots = edge_slots;
        ShardedKvService svc{rt, opts};
        const ShardedKvRunStats stats = svc.run(wl);

        for (std::size_t s = 0; s < svc.num_shards(); ++s) {
            const std::string tenant =
                "kvcache@" + std::to_string(svc.server(s).addr());
            const sim::Node* tor =
                rt.network().edge_switch_of(rt.host(opts.server_hosts[s]));
            EXPECT_EQ(rt.tenant_at(tor->id(), tenant) != nullptr, rack_slots > 0);
            EXPECT_EQ(svc.core().cache(s) != nullptr, rack_slots > 0);
            EXPECT_EQ(svc.core().controller(s) != nullptr, rack_slots > 0);
        }
        for (const std::size_t h : opts.client_hosts) {
            const sim::Node* tor = rt.network().edge_switch_of(rt.host(h));
            const std::string tenant = "edgecache@" + std::to_string(tor->id());
            EXPECT_EQ(rt.tenant_at(tor->id(), tenant) != nullptr, edge_slots > 0);
        }
        EXPECT_EQ(svc.num_edges() > 0, edge_slots > 0);
        EXPECT_EQ(stats.switch_hits > 0, rack_slots > 0 || edge_slots > 0);
        EXPECT_EQ(stats.promotions > 0, rack_slots > 0);
        EXPECT_EQ(stats.edge_hits > 0, edge_slots > 0);

        std::vector<OpSignature> out;
        for (std::size_t c = 0; c < svc.num_clients(); ++c) {
            out.push_back(signature_of(svc.client(c)));
        }
        return out;
    };
    const std::vector<OpSignature> both = run(128, 256);
    EXPECT_EQ(run(0, 256), both);
    EXPECT_EQ(run(128, 0), both);
    EXPECT_EQ(run(0, 0), both);
}

// ----------------------------------------------------- telemetry-driven

TEST(Rebalance, TelemetryRankingMovesHotRangesOffTheHotRack) {
    rt::ClusterRuntime rt{fabric(4, 8)};
    telemetry::TelemetryOptions tel_opts;
    tel_opts.collector_host = 7;
    tel_opts.config.hot_threshold = 1;
    telemetry::TelemetryService tel{rt, tel_opts};
    ShardedKvOptions opts = two_rack_options();
    opts.client_hosts = {4, 5, 6};
    ShardedKvService svc{rt, opts};

    // Concentrate every request on keys of one shard: that rack is hot
    // by construction, and a rebalance pass must move a range off it.
    svc.preload(64);
    const int hot_shard = svc.controller().shard_of(
        range_of_key(kv::KvService::key_of(0), svc.directory().num_ranges()));
    ASSERT_GE(hot_shard, 0);
    std::vector<Key16> hot_keys;
    for (std::size_t i = 0; i < 64 && hot_keys.size() < 8; ++i) {
        const Key16 key = kv::KvService::key_of(i);
        if (svc.controller().shard_of(range_of_key(
                key, svc.directory().num_ranges())) == hot_shard) {
            hot_keys.push_back(key);
        }
    }
    ASSERT_GE(hot_keys.size(), 4u);

    sim::Simulator& sim = rt.simulator();
    for (int i = 0; i < 200; ++i) {
        const Key16 key = hot_keys[static_cast<std::size_t>(i) % hot_keys.size()];
        sim.schedule_at((10 + 5 * i) * sim::kMicrosecond,
                        [&svc, key, i] { svc.client(i % 3).get(key); });
    }
    tel.start(100 * sim::kMicrosecond, 1200 * sim::kMicrosecond);
    svc.schedule_rebalances(
        250 * sim::kMicrosecond, 1200 * sim::kMicrosecond,
        tel.collector().hot_key_source_for(svc.directory_node()));
    rt.run();

    EXPECT_GE(svc.controller().stats().rebalances, 1u);
    EXPECT_GE(svc.controller().stats().migrations_completed, 1u);
    // Every read still completed, with the preload values.
    EXPECT_EQ(svc.client(0).channel().stats().abandoned, 0u);
}


// ------------------------------------------------------ read-your-writes

/// One closed-loop cell: window 8 per client, rack-cache promotion
/// passes every 100 us, on 0% or 1% loss, one rack or four sharded
/// racks whose ranges migrate under telemetry-driven rebalancing.
struct ClosedLoopCell {
    double loss;
    bool sharded;

    friend void PrintTo(const ClosedLoopCell& cell, std::ostream* os) {
        *os << "loss " << cell.loss << (cell.sharded ? ", 4 sharded racks" : ", one rack");
    }
};

/// Runs the cell under `seed` and returns the GETs that did not see the
/// client's last PUT issued before them (or the preload value when
/// there is none): with one writer per key and the client's per-key
/// write barrier, any other value is a stale read. Every request must
/// complete.
std::size_t stale_gets(const ClosedLoopCell& cell, std::uint64_t seed) {
    constexpr std::size_t kWindow = 8;
    constexpr std::size_t kRequests = 400;
    constexpr sim::SimTime kHorizon = kRequests * 40 * sim::kMicrosecond;
    rt::ClusterOptions opts = fabric(8, 32);
    opts.link.loss_probability = cell.loss;
    opts.seed = seed + 1000;
    rt::ClusterRuntime rt{opts};

    std::vector<std::size_t> client_hosts;
    for (std::size_t h = 16; h < 32; ++h) client_hosts.push_back(h);
    kv::KvConfig config;
    config.cache_slots = 64;
    std::optional<telemetry::TelemetryService> tel;
    std::optional<kv::KvService> rack;
    std::optional<ShardedKvService> shards;
    if (cell.sharded) {
        telemetry::TelemetryOptions tel_opts;
        tel_opts.collector_host = 1;
        tel.emplace(rt, tel_opts);
        ShardedKvOptions kopts;
        kopts.config = config;
        kopts.server_hosts = {0, 4, 8, 12};
        kopts.client_hosts = client_hosts;
        shards.emplace(rt, kopts);
    } else {
        rack.emplace(rt, kv::KvServiceOptions{config, 0, client_hosts});
    }
    kv::KvService& svc = cell.sharded ? shards->core() : *rack;

    kv::KvWorkload wl;
    wl.num_keys = 4096;
    wl.zipf_s = 0.99;
    wl.requests_per_client = kRequests;
    wl.get_fraction = 0.75;
    wl.partition_keys = true;
    wl.seed = seed;
    svc.preload(wl.num_keys);

    struct Loop {
        std::vector<kv::KvOpSpec> ops;
        std::vector<std::uint32_t> ids;  ///< req id each op was issued under
        std::size_t next{0};
        std::size_t inflight{0};
    };
    std::vector<Loop> loops(client_hosts.size());
    const auto pump = [&](std::size_t ci) {
        Loop& loop = loops[ci];
        while (loop.inflight < kWindow && loop.next < loop.ops.size()) {
            const std::size_t k = loop.next++;
            const kv::KvOpSpec& op = loop.ops[k];
            ++loop.inflight;
            loop.ids[k] = op.is_get ? svc.client(ci).get(op.key)
                                    : svc.client(ci).put(op.key, op.value);
        }
    };
    sim::Simulator& sim = rt.simulator();
    for (std::size_t ci = 0; ci < loops.size(); ++ci) {
        loops[ci].ops = kv::client_op_stream(wl, ci, loops.size());
        loops[ci].ids.assign(loops[ci].ops.size(), 0);
        svc.client(ci).on_reply = [&, ci](const kv::KvClient::OpRecord&) {
            --loops[ci].inflight;
            pump(ci);
        };
        sim.schedule_at((1 + ci) * 500 * sim::kNanosecond, [&pump, ci] { pump(ci); });
    }
    for (sim::SimTime at = 100 * sim::kMicrosecond; at <= kHorizon;
         at += 100 * sim::kMicrosecond) {
        sim.schedule_at(at, [&svc] { svc.rebalance_racks(); });
    }
    if (cell.sharded) {
        tel->start(100 * sim::kMicrosecond, kHorizon);
        shards->schedule_rebalances(
            1000 * sim::kMicrosecond, kHorizon,
            tel->collector().hot_key_source_for(shards->directory_node()));
    }
    rt.run();

    std::size_t stale = 0;
    for (std::size_t ci = 0; ci < loops.size(); ++ci) {
        const Loop& loop = loops[ci];
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
        const auto& log = svc.client(ci).log();
        EXPECT_EQ(log.size(), loop.ops.size()) << "client " << ci;
        for (const kv::KvClient::OpRecord& rec : log) {
            if (rec.op != kv::KvOp::kGet) continue;
            const auto it = expected.find(rec.req_id);
            if (!rec.found || it == expected.end() || it->second != rec.value) ++stale;
        }
        svc.client(ci).on_reply = nullptr;
    }
    return stale;
}

class ReadYourWrites : public ::testing::TestWithParam<ClosedLoopCell> {};

TEST_P(ReadYourWrites, ClosedLoopWithPromotionNeverReadsStale) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        EXPECT_EQ(stale_gets(GetParam(), seed), 0u) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ReadYourWrites,
    ::testing::Values(ClosedLoopCell{0.0, false}, ClosedLoopCell{0.01, false},
                      ClosedLoopCell{0.0, true}, ClosedLoopCell{0.01, true}),
    [](const ::testing::TestParamInfo<ClosedLoopCell>& info) {
        return std::string{info.param.loss > 0 ? "Lossy" : "LossFree"} +
               (info.param.sharded ? "Sharded" : "OneRack");
    });

// ------------------------------------------------------ parallel driver

TEST(Directory, RefusesTheParallelDriver) {
    {
        rt::ClusterRuntime rt{fabric(4, 8)};
        rt.enable_parallel(2);
        ASSERT_NE(rt.network().parallel(), nullptr);
        EXPECT_THROW((ShardedKvService{rt, two_rack_options()}), std::runtime_error);
    }
    // Partitioned after construction: scheduling refuses as well.
    rt::ClusterRuntime rt{fabric(4, 8)};
    ShardedKvService svc{rt, two_rack_options()};
    rt.enable_parallel(2);
    ASSERT_NE(rt.network().parallel(), nullptr);
    EXPECT_THROW(svc.schedule(kv::KvWorkload{}), std::runtime_error);
    EXPECT_THROW(svc.schedule_rebalances(100 * sim::kMicrosecond, sim::kMillisecond, {}),
                 std::runtime_error);
}

// -------------------------------------------------- observable contract

// Both kv deployments keep publishing every metric and counter track
// that BENCH_*.json, tools/bench_baseline.json and the SLO monitor read.
TEST(KvDeployments, PublishTheirMetricsAndCounterTracks) {
    trace::metrics().clear();
    trace::timeseries().clear();
    kv::KvWorkload wl;
    wl.num_keys = 128;
    wl.requests_per_client = 60;
    wl.get_fraction = 0.8;
    wl.request_interval = 15 * sim::kMicrosecond;
    wl.rebalance_interval = 50 * sim::kMicrosecond;
    const sim::SimTime horizon = sim::kMillisecond;
    {
        rt::ClusterRuntime rt{fabric(4, 8)};
        kv::KvServiceOptions opts;
        opts.server_host = 0;
        opts.client_hosts = {4, 5, 6, 7};
        kv::KvService svc{rt, opts};
        rt::FabricSampler sampler{rt, 50 * sim::kMicrosecond};
        svc.install_probes(sampler);
        sampler.start(horizon);
        svc.set_slo({});
        svc.run(wl);
    }
    {
        rt::ClusterRuntime rt{fabric(4, 8)};
        ShardedKvService svc{rt, two_rack_options()};
        rt::FabricSampler sampler{rt, 50 * sim::kMicrosecond};
        svc.install_probes(sampler);
        sampler.start(horizon);
        svc.set_slo({});
        svc.run(wl);
    }

    std::set<std::tuple<std::string, std::string, std::string>> metrics;
    for (const auto& e : trace::metrics().entries()) {
        metrics.emplace(e.name, e.tenant, e.node);
    }
    const std::tuple<std::string, std::string, std::string> expected_metrics[] = {
        {"kv.gets_sent", "kv", ""},
        {"kv.get_replies", "kv", ""},
        {"kv.switch_hits", "kv", ""},
        {"kv.retransmits", "kv", ""},
        {"kv.abandoned", "kv", ""},
        {"kv.server_gets", "kv", "server"},
        {"kv.get_latency_ns", "kv", ""},
        {"kv.put_latency_ns", "kv", ""},
        {"slo.met", "kv", ""},
        {"shardedkv.gets_sent", "shardedkv", ""},
        {"shardedkv.get_replies", "shardedkv", ""},
        {"shardedkv.switch_hits", "shardedkv", ""},
        {"shardedkv.edge_hits", "shardedkv", ""},
        {"shardedkv.nacks", "shardedkv", ""},
        {"shardedkv.retransmits", "shardedkv", ""},
        {"shardedkv.abandoned", "shardedkv", ""},
        {"shardedkv.gets_steered", "shardedkv", "directory"},
        {"shardedkv.puts_steered", "shardedkv", "directory"},
        {"shardedkv.invalidations_sent", "shardedkv", "directory"},
        {"shardedkv.server_gets", "shardedkv", "shard0"},
        {"shardedkv.server_gets", "shardedkv", "shard1"},
        {"shardedkv.get_latency_ns", "shardedkv", ""},
        {"slo.met", "shardedkv", ""},
    };
    for (const auto& m : expected_metrics) {
        EXPECT_TRUE(metrics.contains(m)) << std::get<0>(m) << "/" << std::get<1>(m)
                                         << "/" << std::get<2>(m);
    }

    std::set<std::pair<std::string, std::string>> tracks;
    for (const auto& ts : trace::timeseries().series()) tracks.emplace(ts.name(), ts.node());
    const std::pair<std::string, std::string> expected_tracks[] = {
        {"kv.cache_hits", "leaf0"},
        {"kv.cache_misses", "leaf0"},
        {"kv.retransmits", "kv-clients"},
        {"kv.abandoned", "kv-clients"},
        {"shardedkv.rack_hits", "shard0"},
        {"shardedkv.rack_hits", "shard1"},
        {"shardedkv.edge_hits", "edges"},
        {"shardedkv.retransmits", "kv-clients"},
    };
    for (const auto& t : expected_tracks) {
        EXPECT_TRUE(tracks.contains(t)) << t.first << "@" << t.second;
    }
    trace::metrics().clear();
    trace::timeseries().clear();
}

}  // namespace
}  // namespace daiet::dir
