// Shard scaling: the bench behind the fourth tenant family.
//
// Part A — throughput scaling. The same Zipf GET/PUT workload offered
// to the kv service deployed on 1 storage rack vs 4, on one fabric,
// with the directory steering and both cache layers live. The claim:
// aggregate throughput at 4 racks is at least 2x the 1-rack
// configuration (the single serial server saturates; sharding spreads
// the misses and writes while the rack and edge caches absorb the
// head).
//
// Part B — value parity. A single-writer-per-key workload run sharded
// (loss-free and 1%-lossy) must complete every request and return
// value histories identical to an unsharded, cache-less, loss-free
// serial reference — the coherence proof for the whole stack:
// directory steering, per-rack caches, edge leases, retry transport.
// Each run also declares service-level objectives (99.9% availability,
// 2ms p99) that the per-service SLO monitor must report MET, at 0% and
// at 1% loss — the retry transport has to hold the latency SLO while
// absorbing real drops.
//
// Part C — staleness under live migration. One writer bumps a shared
// key's version while readers behind two different edges poll it and
// the key's range migrates between racks twice mid-run. The claims: no
// reader ever observes a version older than one it has already seen
// (a stale read served after the PUT's lease invalidation would do
// exactly that), racing requests are NACKed and self-correct (none
// abandoned), and the final read returns the final written version.
//
// Writes BENCH_kv_shard.json. DAIET_SCALE scales requests per client.
// Exits nonzero when any claim fails — the bench doubles as a CI gate.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "directory/sharded_service.hpp"
#include "kvcache/service.hpp"
#include "trace/slo.hpp"

namespace {

using namespace daiet;

// 6 leaves x 2 hosts: storage racks on leaves 0..3 (hosts 0,2,4,6),
// clients on leaves 4..5 (hosts 8..11).
rt::ClusterOptions shard_fabric(double loss = 0.0) {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = 6;
    opts.n_spine = 2;
    opts.num_hosts = 12;
    opts.config.register_size = 512;
    opts.config.max_trees = 4;
    opts.link.loss_probability = loss;
    opts.seed = 23;
    return opts;
}

dir::ShardedKvOptions rack_options(std::size_t racks) {
    dir::ShardedKvOptions opts;
    opts.server_hosts.clear();
    for (std::size_t r = 0; r < racks; ++r) opts.server_hosts.push_back(2 * r);
    opts.client_hosts = {8, 9, 10, 11};
    opts.config.cache_slots = 64;
    return opts;
}

// ---------------------------------------------------------------- part A

struct ScalingResult {
    dir::ShardedKvRunStats stats;
    double throughput_per_us{0};  ///< completed requests per microsecond
};

/// Closed-loop driver: each client keeps at most `kWindow` requests
/// outstanding and issues the next the moment one completes. Demand
/// adapts to capacity, so throughput measures the deployment, not the
/// retry transport's queue-jumping artifacts (a saturated open-loop
/// run completes via instant ReplyCache replays of RTO retransmissions
/// — the serial worker's queue gets bypassed and the 1-rack number
/// inflates past its service capacity).
constexpr std::size_t kWindow = 8;

ScalingResult run_scaling(std::size_t racks, std::size_t requests) {
    rt::ClusterRuntime rt{shard_fabric()};
    dir::ShardedKvService svc{rt, rack_options(racks)};

    kv::KvWorkload wl;
    wl.num_keys = 2048;
    wl.zipf_s = 0.99;
    wl.requests_per_client = requests;
    wl.get_fraction = 0.75;
    wl.seed = 11;
    svc.preload(wl.num_keys);

    struct ClientState {
        std::vector<kv::KvOpSpec> ops;
        std::size_t next{0};
        std::size_t inflight{0};
    };
    const std::size_t n = svc.num_clients();
    std::vector<ClientState> state(n);
    for (std::size_t ci = 0; ci < n; ++ci) {
        state[ci].ops = kv::client_op_stream(wl, ci, n);
    }
    const auto pump = [&](std::size_t ci) {
        ClientState& s = state[ci];
        while (s.inflight < kWindow && s.next < s.ops.size()) {
            const kv::KvOpSpec& op = s.ops[s.next++];
            ++s.inflight;
            if (op.is_get) {
                svc.client(ci).get(op.key);
            } else {
                svc.client(ci).put(op.key, op.value);
            }
        }
    };
    sim::Simulator& sim = rt.simulator();
    for (std::size_t ci = 0; ci < n; ++ci) {
        svc.client(ci).on_reply = [&, ci](const kv::KvClient::OpRecord&) {
            --state[ci].inflight;
            pump(ci);
        };
        sim.schedule_at((1 + ci) * 500 * sim::kNanosecond,
                        [&pump, ci] { pump(ci); });
    }
    // Promotion windows for the rack caches (generous horizon: extra
    // passes after the traffic drains are harmless).
    const sim::SimTime horizon = requests * 12 * sim::kMicrosecond;
    for (sim::SimTime at = 100 * sim::kMicrosecond; at <= horizon;
         at += 100 * sim::kMicrosecond) {
        sim.schedule_at(at, [&svc] { svc.rebalance_racks(); });
    }
    rt.run();

    ScalingResult out;
    out.stats = svc.collect();
    const auto span = static_cast<double>(out.stats.last_completion) /
                      static_cast<double>(sim::kMicrosecond);
    out.throughput_per_us =
        span <= 0 ? 0.0 : static_cast<double>(out.stats.completed()) / span;
    for (std::size_t ci = 0; ci < n; ++ci) svc.client(ci).on_reply = nullptr;
    return out;
}

// ---------------------------------------------------------------- part B

using OpSignature =
    std::vector<std::tuple<std::uint32_t, kv::KvOp, Key16, WireValue>>;

template <typename Service>
std::vector<OpSignature> signatures(Service& svc) {
    std::vector<OpSignature> out;
    for (std::size_t c = 0; c < svc.num_clients(); ++c) {
        OpSignature sig;
        for (const auto& rec : svc.client(c).log()) {
            sig.emplace_back(rec.req_id, rec.op, rec.key, rec.value);
        }
        std::sort(sig.begin(), sig.end());
        out.push_back(std::move(sig));
    }
    return out;
}

kv::KvWorkload parity_workload(std::size_t requests) {
    kv::KvWorkload wl;
    wl.num_keys = 512;
    wl.zipf_s = 0.9;
    wl.requests_per_client = requests;
    wl.get_fraction = 0.8;
    wl.partition_keys = true;  // single writer+reader per key
    wl.request_interval = 15 * sim::kMicrosecond;
    wl.rebalance_interval = 100 * sim::kMicrosecond;
    wl.seed = 31;
    return wl;
}

// ---------------------------------------------------------------- part C

struct StaleResult {
    bool monotonic{true};
    bool final_fresh{true};
    std::uint64_t versions_observed{0};
    dir::ShardedKvRunStats stats;
};

StaleResult run_stale_probe() {
    rt::ClusterRuntime rt{shard_fabric()};
    dir::ShardedKvService svc{rt, rack_options(2)};
    svc.preload(64);

    const Key16 key = kv::KvService::key_of(17);
    const std::size_t range = dir::range_of_key(key, svc.directory().num_ranges());
    const int home = svc.controller().shard_of(range);
    const auto away = static_cast<std::size_t>(1 - home);
    constexpr WireValue kBase = 0xA00000;
    constexpr int kWrites = 40;

    sim::Simulator& sim = rt.simulator();
    // Writer: client 3 (leaf 5). Its GET chases each PUT through the
    // per-key write barrier, so the writer's ops serialize. Readers:
    // clients 0 and 2 — client 0 behind leaf 4, client 2 sharing leaf
    // 5 with the writer, so invalidations exercise both the broadcast
    // and the inline path. Readers poll CLOSED-loop (next read issued
    // when the previous completes): monotonic reads is a property of a
    // session's *completed* reads — two concurrent reads may legally
    // complete out of program order even against one serial server.
    for (int i = 0; i < kWrites; ++i) {
        const auto value = static_cast<WireValue>(kBase + i);
        sim.schedule_at((20 + 25 * i) * sim::kMicrosecond,
                        [&svc, key, value] { svc.client(3).put(key, value); });
        sim.schedule_at((25 + 25 * i) * sim::kMicrosecond,
                        [&svc, key] { svc.client(3).get(key); });
    }
    constexpr sim::SimTime kPollGap = 4 * sim::kMicrosecond;
    constexpr sim::SimTime kPollHorizon = 1300 * sim::kMicrosecond;
    for (const std::size_t c : {0u, 2u}) {
        svc.client(c).on_reply = [&svc, &sim, key, c](
                                     const kv::KvClient::OpRecord& rec) {
            if (rec.op != kv::KvOp::kGet || sim.now() >= kPollHorizon) return;
            sim.schedule_after(kPollGap, [&svc, key, c] { svc.client(c).get(key); });
        };
        sim.schedule_at(10 * sim::kMicrosecond,
                        [&svc, key, c] { svc.client(c).get(key); });
    }
    // The range migrates away and back, live, under the traffic.
    sim.schedule_at(250 * sim::kMicrosecond,
                    [&svc, range, away] { svc.controller().migrate(range, away); });
    sim.schedule_at(650 * sim::kMicrosecond, [&svc, range, home] {
        svc.controller().migrate(range, static_cast<std::size_t>(home));
    });
    // Long after the last write drained: everyone must read the final
    // version, leases or not.
    for (const std::size_t c : {0u, 2u, 3u}) {
        sim.schedule_at(2800 * sim::kMicrosecond,
                        [&svc, key, c] { svc.client(c).get(key); });
    }
    rt.run();
    for (const std::size_t c : {0u, 2u}) svc.client(c).on_reply = nullptr;

    StaleResult out;
    const auto version_of = [&](WireValue v) -> std::int64_t {
        return v >= kBase ? static_cast<std::int64_t>(v - kBase) : -1;
    };
    for (const std::size_t c : {0u, 2u, 3u}) {
        std::int64_t last = -1;
        for (const auto& rec : svc.client(c).log()) {
            if (rec.op != kv::KvOp::kGet) continue;
            const std::int64_t version = version_of(rec.value);
            ++out.versions_observed;
            if (version < last) out.monotonic = false;
            last = std::max(last, version);
        }
        if (last != kWrites - 1) out.final_fresh = false;
    }
    out.stats = svc.collect();
    return out;
}

}  // namespace

int main() {
    const std::size_t requests = std::max<std::size_t>(bench::scaled(600), 120);
    bench::BenchJson json{"kv_shard"};
    const bench::SimSpeedMeter sim_speed;
    json.config()
        .integer("seed_fabric", 23)
        .integer("seed_scaling_workload", 11)
        .integer("seed_parity_workload", 31)
        .integer("num_keys_scaling", 2048)
        .integer("num_keys_parity", 512)
        .number("zipf_s", 0.99)
        .number("get_fraction", 0.75)
        .integer("requests_per_client", requests)
        .integer("closed_loop_window", kWindow)
        .integer("parity_request_interval_us", 15)
        .integer("cache_slots", 64)
        .integer("num_ranges", dir::kNumRanges)
        .integer("clients", 4)
        .number("scale", bench::scale_factor());
    bool healthy = true;

    // ---- part A ------------------------------------------------------------
    std::puts("part A: aggregate throughput, 1 vs 4 storage racks\n");
    std::printf("%-6s %12s %10s %10s %12s %12s\n", "racks", "tput/us", "hit",
                "edge_hit", "mean_get_us", "p99_get_us");
    double tput[2] = {0, 0};
    for (const std::size_t racks : {std::size_t{1}, std::size_t{4}}) {
        const ScalingResult r = run_scaling(racks, requests);
        tput[racks == 4] = r.throughput_per_us;
        std::printf("%-6zu %12.3f %9.1f%% %9.1f%% %12.1f %12.1f\n", racks,
                    r.throughput_per_us, 100.0 * r.stats.hit_rate(),
                    r.stats.get_replies == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(r.stats.edge_hits) /
                              static_cast<double>(r.stats.get_replies),
                    r.stats.mean_get_ns / 1000.0, r.stats.p99_get_ns / 1000.0);
        json.push("scaling")
            .integer("racks", racks)
            .number("throughput_per_us", r.throughput_per_us)
            .integer("completed", r.stats.completed())
            .integer("last_completion_ns", r.stats.last_completion)
            .number("hit_rate", r.stats.hit_rate())
            .integer("switch_hits", r.stats.switch_hits)
            .integer("edge_hits", r.stats.edge_hits)
            .integer("server_gets", r.stats.server_gets)
            .integer("server_puts", r.stats.server_puts)
            .integer("retransmits", r.stats.retransmits)
            .integer("abandoned", r.stats.abandoned)
            .number("mean_get_ns", r.stats.mean_get_ns)
            .number("p99_get_ns", r.stats.p99_get_ns);
        if (r.stats.completed() !=
            r.stats.gets_sent + r.stats.puts_sent) {
            std::printf("FAIL: %zu-rack run lost requests (%llu of %llu)\n",
                        racks,
                        static_cast<unsigned long long>(r.stats.completed()),
                        static_cast<unsigned long long>(r.stats.gets_sent +
                                                        r.stats.puts_sent));
            healthy = false;
        }
        if (racks == 4 && r.stats.edge_hits == 0) {
            std::puts("FAIL: edge caches never served a reply");
            healthy = false;
        }
    }
    std::printf("\nscaling: %.2fx\n", tput[0] == 0 ? 0.0 : tput[1] / tput[0]);
    if (tput[1] < 2.0 * tput[0]) {
        std::puts("FAIL: 4 racks did not double the 1-rack throughput");
        healthy = false;
    }

    // ---- part B ------------------------------------------------------------
    std::puts("\npart B: sharded run == unsharded serial reference");
    const std::size_t parity_requests = std::max<std::size_t>(requests / 3, 60);
    const kv::KvWorkload wl = parity_workload(parity_requests);
    std::vector<OpSignature> reference;
    {
        rt::ClusterRuntime rt{shard_fabric()};
        kv::KvServiceOptions opts;
        opts.server_host = 0;
        opts.client_hosts = {8, 9, 10, 11};
        opts.config.cache_slots = 0;
        kv::KvService svc{rt, opts};
        svc.run(wl);
        reference = signatures(svc);
    }
    for (const double loss : {0.0, 0.01}) {
        rt::ClusterRuntime rt{shard_fabric(loss)};
        dir::ShardedKvService svc{rt, rack_options(4)};
        // Service-level objectives for the run, gated below: 99.9%
        // availability (abandoned requests are the failures) and a p99
        // that tolerates a couple of 200us-RTO retransmissions at 1%
        // loss but still catches a broken retry path or a melted queue.
        trace::SloSpec slo;
        slo.availability_objective = 0.999;
        slo.p99_objective_ns = 2'000'000;         // 2 ms
        slo.window_ns = 500 * sim::kMicrosecond;  // SLI windows
        svc.set_slo(slo);
        const dir::ShardedKvRunStats stats = svc.run(wl);
        const bool equal = signatures(svc) == reference;
        std::printf("loss %.0f%%: %s (retransmits %llu, abandoned %llu)\n",
                    100.0 * loss, equal ? "value-identical" : "DIVERGED",
                    static_cast<unsigned long long>(stats.retransmits),
                    static_cast<unsigned long long>(stats.abandoned));
        const trace::SloMonitor* mon = svc.slo();
        trace::SloMonitor::Verdict verdict;
        if (mon != nullptr) {
            verdict = mon->evaluate();
            std::printf("%s\n", mon->report().c_str());
        }
        json.push("parity")
            .number("loss", loss)
            .integer("identical", equal ? 1 : 0)
            .integer("retransmits", stats.retransmits)
            .integer("abandoned", stats.abandoned)
            .number("hit_rate", stats.hit_rate())
            .integer("edge_hits", stats.edge_hits)
            .integer("slo_met", verdict.met ? 1 : 0)
            .number("slo_availability", verdict.availability)
            .integer("slo_p99_ns", verdict.p99_ns)
            .number("slo_burn_rate", verdict.burn_rate)
            .number("slo_worst_window_burn", verdict.worst_window_burn);
        if (!equal || stats.abandoned != 0) healthy = false;
        if (loss > 0.0 && stats.retransmits == 0) {
            std::puts("FAIL: lossy run shows no retransmissions");
            healthy = false;
        }
        if (mon == nullptr || !verdict.met) {
            std::printf("FAIL: the %.0f%%-loss run violated its SLO\n",
                        100.0 * loss);
            healthy = false;
        }
    }

    // ---- part C ------------------------------------------------------------
    std::puts("\npart C: staleness probe across two live range migrations");
    const StaleResult stale = run_stale_probe();
    std::printf(
        "reads %llu, monotonic %s, final fresh %s; nacks %llu (retried %llu), "
        "migrations %llu, edge hits %llu, stale replies refused %llu\n",
        static_cast<unsigned long long>(stale.versions_observed),
        stale.monotonic ? "yes" : "NO", stale.final_fresh ? "yes" : "NO",
        static_cast<unsigned long long>(stale.stats.nacks),
        static_cast<unsigned long long>(stale.stats.nack_retries),
        static_cast<unsigned long long>(stale.stats.control.migrations_completed),
        static_cast<unsigned long long>(stale.stats.edge_hits),
        static_cast<unsigned long long>(stale.stats.edges.stale_refused));
    json.push("stale_probe")
        .integer("reads", stale.versions_observed)
        .integer("monotonic", stale.monotonic ? 1 : 0)
        .integer("final_fresh", stale.final_fresh ? 1 : 0)
        .integer("nacks", stale.stats.nacks)
        .integer("nack_retries", stale.stats.nack_retries)
        .integer("migrations", stale.stats.control.migrations_completed)
        .integer("keys_moved", stale.stats.control.keys_moved)
        .integer("edge_hits", stale.stats.edge_hits)
        .integer("stale_refused", stale.stats.edges.stale_refused)
        .integer("abandoned", stale.stats.abandoned);
    if (!stale.monotonic) {
        std::puts("FAIL: a reader observed a version older than one it had seen");
        healthy = false;
    }
    if (!stale.final_fresh) {
        std::puts("FAIL: a client's final read missed the final version");
        healthy = false;
    }
    if (stale.stats.control.migrations_completed != 2) {
        std::puts("FAIL: a migration never completed");
        healthy = false;
    }
    if (stale.stats.nacks == 0) {
        std::puts("FAIL: no request raced the migrations (probe too gentle)");
        healthy = false;
    }
    if (stale.stats.abandoned != 0) {
        std::puts("FAIL: the transport abandoned a request mid-migration");
        healthy = false;
    }
    if (stale.stats.edge_hits == 0) {
        std::puts("FAIL: the edge caches never served the probe key");
        healthy = false;
    }

    sim_speed.stamp(json);
    json.write();
    std::puts("\nwrote BENCH_kv_shard.json");
    return healthy ? 0 : 1;
}
