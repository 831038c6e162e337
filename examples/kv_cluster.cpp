// kv_cluster: the in-network key-value cache, co-resident with DAIET
// aggregation on one fabric.
//
//   h1..h4 (kv clients) --+                    +-- h0 (kv storage server)
//                         |   leaf-spine       |
//   h5, h6 (mappers) -----+   2 leaves x       +-- h7 (reducer)
//                         |   2 spines         |
//                         +--- all programmable switches ---+
//
// Act 1 runs a skewed GET/PUT workload without a cache, then with a
// NetCache-style cache tenant on the server's leaf switch, and prints
// the hit-rate / latency / server-load comparison.
// Act 2 re-runs the cached workload while a DAIET aggregation job
// crosses the same switches and an in-network telemetry tenant
// observes every chip — three different switch programs sharing one
// chip's SRAM and port map, with the arbiter pressure printed per
// tenant.
// Act 3 breaks the fabric: the same cached workload on 1%-lossy links,
// surviving on the request/response transport (client retransmission,
// server reply replay, a cache that never re-validates from a replay).
// Act 4 shards the service: four storage racks behind an in-network
// directory tenant on a spine (clients address the *service*, the
// switch rewrites to the owning rack), lease-based reply caches at the
// client ToRs, and a live range migration under traffic.
// Act 5 turns the tracer on: the sharded deployment re-runs on lossy
// links with full causal tracing, a fabric sampler scraping link-queue
// / SRAM / cache-hit counter tracks on a 20us sim-time cadence, and a
// per-service SLO monitor scoring the run (availability + p99 against
// declared objectives). It writes kv_cluster.trace.json — spans AND
// counter tracks, loadable in ui.perfetto.dev / chrome://tracing — and
// runs request forensics on a GET that lost a frame, printing the
// drop, every retransmission and the completing reply as one causal
// chain.
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/kv_cluster
#include <cstdio>

#include "directory/sharded_service.hpp"
#include "kvcache/service.hpp"
#include "runtime/job_driver.hpp"
#include "runtime/sampler.hpp"
#include "telemetry/service.hpp"
#include "trace/export.hpp"
#include "trace/forensics.hpp"
#include "trace/slo.hpp"
#include "trace/timeseries.hpp"
#include "trace/trace.hpp"

namespace {

using namespace daiet;

rt::ClusterOptions fabric() {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    opts.num_hosts = 8;
    opts.config.max_trees = 2;
    opts.config.register_size = 1024;
    return opts;
}

kv::KvWorkload workload() {
    kv::KvWorkload wl;
    wl.num_keys = 1024;
    wl.zipf_s = 0.99;
    wl.requests_per_client = 500;
    wl.get_fraction = 0.95;
    // Four clients at one request per 40us exactly match the server's
    // service rate: the uncached system sits at its saturation knee,
    // which is where absorbing the hot set in the switch pays most.
    wl.request_interval = 40 * sim::kMicrosecond;
    wl.rebalance_interval = 50 * sim::kMicrosecond;
    return wl;
}

kv::KvServiceOptions kv_options(bool cached) {
    kv::KvServiceOptions opts;
    opts.server_host = 0;
    opts.client_hosts = {1, 2, 3, 4};
    opts.config.cache_slots = cached ? 128 : 0;
    return opts;
}

void print_run(const char* label, const kv::KvRunStats& stats) {
    std::printf("%-22s hit rate %5.1f%%  mean GET %7.1f us  p99 GET %8.1f us  "
                "server GETs %5llu\n",
                label, 100.0 * stats.hit_rate(), stats.mean_get_ns / 1000.0,
                stats.p99_get_ns / 1000.0,
                static_cast<unsigned long long>(stats.server_gets));
}

}  // namespace

int main() {
    // --- act 1: cache off vs cache on ---------------------------------------
    std::puts("act 1: Zipf(0.99) GET/PUT workload, 4 clients -> 1 server\n");
    kv::KvRunStats baseline;
    {
        rt::ClusterRuntime rt{fabric()};
        kv::KvService svc{rt, kv_options(false)};
        baseline = svc.run(workload());
        print_run("no cache", baseline);
    }
    kv::KvRunStats cached;
    {
        rt::ClusterRuntime rt{fabric()};
        kv::KvService svc{rt, kv_options(true)};
        cached = svc.run(workload());
        print_run("128-slot switch cache", cached);
    }
    std::printf("\nthe cache served %.1f%% of GETs from switch SRAM and cut "
                "mean GET latency %.1fx\n\n",
                100.0 * cached.hit_rate(),
                baseline.mean_get_ns / cached.mean_get_ns);

    // --- act 2: kv cache, DAIET aggregation and telemetry on one fabric ------
    std::puts("act 2: same kv workload, now sharing the fabric with an "
              "aggregation job and a telemetry tenant\n");
    rt::ClusterRuntime rt{fabric()};
    telemetry::TelemetryService tel{rt};
    kv::KvService svc{rt, kv_options(true)};
    svc.schedule(workload());
    tel.start(100 * sim::kMicrosecond, 25 * sim::kMillisecond);

    rt::JobSpec spec;
    spec.name = "co-tenant";
    rt::JobGroup group;
    group.reducer = &rt.host(7);
    group.mappers = {&rt.host(5), &rt.host(6)};
    spec.groups.push_back(group);
    rt::JobDriver driver{rt, spec};
    driver.begin_round();
    auto receivers = driver.bind_receivers();
    driver.schedule_sends([](std::size_t, std::size_t mapper, MapperSender& tx) {
        for (int i = 0; i < 200; ++i) {
            tx.send(KvPair{Key16{"word" + std::to_string(i % 40)},
                           wire_from_i32(static_cast<std::int32_t>(mapper + 1))});
        }
    });
    rt.run();
    driver.verify(receivers);
    const rt::RoundStats round = driver.collect(receivers);
    const kv::KvRunStats kv_stats = svc.collect();

    print_run("kv (with co-tenant)", kv_stats);
    std::printf("aggregation job:       %llu pairs in -> %llu pairs out "
                "(%.1f%% traffic reduction), verified clean\n",
                static_cast<unsigned long long>(round.pairs_sent),
                static_cast<unsigned long long>(round.pairs_received),
                100.0 * round.traffic_reduction());

    // The shared-SRAM arbiter, made visible: what each resident tenant
    // charged to the chip hosting all three families.
    const auto* mux = dynamic_cast<SwitchProgramMux*>(
        &rt.chip_at(svc.cache_node()).program());
    std::printf("shared chip %u SRAM ledger (%zu bytes total in use):\n",
                svc.cache_node(),
                rt.chip_at(svc.cache_node()).sram().used_bytes());
    for (const auto& [tenant, bytes] : mux->sram_report()) {
        std::printf("    %-24s %8zu bytes\n", tenant.c_str(), bytes);
    }
    const telemetry::TelemetrySwitchProgram* tor =
        tel.program_at(svc.cache_node());
    std::printf("telemetry at that ToR: %llu kv GETs sketched in flight, "
                "%llu heavy-hitter log appends, %llu probes answered\n\n",
                static_cast<unsigned long long>(tor->stats().kv_gets_sketched),
                static_cast<unsigned long long>(tor->stats().hot_logged),
                static_cast<unsigned long long>(tor->stats().probes_answered));

    // --- act 3: the same cached workload on a lossy fabric -------------------
    std::puts("act 3: 1% per-link loss, recovered by the retry transport\n");
    rt::ClusterOptions lossy = fabric();
    lossy.link.loss_probability = 0.01;
    rt::ClusterRuntime lossy_rt{lossy};
    kv::KvService lossy_svc{lossy_rt, kv_options(true)};
    const kv::KvRunStats lossy_stats = lossy_svc.run(workload());

    print_run("kv on lossy links", lossy_stats);
    std::printf("recovery traffic:      %llu retransmits, %llu server replay "
                "answers, %llu abandoned\n",
                static_cast<unsigned long long>(lossy_stats.retransmits),
                static_cast<unsigned long long>(lossy_stats.server_duplicates),
                static_cast<unsigned long long>(lossy_stats.abandoned));
    std::printf("completion:            %llu/%llu GETs, %llu/%llu PUTs "
                "answered exactly once\n\n",
                static_cast<unsigned long long>(lossy_stats.get_replies),
                static_cast<unsigned long long>(lossy_stats.gets_sent),
                static_cast<unsigned long long>(lossy_stats.put_acks),
                static_cast<unsigned long long>(lossy_stats.puts_sent));

    // --- act 4: the sharded service behind the directory tenant --------------
    std::puts("act 4: 4 storage racks, a directory tenant on the spine, "
              "edge reply caches, one live range migration\n");
    rt::ClusterOptions shard_fabric = fabric();
    shard_fabric.n_leaf = 6;
    shard_fabric.num_hosts = 12;  // 2 per leaf: racks on leaves 0-3
    rt::ClusterRuntime shard_rt{shard_fabric};
    dir::ShardedKvOptions shard_opts;
    shard_opts.server_hosts = {0, 2, 4, 6};
    shard_opts.client_hosts = {8, 9, 10, 11};
    shard_opts.config.cache_slots = 128;
    dir::ShardedKvService sharded{shard_rt, shard_opts};

    kv::KvWorkload shard_wl = workload();
    shard_wl.get_fraction = 0.9;
    sharded.schedule(shard_wl);
    // Migrate one range, live, halfway through the run.
    const std::size_t moving_range =
        dir::range_of_key(kv::KvService::key_of(1), sharded.directory().num_ranges());
    const auto target = static_cast<std::size_t>(
        (sharded.controller().shard_of(moving_range) + 1) % 4);
    shard_rt.simulator().schedule_at(
        shard_wl.requests_per_client * shard_wl.request_interval / 2,
        [&] { sharded.controller().migrate(moving_range, target); });
    shard_rt.run();
    const dir::ShardedKvRunStats shard_stats = sharded.collect();

    std::printf("clients address service vaddr 0x%08x; the directory steered "
                "%llu GETs / %llu PUTs across 4 racks\n",
                sharded.directory().service_addr(),
                static_cast<unsigned long long>(shard_stats.directory.gets_steered),
                static_cast<unsigned long long>(shard_stats.directory.puts_steered));
    std::printf("hit rate %5.1f%% (%llu at rack ToRs + %llu at client-edge "
                "leases), mean GET %.1f us\n",
                100.0 * shard_stats.hit_rate(),
                static_cast<unsigned long long>(shard_stats.switch_hits -
                                                shard_stats.edge_hits),
                static_cast<unsigned long long>(shard_stats.edge_hits),
                shard_stats.mean_get_ns / 1000.0);
    std::printf("per-rack server GETs:  ");
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        std::printf("%llu%s",
                    static_cast<unsigned long long>(sharded.server(s).stats().gets),
                    s + 1 < sharded.num_shards() ? " / " : "\n");
    }
    std::printf("live migration:        %llu completed (%llu keys moved), %llu "
                "requests NACKed mid-move and retried, %llu stale replies "
                "refused at the edges, %llu abandoned\n",
                static_cast<unsigned long long>(
                    shard_stats.control.migrations_completed),
                static_cast<unsigned long long>(shard_stats.control.keys_moved),
                static_cast<unsigned long long>(shard_stats.nacks),
                static_cast<unsigned long long>(shard_stats.edges.stale_refused),
                static_cast<unsigned long long>(shard_stats.abandoned));
    std::printf("completion:            %llu/%llu requests answered exactly "
                "once\n\n",
                static_cast<unsigned long long>(shard_stats.completed()),
                static_cast<unsigned long long>(shard_stats.gets_sent +
                                                shard_stats.puts_sent));

    // --- act 5: the same sharded deployment, lossy, fully traced -------------
    std::puts("act 5: lossy 4-rack sharded run with causal tracing, counter "
              "tracks, SLOs + request forensics\n");
    trace::tracer().enable_full();
    rt::ClusterOptions traced_fabric = shard_fabric;
    traced_fabric.link.loss_probability = 0.01;
    traced_fabric.seed = 7;
    rt::ClusterRuntime traced_rt{traced_fabric};
    dir::ShardedKvService traced_svc{traced_rt, shard_opts};

    // Continuous observability for the run: link-queue / SRAM / service
    // counter tracks sampled every 20us of sim time (exported with the
    // spans below), and declared service objectives scored after it.
    rt::FabricSampler sampler{traced_rt, 20 * sim::kMicrosecond};
    sampler.add_fabric_probes();
    traced_svc.install_probes(sampler);
    sampler.start(shard_wl.requests_per_client * shard_wl.request_interval * 2);
    trace::SloSpec slo;
    slo.availability_objective = 0.999;
    slo.p99_objective_ns = 5 * sim::kMillisecond;
    slo.window_ns = sim::kMillisecond;
    traced_svc.set_slo(slo);

    const dir::ShardedKvRunStats traced_stats = traced_svc.run(shard_wl);
    const auto events = trace::tracer().snapshot();

    if (const trace::SloMonitor* mon = traced_svc.slo()) {
        std::printf("%s", mon->report().c_str());
    }
    std::printf("sampled %llu counter snapshots into %zu time-series tracks "
                "(queue depth, SRAM per tenant, cache hits, retransmits)\n",
                static_cast<unsigned long long>(sampler.samples_taken()),
                trace::timeseries().size());
    std::printf("recorded %zu span events over %llu retransmits; ",
                events.size(),
                static_cast<unsigned long long>(traced_stats.retransmits));
    // Export before disable(): disable frees the tracer's buffers.
    const bool wrote = trace::write_chrome_trace("kv_cluster.trace.json");
    trace::tracer().disable();
    if (wrote) {
        std::puts("wrote kv_cluster.trace.json (load in ui.perfetto.dev)");
    } else {
        std::puts("trace file write FAILED");
        return 1;
    }

    // Pick a GET that demonstrably lost a frame and still completed,
    // and let forensics narrate its life end to end.
    bool narrated = false;
    for (const auto& ev : events) {
        if (ev.kind != trace::EventKind::kRetransmit) continue;
        const auto client = static_cast<std::uint32_t>(ev.a >> 32);
        const auto seq = static_cast<std::uint32_t>(ev.a);
        const trace::Verdict v = trace::investigate(events, client, seq);
        if (!v.completed || v.drops == 0) continue;
        std::printf("\n%s", v.report.c_str());
        narrated = true;
        break;
    }
    if (!narrated) {
        std::puts("FAIL: no completed request with a drop + retransmit "
                  "found in the trace");
        return 1;
    }
    return 0;
}
