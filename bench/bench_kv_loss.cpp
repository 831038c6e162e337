// kv cache under loss: a loss-probability sweep on a leaf-spine fabric.
//
// For each per-link loss probability (0 -> 2%) the harness runs the
// same skewed GET/PUT workload against one cached storage server and
// reports the switch hit rate, the GET latency distribution (now
// including retransmission delays — the honest p99 a lossy fabric
// buys), and the recovery traffic itself: client retransmissions,
// and server replay answers. The acceptance claim is that
// the service stays coherent and complete at every loss rate while
// retransmit counts grow from exactly zero (loss-free fabrics pay
// nothing for the transport) to clearly nonzero at 2%.
//
// Writes BENCH_kv_loss.json. DAIET_SCALE scales requests per client.
// Exits nonzero if a lossy cell shows no retransmissions or an
// incomplete run — the bench doubles as a CI smoke check.
#include <algorithm>
#include <cstdio>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "kvcache/service.hpp"

namespace {

using namespace daiet;

struct Cell {
    double loss;
    kv::KvRunStats stats;
};

rt::ClusterOptions fabric_options(double loss) {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    opts.num_hosts = 8;  // h0 server + 7 clients across both racks
    opts.config.register_size = 1024;
    opts.config.max_trees = 4;
    opts.link.loss_probability = loss;
    opts.seed = 23;
    return opts;
}

Cell run_cell(double loss, std::size_t requests) {
    rt::ClusterRuntime rt{fabric_options(loss)};
    kv::KvServiceOptions svc_opts;
    svc_opts.config.cache_slots = 128;
    kv::KvService svc{rt, svc_opts};

    kv::KvWorkload workload;
    workload.num_keys = 2048;
    workload.zipf_s = 0.99;
    workload.requests_per_client = requests;
    workload.get_fraction = 0.9;
    workload.partition_keys = true;
    workload.request_interval = 50 * sim::kMicrosecond;
    workload.rebalance_interval = 50 * sim::kMicrosecond;
    return Cell{loss, svc.run(workload)};
}

}  // namespace

int main() {
    using namespace daiet;
    // Floored: the "every lossy cell retransmits" check needs a few
    // hundred requests fabric-wide to see a 0.2% link loss at all.
    const std::size_t requests = std::max<std::size_t>(bench::scaled(600), 30);
    const double losses[] = {0.0, 0.002, 0.005, 0.01, 0.02};

    std::printf("kv cache under loss: per-link loss sweep, 7 clients, "
                "128-slot cache, %zu requests/client\n\n", requests);
    std::printf("%-7s %9s %12s %12s %12s\n", "loss", "hit_rate", "p99_get_us",
                "retransmits", "srv_replays");

    bench::BenchJson json{"kv_loss"};
    const bench::SimSpeedMeter sim_speed;
    json.config()
        .integer("num_keys", 2048)
        .integer("requests_per_client", requests)
        .integer("clients", 7)
        .integer("cache_slots", 128)
        .number("get_fraction", 0.9)
        .integer("partition_keys", 1)
        .integer("request_interval_us", 50)
        .integer("rebalance_interval_us", 50)
        .integer("workload_seed", kv::KvWorkload{}.seed)
        .integer("fabric_seed", 23)
        .number("scale", bench::scale_factor());

    bool healthy = true;
    for (const double loss : losses) {
        const Cell cell = run_cell(loss, requests);
        const kv::KvRunStats& st = cell.stats;
        std::printf("%-7.3f %8.1f%% %12.2f %12llu %12llu\n", loss,
                    100.0 * st.hit_rate(), st.p99_get_ns / 1000.0,
                    static_cast<unsigned long long>(st.retransmits),
                    static_cast<unsigned long long>(st.server_duplicates));
        json.push("cells")
            .number("loss_probability", loss)
            .integer("gets", st.gets_sent)
            .integer("puts", st.puts_sent)
            .integer("get_replies", st.get_replies)
            .integer("put_acks", st.put_acks)
            .integer("switch_hits", st.switch_hits)
            .number("hit_rate", st.hit_rate())
            .number("mean_get_ns", st.mean_get_ns)
            .number("p50_get_ns", st.p50_get_ns)
            .number("p99_get_ns", st.p99_get_ns)
            .integer("retransmits", st.retransmits)
            .integer("duplicate_replies", st.duplicate_replies)
            .integer("abandoned", st.abandoned)
            .integer("server_duplicates", st.server_duplicates)
            .integer("server_gets", st.server_gets)
            .integer("promotions", st.promotions);

        // Smoke invariants: complete at every loss rate, free when
        // loss-free, demonstrably retransmitting when lossy.
        if (st.get_replies != st.gets_sent || st.put_acks != st.puts_sent ||
            st.abandoned != 0) {
            std::printf("FAIL: incomplete run at loss %.3f\n", loss);
            healthy = false;
        }
        if (loss == 0.0 && st.retransmits != 0) {
            std::printf("FAIL: spurious retransmissions on a loss-free fabric\n");
            healthy = false;
        }
        if (loss > 0.0 && st.retransmits == 0) {
            std::printf("FAIL: no retransmissions at loss %.3f\n", loss);
            healthy = false;
        }
    }

    sim_speed.stamp(json);
    json.write();
    std::puts("\nwrote BENCH_kv_loss.json");
    return healthy ? 0 : 1;
}
