// kv cache sweep: workload skew x cache size on a leaf-spine fabric.
//
// For each (Zipf s, cache_slots) cell the harness runs the same
// open-loop GET/PUT workload against one storage server and reports
// the switch hit rate, GET latency distribution and server load.
// cache_slots = 0 is the no-cache baseline every other cell is judged
// against; the acceptance claim is a >50% hit rate and a lower mean
// GET latency at Zipf(0.99) with a cache sized to the hot set.
//
// Writes BENCH_kv_cache.json. DAIET_SCALE scales requests per client.
#include <cstdio>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "kvcache/service.hpp"

namespace {

using namespace daiet;

struct Cell {
    double zipf_s;
    std::size_t cache_slots;
    kv::KvRunStats stats;
};

rt::ClusterOptions fabric_options() {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    opts.num_hosts = 8;  // h0 server + 7 clients across both racks
    opts.config.register_size = 1024;
    opts.config.max_trees = 4;
    return opts;
}

Cell run_cell(double zipf_s, std::size_t cache_slots, std::size_t requests) {
    rt::ClusterRuntime rt{fabric_options()};
    kv::KvServiceOptions svc_opts;
    svc_opts.config.cache_slots = cache_slots;
    kv::KvService svc{rt, svc_opts};

    kv::KvWorkload workload;
    workload.num_keys = 2048;
    workload.zipf_s = zipf_s;
    workload.requests_per_client = requests;
    workload.get_fraction = 0.95;
    // Seven clients at one request per 50us put 1.4x the server's
    // service capacity on the wire: the no-cache baseline queues and
    // the cache's absorbed fraction decides whether the system holds.
    workload.request_interval = 50 * sim::kMicrosecond;
    workload.rebalance_interval = 50 * sim::kMicrosecond;
    return Cell{zipf_s, cache_slots, svc.run(workload)};
}

}  // namespace

int main() {
    using namespace daiet;
    const std::size_t requests = bench::scaled(600);
    const double skews[] = {0.0, 0.9, 0.99, 1.2};
    const std::size_t sizes[] = {0, 16, 128, 1024};

    std::printf("kv cache sweep: skew x cache size, 7 clients, 2048 keys, "
                "%zu requests/client\n\n", requests);
    std::printf("%-6s %-7s %9s %12s %12s %12s %12s\n", "zipf", "slots",
                "hit_rate", "mean_get_us", "p99_get_us", "server_gets",
                "promotions");

    bench::BenchJson json{"kv_cache"};
    const bench::SimSpeedMeter sim_speed;
    json.config()
        .integer("num_keys", 2048)
        .integer("requests_per_client", requests)
        .integer("clients", 7)
        .number("get_fraction", 0.95)
        .integer("request_interval_us", 50)
        .integer("rebalance_interval_us", 50)
        .integer("workload_seed", kv::KvWorkload{}.seed)
        .integer("fabric_seed", rt::ClusterOptions{}.seed)
        .number("scale", bench::scale_factor());

    for (const double s : skews) {
        for (const std::size_t slots : sizes) {
            const Cell cell = run_cell(s, slots, requests);
            const kv::KvRunStats& st = cell.stats;
            std::printf("%-6.2f %-7zu %8.1f%% %12.2f %12.2f %12llu %12llu\n",
                        s, slots, 100.0 * st.hit_rate(), st.mean_get_ns / 1000.0,
                        st.p99_get_ns / 1000.0,
                        static_cast<unsigned long long>(st.server_gets),
                        static_cast<unsigned long long>(st.promotions));
            json.push("cells")
                .number("zipf_s", s)
                .integer("cache_slots", slots)
                .integer("gets", st.gets_sent)
                .integer("puts", st.puts_sent)
                .integer("switch_hits", st.switch_hits)
                .number("hit_rate", st.hit_rate())
                .number("mean_get_ns", st.mean_get_ns)
                .number("p50_get_ns", st.p50_get_ns)
                .number("p99_get_ns", st.p99_get_ns)
                .number("mean_put_ns", st.mean_put_ns)
                .integer("server_gets", st.server_gets)
                .integer("server_puts", st.server_puts)
                .integer("promotions", st.promotions)
                .integer("evictions", st.evictions)
                .integer("rebalances", st.rebalances);
        }
        std::printf("\n");
    }

    sim_speed.stamp(json);
    json.write();
    std::puts("wrote BENCH_kv_cache.json");
    return 0;
}
