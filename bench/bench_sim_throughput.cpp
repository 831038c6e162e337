// Netsim macro-bench: pooled frames + timing-wheel event queue.
//
// One binary, one multi-tenant workload — a fat-tree fabric (k=16 at
// scale 1: 1024 hosts, 320 switches) concurrently carrying a
// closed-loop kv service (switch cache + controller live), a two-round
// DAIET aggregation job, and a cross-pod echo sweep — measured as
// fresh-process trials (the binary re-execs itself per trial):
//
//   * fast — the sequential simulator; two children, each running the
//     workload twice (cold pool, then warm pool) so the steady-state
//     allocation gates see a warmed free list. The first fast trial is
//     the determinism oracle.
//   * traced — the fast trial with the trace/ ring flight recorder live
//     (one child): tracks what recording every hop costs. The fast
//     trials run with tracing disabled, so fast_events_per_sec already
//     prices the disabled hooks.
//   * sampled — the fast trial with the fabric time-series sampler
//     live (two children, interleaved with the fast ones): queue-depth,
//     SRAM and kv cache probes scraped every 250 us of sim time by the
//     sampler's event pump. The pump adds events, so a sampled run is
//     held to the oracle's outcomes (kv completions, aggregation pairs,
//     echo legs) rather than its signature, and the best sampled trial
//     must keep 85% of the best fast trial's throughput.
//
// Fresh processes keep one mode's heap churn from contaminating the
// other's measurement, and each reported rate is a mode's best trial,
// so a burst of machine noise cannot flip a ratio gate.
//
// Gates (any failure exits nonzero — the bench doubles as a CI gate):
//   * determinism: every fast, warm and traced run executes the same
//     number of events, reaches the same final sim time and produces
//     bit-identical value histories (kv client logs + reducer outputs)
//     as the first fast trial;
//   * observer cost: ring tracing keeps half the fast throughput, the
//     fabric sampler 85% of it;
//   * zero steady-state allocation on the warm fast run: no frame slab
//     leaves the heap (pool-stats delta == 0 — every delivered frame
//     rides a recycled slab) and no per-frame event closure is
//     heap-boxed (boxed actions stay within the O(sending hosts)
//     per-round setup closures, which carry a vector of send work and
//     are the only legitimate oversize captures).
//
// Writes BENCH_sim_throughput.json. DAIET_SCALE scales the fabric
// arity and the per-client request count.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "common/framebuf.hpp"
#include "kvcache/service.hpp"
#include "runtime/job_driver.hpp"
#include "runtime/sampler.hpp"
#include "trace/trace.hpp"

namespace {

using namespace daiet;

struct Shape {
    std::size_t k{16};
    std::size_t hosts{1024};
    std::size_t requests{400};
    std::size_t groups{4};
    std::size_t mappers_per_group{32};
    std::size_t pairs_per_mapper{256};
    std::size_t rounds{2};
    /// Serial ping-pong legs per cross-pod echo pair (tenant 3): pure
    /// fabric traffic whose host-side work is a counter decrement, so
    /// most of its cost is the per-hop simulator path itself.
    std::size_t echo_legs{12000};
};

Shape shape_for(double scale) {
    Shape s;
    if (scale >= 1.0) {
        s.k = 16;
        s.groups = 4;
        s.mappers_per_group = 32;
    } else if (scale >= 0.25) {
        s.k = 8;
        s.groups = 4;
        s.mappers_per_group = 16;
    } else {
        s.k = 4;
        s.groups = 2;
        s.mappers_per_group = 4;
    }
    s.hosts = s.k * s.k * s.k / 4;
    s.requests = std::max<std::size_t>(bench::scaled(400), 120);
    s.echo_legs = std::max<std::size_t>(bench::scaled(12000), 600);
    return s;
}

/// Order-sensitive FNV-1a accumulator: any reordering of deliveries,
/// any changed value, any extra or missing event shifts the digest.
struct Signature {
    std::uint64_t h{0xcbf29ce484222325ULL};

    void bytes(std::span<const std::byte> data) noexcept {
        for (const std::byte b : data) {
            h ^= static_cast<std::uint64_t>(b);
            h *= 0x100000001b3ULL;
        }
    }
    template <typename T>
    void value(T v) noexcept {
        static_assert(std::is_trivially_copyable_v<T>);
        std::byte buf[sizeof(T)];
        std::memcpy(buf, &v, sizeof(T));
        bytes(buf);
    }
};

struct RunResult {
    std::uint64_t signature{0};
    std::uint64_t events{0};
    sim::SimTime final_time{0};
    double exec_seconds{0};
    double events_per_sec{0};
    /// Slab + oversize heap allocations during the timed region.
    std::uint64_t frame_heap_allocs{0};
    /// Event closures too big for a queue slot's inline buffer.
    std::uint64_t boxed_actions{0};
    /// Allowance for the legitimate boxed closures: the per-round
    /// per-sending-host aggregation setup (not per-frame work).
    std::uint64_t boxed_allowance{0};
    std::uint64_t kv_completed{0};
    std::uint64_t kv_expected{0};
    double hit_rate{0};
    std::uint64_t agg_pairs_sent{0};
    std::uint64_t agg_pairs_received{0};
    std::uint64_t echo_messages{0};
    std::uint64_t echo_expected{0};
    /// Time-series samples the fabric sampler took (sampled trials only).
    std::uint64_t ts_samples{0};
};

/// Closed-loop window per kv client: demand adapts to capacity, so the
/// run measures the simulator, not an open-loop queue artifact.
constexpr std::size_t kWindow = 8;

/// `sampled` arms the fabric time-series sampler (queue depths, SRAM,
/// kv cache hits) for this run. Its pump events change the signature
/// but no workload outcome.
RunResult run_workload(const Shape& s, bool sampled = false) {
    rt::ClusterOptions copts;
    copts.topology = rt::TopologyKind::kFatTree;
    copts.fat_tree_k = s.k;
    copts.num_hosts = s.hosts;
    copts.seed = 42;
    rt::ClusterRuntime rt{copts};

    // Tenant 1: the kv service. Server on host 0, clients on every
    // fourth host; the cache tenant lands on the server's edge switch.
    kv::KvServiceOptions kopts;
    kopts.server_host = 0;
    for (std::size_t i = 1; i < s.hosts; i += 4) kopts.client_hosts.push_back(i);
    kv::KvService svc{rt, kopts};

    kv::KvWorkload wl;
    wl.num_keys = 1024;
    wl.zipf_s = 0.99;
    wl.requests_per_client = s.requests;
    wl.get_fraction = 0.8;
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
        ClientState& st = state[ci];
        while (st.inflight < kWindow && st.next < st.ops.size()) {
            const kv::KvOpSpec& op = st.ops[st.next++];
            ++st.inflight;
            if (op.is_get) {
                svc.client(ci).get(op.key);
            } else {
                svc.client(ci).put(op.key, op.value);
            }
        }
    };
    for (std::size_t ci = 0; ci < n; ++ci) {
        svc.client(ci).on_reply = [&, ci](const kv::KvClient::OpRecord&) {
            --state[ci].inflight;
            pump(ci);
        };
        rt.host(kopts.client_hosts[ci])
            .simulator()
            .schedule_at((1 + ci) * 500 * sim::kNanosecond,
                         [&pump, ci] { pump(ci); });
    }
    // Promotion windows for the switch cache over the traffic's span.
    // The rebalancer touches the server's store and its edge switch's
    // cache program — both on the server host's shard.
    if (auto* ctl = svc.controller()) {
        sim::Simulator& server_sim = rt.host(kopts.server_host).simulator();
        const sim::SimTime horizon = s.requests * 12 * sim::kMicrosecond;
        for (sim::SimTime at = 100 * sim::kMicrosecond; at <= horizon;
             at += 100 * sim::kMicrosecond) {
            server_sim.schedule_at(at, [ctl] { ctl->rebalance(); });
        }
    }

    // Tenant 2: the aggregation job. Reducers on hosts == 2 (mod 4),
    // mappers drawn from hosts == 3 (mod 4) — disjoint from the kv
    // endpoints, co-resident on the same switches.
    std::vector<std::size_t> mapper_pool;
    for (std::size_t i = 3; i < s.hosts; i += 4) mapper_pool.push_back(i);
    rt::JobSpec spec;
    spec.name = "agg";
    std::set<std::size_t> sender_hosts;
    for (std::size_t g = 0; g < s.groups; ++g) {
        rt::JobGroup group;
        group.reducer = &rt.host(2 + 4 * g);
        for (std::size_t j = 0; j < s.mappers_per_group; ++j) {
            const std::size_t hi =
                mapper_pool[(g * s.mappers_per_group + j) % mapper_pool.size()];
            group.mappers.push_back(&rt.host(hi));
            sender_hosts.insert(hi);
        }
        spec.groups.push_back(std::move(group));
    }
    rt::JobDriver driver{rt, spec};

    // Tenant 3: a cross-pod echo sweep. Hosts == 2 (mod 4) not serving
    // as reducers pair up across the fabric and ping-pong a counter;
    // each leg crosses the core, so nearly all of its cost is per-hop
    // simulator work — the frame copy and event scheduling path this
    // bench exists to measure.
    constexpr std::uint16_t kEchoPort = 47001;
    std::vector<std::size_t> echo_hosts;
    for (std::size_t i = 2 + 4 * s.groups; i < s.hosts; i += 4) {
        echo_hosts.push_back(i);
    }
    const std::size_t echo_pairs = echo_hosts.size() / 2;
    std::vector<std::uint64_t> echo_rx(echo_pairs * 2, 0);
    const auto echo_reply = [&rt](sim::HostAddr to, std::uint16_t to_port,
                                  std::size_t from_host, std::uint32_t remaining) {
        std::byte buf[sizeof remaining];
        std::memcpy(buf, &remaining, sizeof remaining);
        rt.host(from_host).udp_send(to, kEchoPort, to_port, buf);
    };
    for (std::size_t j = 0; j < echo_pairs * 2; ++j) {
        rt.host(echo_hosts[j])
            .udp_bind(kEchoPort, [&echo_rx, &echo_reply, &echo_hosts, j](
                                     sim::HostAddr src, std::uint16_t src_port,
                                     std::span<const std::byte> payload) {
                ++echo_rx[j];
                std::uint32_t remaining = 0;
                std::memcpy(&remaining, payload.data(),
                            std::min(sizeof remaining, payload.size()));
                if (remaining == 0) return;
                echo_reply(src, src_port, echo_hosts[j], remaining - 1);
            });
    }
    const auto echo_legs = static_cast<std::uint32_t>(s.echo_legs);
    for (std::size_t j = 0; j < echo_pairs; ++j) {
        const std::size_t self = echo_hosts[j];
        const std::size_t peer = echo_hosts[j + echo_pairs];
        rt.host(self).simulator().schedule_at(
            (1 + j) * 300 * sim::kNanosecond,
            [&rt, &echo_reply, self, peer, echo_legs] {
                echo_reply(rt.host(peer).addr(), kEchoPort, self,
                           echo_legs - 1);
            });
    }

    // The sampled trial's observers: fabric + service probes pumped by
    // a sim event every 250 us of sim time. Modest ring capacity: a
    // full-scale fat tree carries thousands of link-direction tracks,
    // and one sample scrapes every probe.
    std::unique_ptr<rt::FabricSampler> sampler;
    if (sampled) {
        sampler = std::make_unique<rt::FabricSampler>(
            rt, 250 * sim::kMicrosecond, /*capacity=*/256);
        sampler->add_fabric_probes();
        svc.install_probes(*sampler);
        sampler->start(s.requests * 12 * sim::kMicrosecond);
    }

    Signature sig;
    RunResult out;
    out.boxed_allowance = (sender_hosts.size() + 8) * s.rounds;

    // Shared keys across a group's mappers => real in-network combining.
    const auto produce = [&s](std::size_t g, std::size_t m, MapperSender& tx) {
        for (std::size_t p = 0; p < s.pairs_per_mapper; ++p) {
            const std::uint64_t key = 0x6000 + (g << 8) + (m * 7 + p) % 97;
            tx.send({Key16::from_u64(key),
                     static_cast<WireValue>(1 + ((m + p) & 0xff))});
        }
    };
    const auto consume = [&sig](std::size_t g, ReducerReceiver& rx) {
        sig.value(g);
        for (const KvPair& p : rx.sorted_result()) {
            sig.bytes(p.key.bytes());
            sig.value(p.value);
        }
    };

    const FramePoolStats pool0 = FrameBuf::pool_stats();
    const std::uint64_t events0 = sim::Simulator::process_events_executed();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < s.rounds; ++r) driver.run_round(produce, consume);
    rt.run();  // drain any kv traffic outliving the last round
    const auto t1 = std::chrono::steady_clock::now();
    const FramePoolStats pool1 = FrameBuf::pool_stats();

    out.events = sim::Simulator::process_events_executed() - events0;
    out.exec_seconds = std::chrono::duration<double>(t1 - t0).count();
    out.events_per_sec = out.exec_seconds > 0
                             ? static_cast<double>(out.events) / out.exec_seconds
                             : 0.0;
    out.frame_heap_allocs = (pool1.slab_allocs + pool1.oversize_allocs) -
                            (pool0.slab_allocs + pool0.oversize_allocs);
    out.boxed_actions = rt.network().actions_heap_allocated();
    out.final_time = rt.now();
    if (sampler != nullptr) out.ts_samples = sampler->samples_taken();

    // Value histories, in completion order: the determinism oracle.
    for (std::size_t ci = 0; ci < n; ++ci) {
        for (const auto& rec : svc.client(ci).log()) {
            sig.value(rec.req_id);
            sig.value(static_cast<std::uint8_t>(rec.op));
            sig.bytes(rec.key.bytes());
            sig.value(rec.value);
        }
    }
    const kv::KvRunStats kstats = svc.collect();
    sig.value(kstats.gets_sent);
    sig.value(kstats.puts_sent);
    sig.value(kstats.get_replies);
    sig.value(kstats.put_acks);
    sig.value(kstats.switch_hits);
    sig.value(kstats.server_gets);
    sig.value(kstats.server_puts);
    sig.value(kstats.retransmits);
    for (const rt::RoundStats& r : driver.history()) {
        sig.value(r.attempts);
        sig.value(r.finished);
        sig.value(r.pairs_sent);
        sig.value(r.pairs_received);
        sig.value(r.data_packets_received);
        sig.value(r.payload_bytes_received);
        out.agg_pairs_sent += r.pairs_sent;
        out.agg_pairs_received += r.pairs_received;
    }
    // Per-endpoint echo delivery counts: a lost or reordered sweep leg
    // shows up here even though the sweep carries no payload history.
    for (const std::uint64_t v : echo_rx) {
        sig.value(v);
        out.echo_messages += v;
    }
    out.echo_expected = echo_pairs * s.echo_legs;
    sig.value(out.final_time);
    sig.value(out.events);
    out.signature = sig.h;

    out.kv_completed = kstats.get_replies + kstats.put_acks;
    out.kv_expected = n * s.requests;
    out.hit_rate = kstats.hit_rate();
    for (std::size_t ci = 0; ci < n; ++ci) svc.client(ci).on_reply = nullptr;
    return out;
}

// --- fresh-process trial protocol ---------------------------------------
//
// Each measurement trial runs in a child process (this same binary,
// re-executed with DAIET_BENCH_CHILD set): millions of mixed-size
// allocations from one mode leave the heap in a state that measurably
// slows the next mode in the same process, so in-process back-to-back
// trials systematically contaminate each other. A child prints one
// RESULT line per workload run; the parent parses them and applies the
// gates.

void print_result(const char* label, const RunResult& r) {
    std::printf("RESULT label=%s events=%llu wall=%.6f sig=%016llx "
                "final=%llu allocs=%llu boxed=%llu allow=%llu kv=%llu "
                "kvexp=%llu hit=%.9f aggs=%llu aggr=%llu echo=%llu "
                "echoexp=%llu\n",
                label, static_cast<unsigned long long>(r.events),
                r.exec_seconds, static_cast<unsigned long long>(r.signature),
                static_cast<unsigned long long>(r.final_time),
                static_cast<unsigned long long>(r.frame_heap_allocs),
                static_cast<unsigned long long>(r.boxed_actions),
                static_cast<unsigned long long>(r.boxed_allowance),
                static_cast<unsigned long long>(r.kv_completed),
                static_cast<unsigned long long>(r.kv_expected), r.hit_rate,
                static_cast<unsigned long long>(r.agg_pairs_sent),
                static_cast<unsigned long long>(r.agg_pairs_received),
                static_cast<unsigned long long>(r.echo_messages),
                static_cast<unsigned long long>(r.echo_expected));
    std::fflush(stdout);
}

struct Trial {
    std::string label;
    RunResult r;
};

bool parse_result(const char* line, Trial& t) {
    char label[32] = {};
    unsigned long long events = 0, sig = 0, final_time = 0, allocs = 0,
                       boxed = 0, allow = 0, kv = 0, kvexp = 0, aggs = 0,
                       aggr = 0, echo = 0, echoexp = 0;
    double wall = 0, hit = 0;
    const int got = std::sscanf(
        line,
        "RESULT label=%31s events=%llu wall=%lf sig=%llx final=%llu "
        "allocs=%llu boxed=%llu allow=%llu kv=%llu kvexp=%llu hit=%lf "
        "aggs=%llu aggr=%llu echo=%llu echoexp=%llu",
        label, &events, &wall, &sig, &final_time, &allocs, &boxed, &allow, &kv,
        &kvexp, &hit, &aggs, &aggr, &echo, &echoexp);
    if (got != 15) return false;
    t.label = label;
    t.r.events = events;
    t.r.exec_seconds = wall;
    t.r.events_per_sec = wall > 0 ? static_cast<double>(events) / wall : 0.0;
    t.r.signature = sig;
    t.r.final_time = final_time;
    t.r.frame_heap_allocs = allocs;
    t.r.boxed_actions = boxed;
    t.r.boxed_allowance = allow;
    t.r.kv_completed = kv;
    t.r.kv_expected = kvexp;
    t.r.hit_rate = hit;
    t.r.agg_pairs_sent = aggs;
    t.r.agg_pairs_received = aggr;
    t.r.echo_messages = echo;
    t.r.echo_expected = echoexp;
    return true;
}

/// Re-exec this binary with DAIET_BENCH_CHILD=mode and collect its
/// RESULT lines. Returns false if the child failed or reported nothing.
/// /proc/self/exe must be resolved here, in this process — handing the
/// literal link to popen's shell would re-exec the shell instead.
bool run_child(const char* mode, const char* suffix, std::vector<Trial>& out) {
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 2);
    if (len <= 0) {
        std::puts("FAIL: could not resolve /proc/self/exe");
        return false;
    }
    exe[len] = '\0';
    std::string cmd = "\"";
    cmd += exe;
    cmd += "\"";
    setenv("DAIET_BENCH_CHILD", mode, 1);
    FILE* pipe = popen(cmd.c_str(), "r");
    unsetenv("DAIET_BENCH_CHILD");
    if (pipe == nullptr) {
        std::printf("FAIL: could not spawn %s trial child\n", mode);
        return false;
    }
    char line[512];
    std::size_t got = 0;
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
        Trial t;
        if (parse_result(line, t)) {
            t.label += suffix;
            out.push_back(std::move(t));
            ++got;
        }
    }
    const int rc = pclose(pipe);
    if (rc != 0 || got == 0) {
        std::printf("FAIL: %s trial child exited %d with %zu results\n", mode,
                    rc, got);
        return false;
    }
    return true;
}

}  // namespace

int main() {
    const bench::SimSpeedMeter sim_speed;
    const double scale = bench::scale_factor();
    const Shape s = shape_for(scale);

    // Profiling hook: DAIET_BENCH_PROFILE=fast runs the workload once
    // and exits, so a profiler sees a single clean run instead of the
    // multi-trial gate harness. Any other value is refused.
    if (const char* mode = std::getenv("DAIET_BENCH_PROFILE")) {
        if (std::string_view{mode} != "fast") {
            std::fprintf(stderr, "DAIET_BENCH_PROFILE=\"%s\": the only mode is \"fast\"\n",
                         mode);
            return 2;
        }
        const RunResult r = run_workload(s);
        std::printf("%s: %llu events in %.3fs (%.0f events/sec)\n", mode,
                    static_cast<unsigned long long>(r.events), r.exec_seconds,
                    r.events_per_sec);
        return 0;
    }

    // Child mode: one fresh-process measurement trial. Every child runs
    // the workload twice — cold pool, then warm pool — so the
    // steady-state allocation gates see a warmed free list.
    if (const char* mode = std::getenv("DAIET_BENCH_CHILD")) {
        const std::string_view m{mode};
        const bool traced = m == "traced";
        const bool sampled = m == "sampled";
        // A traced child measures the workload with the ring flight
        // recorder live: every hop records a span into a fixed buffer.
        // The plain fast children run with tracing disabled — they are
        // the "hooks must be invisible when off" measurement.
        if (traced) trace::tracer().enable_ring(std::size_t{1} << 16);
        const std::string label{traced ? "traced" : sampled ? "sampled" : "fast"};
        for (const char* suffix : {"", "-warm"}) {
            const RunResult r = run_workload(s, sampled);
            if (sampled && r.ts_samples == 0) {
                std::fputs("FAIL: the fabric sampler took no samples\n", stderr);
                return 1;
            }
            print_result((label + suffix).c_str(), r);
        }
        return 0;
    }

    std::printf(
        "sim throughput macro-bench: fat-tree k=%zu (%zu hosts), %zu kv "
        "clients x %zu requests (closed-loop window %zu), %zu aggregation "
        "groups x %zu mappers x %zu rounds, cross-pod echo sweep x %zu "
        "legs/pair\n\n",
        s.k, s.hosts, (s.hosts + 2) / 4, s.requests, kWindow, s.groups,
        s.mappers_per_group, s.rounds, s.echo_legs);

    bench::BenchJson json{"sim_throughput"};
    json.config()
        .text("topology", "fat-tree")
        .integer("fat_tree_k", s.k)
        .integer("num_hosts", s.hosts)
        .integer("fabric_seed", 42)
        .integer("kv_seed", 11)
        .integer("num_keys", 1024)
        .number("zipf_s", 0.99)
        .number("get_fraction", 0.8)
        .integer("requests_per_client", s.requests)
        .integer("closed_loop_window", kWindow)
        .integer("agg_groups", s.groups)
        .integer("mappers_per_group", s.mappers_per_group)
        .integer("pairs_per_mapper", s.pairs_per_mapper)
        .integer("agg_rounds", s.rounds)
        .integer("echo_legs_per_pair", s.echo_legs)
        .number("scale", scale);

    // Fresh-process trials: each gets a pristine heap (in-process
    // back-to-back runs contaminate each other's allocator state), and
    // each reported rate is its mode's best trial, so a burst of machine
    // noise landing on one trial does not set it. The sampled trials
    // interleave with the fast ones they are compared against.
    std::vector<Trial> trials;
    bool healthy = true;
    healthy &= run_child("fast", "", trials);
    healthy &= run_child("sampled", "", trials);
    healthy &= run_child("fast", "#2", trials);
    healthy &= run_child("sampled", "#2", trials);
    // One traced trial: the fast path with the ring flight recorder
    // live, so the cost of tracing when it is ON is a tracked number
    // (the fast trials above already price the hooks when OFF).
    healthy &= run_child("traced", "", trials);
    if (trials.empty()) {
        std::puts("FAIL: no trials completed");
        return 1;
    }

    std::printf("%-14s %12s %10s %14s %18s\n", "run", "events", "wall_s",
                "events/sec", "signature");
    std::uint64_t total_events = 0;
    for (const Trial& t : trials) {
        const RunResult& r = t.r;
        total_events += r.events;
        std::printf("%-14s %12llu %10.3f %14.0f %018llx\n", t.label.c_str(),
                    static_cast<unsigned long long>(r.events), r.exec_seconds,
                    r.events_per_sec,
                    static_cast<unsigned long long>(r.signature));
        json.push("runs")
            .text("run", t.label)
            .integer("events", r.events)
            .number("wall_clock_seconds", r.exec_seconds)
            .number("events_per_sec", r.events_per_sec)
            .integer("signature", r.signature)
            .integer("final_sim_time_ns", r.final_time)
            .integer("frame_heap_allocs", r.frame_heap_allocs)
            .integer("boxed_actions", r.boxed_actions)
            .integer("kv_completed", r.kv_completed)
            .number("kv_hit_rate", r.hit_rate)
            .integer("agg_pairs_sent", r.agg_pairs_sent)
            .integer("agg_pairs_received", r.agg_pairs_received)
            .integer("echo_messages", r.echo_messages);
    }

    double fast_eps = 0, traced_eps = 0, sampled_eps = 0;
    const RunResult* warm = nullptr;
    for (const Trial& t : trials) {
        if (t.label.rfind("traced", 0) == 0) {
            traced_eps = std::max(traced_eps, t.r.events_per_sec);
        } else if (t.label.rfind("sampled", 0) == 0) {
            sampled_eps = std::max(sampled_eps, t.r.events_per_sec);
        } else {
            fast_eps = std::max(fast_eps, t.r.events_per_sec);
        }
        if (t.label.rfind("fast-warm", 0) == 0) warm = &t.r;
    }
    // Tracing cost, both sides. Hooks-off: the fast trials run with
    // tracing disabled, so the hook branches are priced into
    // fast_events_per_sec — a hook regression shows up on its
    // trajectory. Recorder-on: the ring-traced trial must keep at least
    // half the untraced throughput (every hop records a 40-byte span).
    const double traced_overhead =
        fast_eps > 0 ? 1.0 - traced_eps / fast_eps : 1.0;
    std::printf("\nring-traced run: %.1f%% overhead vs untraced "
                "(gate: <= 50%%)\n",
                100.0 * traced_overhead);
    if (traced_eps < 0.5 * fast_eps) {
        std::puts("FAIL: ring tracing cost the simulator more than half "
                  "its throughput");
        healthy = false;
    }

    // Sampler cost: continuous observability is only continuous if it
    // is cheap enough to leave on, so the cost is a hard gate, not a
    // report.
    const double sampler_overhead =
        fast_eps > 0 ? 1.0 - sampled_eps / fast_eps : 1.0;
    std::printf("sampled run: %.1f%% overhead vs fast (gate: <= 15%%)\n",
                100.0 * sampler_overhead);
    if (sampled_eps < 0.85 * fast_eps) {
        std::puts("FAIL: the fabric sampler cost the simulator more than 15% "
                  "of its throughput");
        healthy = false;
    }

    // Determinism: the first fast trial is the oracle; every other
    // fast, warm and traced run must reproduce it bit for bit. The
    // sampler's pump adds events, so the sampled runs must reproduce
    // the oracle's workload outcomes instead: the same requests
    // completed, the same aggregation results, the same echo sweep.
    const RunResult& oracle = trials.front().r;
    bool deterministic = true;
    for (const Trial& t : trials) {
        if (t.label.rfind("sampled", 0) == 0) {
            if (t.r.kv_completed != oracle.kv_completed ||
                t.r.kv_expected != oracle.kv_expected ||
                t.r.agg_pairs_sent != oracle.agg_pairs_sent ||
                t.r.agg_pairs_received != oracle.agg_pairs_received ||
                t.r.echo_messages != oracle.echo_messages ||
                t.r.echo_expected != oracle.echo_expected) {
                std::printf("FAIL: %s workload outcomes diverged from the "
                            "first fast trial (kv/aggregation/echo)\n",
                            t.label.c_str());
                deterministic = false;
                healthy = false;
            }
            continue;
        }
        if (t.r.signature != oracle.signature || t.r.events != oracle.events ||
            t.r.final_time != oracle.final_time) {
            std::printf("FAIL: %s diverged from the first fast trial "
                        "(signature/events/final time)\n",
                        t.label.c_str());
            deterministic = false;
            healthy = false;
        }
    }

    // Steady state (warm pool): frames ride recycled slabs and every
    // per-frame closure fits a queue slot inline.
    if (warm == nullptr) {
        std::puts("FAIL: no warm fast trial completed");
        healthy = false;
    } else {
        if (warm->frame_heap_allocs != 0) {
            std::printf("FAIL: warm run heap-allocated %llu frame slabs\n",
                        static_cast<unsigned long long>(warm->frame_heap_allocs));
            healthy = false;
        }
        if (warm->boxed_actions > warm->boxed_allowance) {
            std::printf("FAIL: %llu heap-boxed event closures (allowance %llu "
                        "for round setup)\n",
                        static_cast<unsigned long long>(warm->boxed_actions),
                        static_cast<unsigned long long>(warm->boxed_allowance));
            healthy = false;
        }
    }

    // Workload sanity: the closed loop completed everything, the
    // aggregation delivered, and (at full scale) the run was actually
    // macro-sized.
    for (const Trial& t : trials) {
        const RunResult* r = &t.r;
        if (r->kv_completed != r->kv_expected) {
            std::printf("FAIL: kv run completed %llu of %llu requests\n",
                        static_cast<unsigned long long>(r->kv_completed),
                        static_cast<unsigned long long>(r->kv_expected));
            healthy = false;
        }
        if (r->agg_pairs_received == 0 ||
            r->agg_pairs_received >= r->agg_pairs_sent) {
            std::puts("FAIL: aggregation job saw no in-network reduction");
            healthy = false;
        }
        if (r->echo_messages != r->echo_expected) {
            std::printf("FAIL: echo sweep delivered %llu of %llu legs\n",
                        static_cast<unsigned long long>(r->echo_messages),
                        static_cast<unsigned long long>(r->echo_expected));
            healthy = false;
        }
    }
    if (scale >= 1.0 && oracle.events < 1'000'000) {
        std::puts("FAIL: full-scale run executed under a million events");
        healthy = false;
    }

    json.root()
        .number("fast_events_per_sec", fast_eps)
        .number("traced_events_per_sec", traced_eps)
        .number("sampled_events_per_sec", sampled_eps)
        .number("tracing_ring_overhead_pct", 100.0 * traced_overhead)
        .number("sampler_overhead_pct", 100.0 * sampler_overhead)
        .integer("deterministic", deterministic ? 1 : 0)
        .integer("warm_frame_heap_allocs",
                 warm != nullptr ? warm->frame_heap_allocs : 0)
        .integer("warm_boxed_actions",
                 warm != nullptr ? warm->boxed_actions : 0);
    sim_speed.stamp(json, total_events);
    json.write();
    std::puts("\nwrote BENCH_sim_throughput.json");
    return healthy ? 0 : 1;
}
