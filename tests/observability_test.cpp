// Tests for the continuous-observability layer: the parallel driver's
// self-profiler (src/trace/profiler.*), time-series counter tracks and their Perfetto
// export (src/trace/timeseries.* + export.*), the per-service SLO
// monitor (src/trace/slo.*), JSON escaping of hostile metric names, and
// the DAIET_TRACE / DAIET_SCALE env-parsing paths.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kvcache/service.hpp"
#include "netsim/network.hpp"
#include "netsim/parallel.hpp"
#include "netsim/simulator.hpp"
#include "runtime/cluster.hpp"
#include "runtime/sampler.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/profiler.hpp"
#include "trace/slo.hpp"
#include "trace/timeseries.hpp"
#include "trace/trace.hpp"
#include "../bench/bench_util.hpp"

namespace daiet {
namespace {

/// RAII guard: tests leave every process-wide observability singleton
/// in its default (disabled/empty) state.
struct ObsGuard {
    ~ObsGuard() {
        trace::profiler().disable();
        trace::profiler().reset();
        trace::tracer().disable();
        trace::timeseries().clear();
        trace::metrics().clear();
    }
};

/// A small leaf-spine fabric without DAIET programs: 4 hosts across 2
/// racks — enough topology for parallel shards and link probes.
rt::ClusterOptions leaf_spine_opts() {
    rt::ClusterOptions opts;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.num_hosts = 4;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    opts.daiet = false;
    opts.seed = 11;
    return opts;
}

// ------------------------------------------------- mini JSON validator
//
// A recursive-descent acceptance check — enough to prove exported
// documents and hostile-name metric dumps parse as real JSON, with no
// external dependency.

struct JsonCursor {
    const char* p;
    const char* end;

    void skip_ws() {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
    }
    bool eat(char c) {
        skip_ws();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }
    bool parse_string() {
        skip_ws();
        if (p >= end || *p != '"') return false;
        ++p;
        while (p < end && *p != '"') {
            if (static_cast<unsigned char>(*p) < 0x20) return false;  // raw control char
            if (*p == '\\') {
                ++p;
                if (p >= end) return false;
                const char e = *p;
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++p;
                        if (p >= end || std::isxdigit(static_cast<unsigned char>(*p)) == 0) {
                            return false;
                        }
                    }
                } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                           e != 'f' && e != 'n' && e != 'r' && e != 't') {
                    return false;
                }
            }
            ++p;
        }
        if (p >= end) return false;
        ++p;  // closing quote
        return true;
    }
    bool parse_number() {
        skip_ws();
        const char* start = p;
        if (p < end && (*p == '-' || *p == '+')) ++p;
        bool digits = false;
        while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) != 0 ||
                           *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                           *p == '+')) {
            digits = true;
            ++p;
        }
        return digits && p != start;
    }
    bool parse_value() {
        skip_ws();
        if (p >= end) return false;
        switch (*p) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return parse_string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return parse_number();
        }
    }
    bool literal(const char* s) {
        for (; *s != '\0'; ++s, ++p) {
            if (p >= end || *p != *s) return false;
        }
        return true;
    }
    bool parse_object() {
        if (!eat('{')) return false;
        if (eat('}')) return true;
        for (;;) {
            if (!parse_string() || !eat(':') || !parse_value()) return false;
            if (eat('}')) return true;
            if (!eat(',')) return false;
        }
    }
    bool parse_array() {
        if (!eat('[')) return false;
        if (eat(']')) return true;
        for (;;) {
            if (!parse_value()) return false;
            if (eat(']')) return true;
            if (!eat(',')) return false;
        }
    }
};

bool valid_json(const std::string& doc) {
    JsonCursor c{doc.data(), doc.data() + doc.size()};
    if (!c.parse_value()) return false;
    c.skip_ws();
    return c.p == c.end;
}

TEST(JsonValidator, SanityOnKnownGoodAndBadDocs) {
    EXPECT_TRUE(valid_json(R"({"a": [1, 2.5, "x\n"], "b": {"c": null}})"));
    EXPECT_FALSE(valid_json(R"({"a": )"));
    EXPECT_FALSE(valid_json("{\"a\": \"\t\"}"));  // raw control char
    EXPECT_FALSE(valid_json(R"({"a": "\x"})"));   // bad escape
}

// ------------------------------------------- metrics JSON escaping (S1)

TEST(MetricsEscaping, HostileNamesProduceValidJson) {
    ObsGuard guard;
    trace::metrics().clear();
    trace::metrics().counter("quote\"backslash\\", "tab\ttenant", "new\nline").inc(3);
    trace::metrics().gauge("ctrl\x01" "char", "", "cr\rnode").set(1.5);
    trace::metrics().histogram("bell\x07hist").add(42.0);

    const std::string json = trace::metrics().to_json();
    EXPECT_TRUE(valid_json(json)) << json;
    // The quote must arrive escaped, not raw.
    EXPECT_NE(json.find("quote\\\"backslash\\\\"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
    EXPECT_NE(json.find("\\u0007"), std::string::npos);
}

TEST(MetricsEscaping, ExporterEscapesHostileNodeNames) {
    ObsGuard guard;
    trace::tracer().enable_full();
    const std::uint32_t node = trace::tracer().intern("evil\"node\nname");
    trace::tracer().record({.ts = 100, .trace = 1, .a = 0, .b = 0,
                            .node = node, .kind = trace::EventKind::kHostTx});
    const std::string json = trace::chrome_trace_json();
    EXPECT_TRUE(valid_json(json)) << json;
}

// --------------------------------------------------- env parsing (S2)

TEST(EnvParsing, TraceEnvGrammar) {
    using Mode = trace::TraceEnvConfig::Mode;
    auto cfg = trace::parse_trace_env("full");
    EXPECT_TRUE(cfg.recognized);
    EXPECT_EQ(cfg.mode, Mode::kFull);

    cfg = trace::parse_trace_env("1");
    EXPECT_TRUE(cfg.recognized);
    EXPECT_EQ(cfg.mode, Mode::kFull);

    cfg = trace::parse_trace_env("ring");
    EXPECT_TRUE(cfg.recognized);
    EXPECT_EQ(cfg.mode, Mode::kRing);
    EXPECT_EQ(cfg.ring_capacity, 1u << 16);

    cfg = trace::parse_trace_env("ring:512");
    EXPECT_TRUE(cfg.recognized);
    EXPECT_EQ(cfg.mode, Mode::kRing);
    EXPECT_EQ(cfg.ring_capacity, 512u);

    for (const char* off : {"0", "off", "none", ""}) {
        cfg = trace::parse_trace_env(off);
        EXPECT_TRUE(cfg.recognized) << off;
        EXPECT_EQ(cfg.mode, Mode::kDisabled) << off;
    }
    cfg = trace::parse_trace_env(nullptr);
    EXPECT_TRUE(cfg.recognized);
    EXPECT_EQ(cfg.mode, Mode::kDisabled);

    // Junk: unrecognized AND disabled (never a silent fallback mode).
    for (const char* junk : {"yes", "ring:", "ring:-5", "ring:abc", "ring:12x", "FULL",
                             "ring:99999999999999999999"}) {
        cfg = trace::parse_trace_env(junk);
        EXPECT_FALSE(cfg.recognized) << junk;
        EXPECT_EQ(cfg.mode, Mode::kDisabled) << junk;
    }
}

// A junk DAIET_TRACE exits 2 with a message naming the variable, like
// DAIET_SCALE, instead of running untraced.
TEST(EnvParsingDeathTest, JunkTraceEnvExits2) {
    for (const char* junk : {"yes", "ring:99999999999999999999"}) {
        EXPECT_EXIT(
            {
                setenv("DAIET_TRACE", junk, 1);
                trace::trace_env();
            },
            ::testing::ExitedWithCode(2), "DAIET_TRACE")
            << junk;
    }
}

TEST(EnvParsing, ScaleGrammar) {
    EXPECT_EQ(bench::parse_scale("0.05"), 0.05);
    EXPECT_EQ(bench::parse_scale("2"), 2.0);
    EXPECT_EQ(bench::parse_scale("1e-1"), 0.1);
    // Garbage, trailing junk and non-positive values are refused, never
    // read as full scale.
    for (const char* junk : {"", "abc", "0.3x", " ", "0", "-1", "nan", "inf", "1e999"}) {
        EXPECT_FALSE(bench::parse_scale(junk).has_value()) << '"' << junk << '"';
    }
    EXPECT_FALSE(bench::parse_scale(nullptr).has_value());
}

TEST(EnvParsing, ScaledCountsNeverRoundToZero) {
    // A bench sizes its workload with scaled(); a count that rounded to
    // 0 at a tiny DAIET_SCALE would trip the workload's own argument
    // checks instead of running a one-request smoke.
    const char* saved = std::getenv("DAIET_SCALE");
    const std::string restore = saved != nullptr ? saved : "";
    setenv("DAIET_SCALE", "0.0001", 1);
    EXPECT_EQ(bench::scaled(600), 1U);
    EXPECT_EQ(bench::scaled(9000), 1U);
    setenv("DAIET_SCALE", "0.5", 1);
    EXPECT_EQ(bench::scaled(600), 300U);
    if (saved != nullptr) {
        setenv("DAIET_SCALE", restore.c_str(), 1);
    } else {
        unsetenv("DAIET_SCALE");
    }
}

// -------------------------------------------------------- profiler

TEST(Profiler, DisabledByDefault) {
    ObsGuard guard;
    EXPECT_FALSE(trace::profiling());
    EXPECT_TRUE(trace::profiler().report().lanes.empty());
}

TEST(Profiler, ReportMathUtilizationAndImbalance) {
    ObsGuard guard;
    // reset() (not enable()) leaves no tick calibration anchor, so the
    // tick->ns conversion is identity and the synthetic inputs below
    // come back out exactly.
    auto& prof = trace::profiler();
    prof.reset();
    prof.add_exec(0, 800, 10);
    prof.add_exec(1, 400, 5);
    prof.add_barrier(1, 300);
    prof.add_drain(0, 100);

    const auto report = prof.report();
    ASSERT_EQ(report.lanes.size(), 2u);
    // No begin_run/end_run bracket: wall falls back to the max exec.
    EXPECT_EQ(report.wall_ns, 800u);
    EXPECT_EQ(report.exec_ns, 1200u);
    EXPECT_EQ(report.barrier_ns, 300u);
    EXPECT_EQ(report.drain_ns, 100u);
    EXPECT_DOUBLE_EQ(report.imbalance, 2.0);
    EXPECT_DOUBLE_EQ(report.utilization_max, 1.0);
    EXPECT_DOUBLE_EQ(report.utilization_min, 0.5);
}

TEST(Profiler, ParallelRunProducesPerShardBreakdown) {
    ObsGuard guard;
    // A real sharded fabric: leaf-spine cluster, parallel partition,
    // some kv traffic — the profiler must see every shard's windows.
    rt::ClusterRuntime rt{leaf_spine_opts()};
    rt.enable_parallel(2);
    trace::profiler().enable();

    kv::KvServiceOptions kopts;
    kopts.server_host = 0;
    kopts.config.cache_slots = 0;
    kv::KvService svc{rt, kopts};
    svc.preload(64);
    kv::KvWorkload wl;
    wl.num_keys = 64;
    wl.requests_per_client = 40;
    svc.schedule(wl);
    rt.run();
    trace::profiler().disable();

    const auto report = trace::profiler().report();
    EXPECT_GE(report.lanes.size(), 2u);
    EXPECT_GT(report.exec_ns, 0u);
    EXPECT_GT(report.events, 0u);
    // The windowed driver bracketed the run, so wall came from
    // begin_run/end_run and exceeds any single lane's exec time.
    for (const auto& lane : report.lanes) {
        EXPECT_LE(lane.exec_ns, report.wall_ns);
    }
}

// ------------------------------------------------------- time series

TEST(TimeSeries, RingKeepsMostRecentPoints) {
    trace::TimeSeries ts{"sig", "node", 4};
    for (std::uint64_t i = 0; i < 10; ++i) {
        ts.push(i * 100, static_cast<double>(i));
    }
    EXPECT_EQ(ts.total(), 10u);
    EXPECT_EQ(ts.held(), 4u);
    const auto points = ts.snapshot();
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points.front().ts, 600u);  // oldest kept
    EXPECT_EQ(points.back().ts, 900u);   // newest
    EXPECT_DOUBLE_EQ(points.back().value, 9.0);
}

TEST(TimeSeries, SamplerScrapesEveryProbeAtTheGivenTime) {
    ObsGuard guard;
    trace::TimeSeries a{"a", "n", 16};
    trace::TimeSeries b{"b", "n", 16};
    trace::TsSampler sampler{100};
    int calls = 0;
    sampler.add(a, [&] { return static_cast<double>(++calls); });
    sampler.add(b, [] { return 7.0; });

    sampler.sample(0);
    sampler.sample(460);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(sampler.samples_taken(), 2u);
    const auto points = a.snapshot();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].ts, 0u);
    EXPECT_EQ(points[1].ts, 460u);
    EXPECT_EQ(points[1].value, 2.0);
    EXPECT_EQ(b.total(), 2u);
}

TEST(TimeSeries, RegistryFindsOrCreatesByNameAndNode) {
    ObsGuard guard;
    trace::timeseries().clear();
    auto& a = trace::timeseries().track("q", "n1", 8);
    auto& b = trace::timeseries().track("q", "n2", 8);
    auto& a2 = trace::timeseries().track("q", "n1", 999);  // capacity ignored on find
    EXPECT_NE(&a, &b);
    EXPECT_EQ(&a, &a2);
    EXPECT_EQ(a.capacity(), 8u);
    EXPECT_EQ(trace::timeseries().size(), 2u);
}

// ------------------------------------- Perfetto counter export (S4)

TEST(CounterExport, TracksPresentStablePidsValidJson) {
    ObsGuard guard;
    trace::tracer().enable_full();
    const std::uint32_t node = trace::tracer().intern("leaf0");
    for (std::uint64_t i = 1; i <= 3; ++i) {
        trace::tracer().record({.ts = 100 * i,
                                .trace = i,
                                .a = 0,
                                .b = 0,
                                .node = node,
                                .kind = trace::EventKind::kHostTx});
    }

    auto& track = trace::timeseries().track("queue.bytes->spine0", "leaf0", 8);
    track.push(100, 10.0);
    track.push(200, 20.0);
    auto& other = trace::timeseries().track("sram.used_bytes", "leaf1", 8);
    other.push(150, 4096.0);

    const std::string json = trace::chrome_trace_json();
    EXPECT_TRUE(valid_json(json)) << json;
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("queue.bytes->spine0"), std::string::npos);
    EXPECT_NE(json.find("sram.used_bytes"), std::string::npos);

    // Stable track identity: the counter rows for leaf0 carry the SAME
    // pid as leaf0's instant events.
    char expect[64];
    std::snprintf(expect, sizeof expect, "\"ph\": \"C\", \"pid\": %u", node);
    EXPECT_NE(json.find(expect), std::string::npos) << json;

    // Exporting twice yields identical counter rows (intern is stable).
    const std::string again = trace::chrome_trace_json();
    EXPECT_EQ(json, again);
}

TEST(CounterExport, CounterOnlyTraceStillLabelsItsProcess) {
    ObsGuard guard;
    trace::tracer().enable_full();
    auto& track = trace::timeseries().track("hit.rate", "edge7", 4);
    track.push(1000, 0.5);
    const std::string json = trace::chrome_trace_json();
    EXPECT_TRUE(valid_json(json)) << json;
    // No instant events at all — the process_name metadata must still
    // name the counter's home node.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("edge7"), std::string::npos);
}

// ------------------------------------------------------------- SLO

TEST(Slo, AllSuccessesMeetObjectives) {
    trace::SloMonitor mon{{.service = "t",
                           .availability_objective = 0.999,
                           .p99_objective_ns = 10'000,
                           .window_ns = 1'000,
                           .max_windows = 8}};
    for (std::uint64_t i = 0; i < 1000; ++i) {
        mon.record_success(i * 10, 5'000);
    }
    const auto v = mon.evaluate();
    EXPECT_TRUE(v.met);
    EXPECT_TRUE(v.availability_met);
    EXPECT_TRUE(v.latency_met);
    EXPECT_DOUBLE_EQ(v.availability, 1.0);
    EXPECT_DOUBLE_EQ(v.burn_rate, 0.0);
    EXPECT_GT(v.windows, 0u);
}

TEST(Slo, AvailabilityMissAndBurnRate) {
    trace::SloMonitor mon{{.service = "t",
                           .availability_objective = 0.99,
                           .window_ns = 1'000,
                           .max_windows = 4}};
    // 95 ok + 5 failures: availability 0.95 < 0.99, burn = 0.05/0.01.
    for (std::uint64_t i = 0; i < 95; ++i) mon.record_success(i, 100);
    for (std::uint64_t i = 0; i < 5; ++i) mon.record_failure(50);
    const auto v = mon.evaluate();
    EXPECT_FALSE(v.met);
    EXPECT_FALSE(v.availability_met);
    EXPECT_NEAR(v.availability, 0.95, 1e-9);
    EXPECT_NEAR(v.burn_rate, 5.0, 1e-9);
    EXPECT_GE(v.worst_window_burn, v.burn_rate - 1e-9);
    EXPECT_NE(mon.report().find("VIOLATED"), std::string::npos);
}

TEST(Slo, LatencyMissIsDetectedByP99) {
    trace::SloMonitor mon{{.service = "t",
                           .availability_objective = 0.5,
                           .p99_objective_ns = 1'000}};
    // 2% of requests are 100x slower than the objective.
    for (std::uint64_t i = 0; i < 98; ++i) mon.record_success(i, 500);
    for (std::uint64_t i = 0; i < 2; ++i) mon.record_success(100 + i, 100'000);
    const auto v = mon.evaluate();
    EXPECT_TRUE(v.availability_met);
    EXPECT_FALSE(v.latency_met);
    EXPECT_FALSE(v.met);
    EXPECT_GT(v.p99_ns, 1'000u);
}

TEST(Slo, NoTrafficIsVacuouslyMet) {
    trace::SloMonitor mon{{.service = "t"}};
    EXPECT_TRUE(mon.evaluate().met);
}

TEST(Slo, WindowRingEvictsOldestKeepingTotals) {
    trace::SloMonitor mon{{.service = "t",
                           .availability_objective = 0.9,
                           .window_ns = 100,
                           .max_windows = 2}};
    mon.record_failure(50);     // window 0
    mon.record_success(150, 1);  // window 1
    mon.record_success(250, 1);  // window 2: evicts window 0's slot
    mon.record_success(350, 1);  // window 3: evicts window 1's slot
    const auto v = mon.evaluate();
    EXPECT_EQ(v.total, 4u);
    EXPECT_EQ(v.failed, 1u);  // lifetime totals keep the evicted failure
    EXPECT_EQ(v.windows, 2u);
    // The failure's window was evicted, so the worst *tracked* window
    // is clean even though lifetime availability is 0.75.
    EXPECT_DOUBLE_EQ(v.worst_window_burn, 0.0);
}

TEST(Slo, KvServiceGatesCleanRunAndPublishes) {
    ObsGuard guard;
    trace::metrics().clear();
    rt::ClusterRuntime rt{leaf_spine_opts()};
    kv::KvServiceOptions kopts;
    kopts.server_host = 0;
    kopts.config.cache_slots = 0;
    kv::KvService svc{rt, kopts};
    trace::SloSpec spec;
    spec.availability_objective = 0.999;
    spec.p99_objective_ns = 5'000'000;
    spec.window_ns = 100'000;
    spec.max_windows = 32;
    svc.set_slo(spec);
    svc.preload(64);
    kv::KvWorkload wl;
    wl.num_keys = 64;
    wl.requests_per_client = 50;
    const auto stats = svc.run(wl);
    ASSERT_EQ(stats.abandoned, 0u);

    ASSERT_NE(svc.slo(), nullptr);
    const auto v = svc.slo()->evaluate();
    EXPECT_TRUE(v.met) << svc.slo()->report();
    EXPECT_EQ(v.total, stats.get_replies + stats.put_acks);

    bool published = false;
    for (const auto& e : trace::metrics().entries()) {
        if (e.name == "slo.met" && e.tenant == "kv") {
            published = true;
            EXPECT_DOUBLE_EQ(e.gauge, 1.0);
        }
    }
    EXPECT_TRUE(published);
}

// ------------------------------------------------- fabric sampler

TEST(FabricSampler, EventPumpSamplesLinkQueuesOnCadence) {
    ObsGuard guard;
    trace::timeseries().clear();
    rt::ClusterRuntime rt{leaf_spine_opts()};
    kv::KvServiceOptions kopts;
    kopts.server_host = 0;
    kopts.config.cache_slots = 0;
    kv::KvService svc{rt, kopts};
    svc.preload(32);

    rt::FabricSampler sampler{rt, 10'000, 256};  // every 10 us of sim time
    sampler.add_fabric_probes();
    svc.install_probes(sampler);
    ASSERT_GT(sampler.sampler().probes(), 0u);

    kv::KvWorkload wl;
    wl.num_keys = 32;
    wl.requests_per_client = 50;
    svc.schedule(wl);
    sampler.start(1'000'000);  // pump for the first 1 ms of sim time
    rt.run();

    EXPECT_GT(sampler.samples_taken(), 10u);
    // Every link direction got a track with samples on the cadence.
    bool saw_queue_track = false;
    for (const auto& ts : trace::timeseries().series()) {
        if (ts.name().rfind("queue.bytes->", 0) == 0) {
            saw_queue_track = true;
            EXPECT_EQ(ts.total(), sampler.samples_taken());
        }
    }
    EXPECT_TRUE(saw_queue_track);
}

// The sampler's probes read every shard's state from one shard's
// events: on a partitioned fabric it refuses to start.
TEST(FabricSampler, RefusesAPartitionedFabric) {
    ObsGuard guard;
    rt::ClusterRuntime rt{leaf_spine_opts()};
    rt.enable_parallel(2);
    rt::FabricSampler sampler{rt, 10'000, 16};
    sampler.add_fabric_probes();
    EXPECT_THROW(sampler.start(1'000'000), std::runtime_error);
    EXPECT_EQ(sampler.samples_taken(), 0u);
}

}  // namespace
}  // namespace daiet
