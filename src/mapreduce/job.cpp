#include "mapreduce/job.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/framebuf.hpp"
#include "mapreduce/collector.hpp"
#include "mapreduce/record.hpp"
#include "mapreduce/reduce.hpp"
#include "mapreduce/wordcount.hpp"
#include "runtime/job_driver.hpp"

namespace daiet::mr {

namespace {

constexpr std::uint16_t kTcpShufflePort = 6000;

/// Application write granularity for the TCP baseline (spill-buffer
/// chunk size; Nagle disabled, so this sets the segment size).
constexpr std::size_t kTcpAppChunkBytes = 1024;

using Clock = std::chrono::steady_clock;

/// Wall seconds since `start`, for the JobPhases split.
double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Cluster + role assignment. All fabric wiring (switch programs,
/// controller, tree layout) lives in the runtime; this struct only maps
/// host slots onto mapper/reducer roles.
struct Cluster {
    std::unique_ptr<rt::ClusterRuntime> runtime;
    std::vector<sim::Host*> mappers;
    std::vector<sim::Host*> reducers;
    /// One aggregation group per reducer; absent for the TCP baseline,
    /// which shuffles over connections instead of trees.
    std::unique_ptr<rt::JobDriver> driver;
};

/// Interleave reducers evenly among the host slots so that multi-rack
/// placements spread both roles across racks.
bool is_reducer_slot(std::size_t i, std::size_t total, std::size_t reducers) {
    return (i + 1) * reducers / total > i * reducers / total;
}

Cluster build_cluster(const Corpus& corpus, const JobOptions& o) {
    const std::size_t m = corpus.config().num_mappers;
    const std::size_t r = corpus.config().num_reducers;
    const std::size_t total = m + r;

    rt::ClusterOptions copts;
    copts.topology = o.topology;
    copts.num_hosts = total;
    copts.n_leaf = o.n_leaf;
    copts.n_spine = o.n_spine;
    copts.fat_tree_k = o.fat_tree_k;
    copts.daiet = o.mode == ShuffleMode::kDaiet;
    copts.config = o.daiet;
    copts.link = o.link;
    copts.seed = o.seed;

    Cluster c;
    c.runtime = std::make_unique<rt::ClusterRuntime>(copts);
    for (std::size_t i = 0; i < total; ++i) {
        (is_reducer_slot(i, total, r) ? c.reducers : c.mappers)
            .push_back(&c.runtime->host(i));
    }
    DAIET_EXPECTS(c.mappers.size() == m && c.reducers.size() == r);

    if (o.mode != ShuffleMode::kTcpBaseline) {
        rt::JobSpec spec;
        spec.name = "wordcount";
        for (std::size_t t = 0; t < r; ++t) {
            rt::JobGroup group;
            group.reducer = c.reducers[t];
            group.mappers = c.mappers;
            group.fn = AggFnId::kSumI32;
            spec.groups.push_back(std::move(group));
        }
        c.driver = std::make_unique<rt::JobDriver>(*c.runtime, std::move(spec));
    }
    return c;
}

/// Reference reduce output for one partition, computed locally.
std::vector<KvPair> partition_reference(const std::vector<MapOutput>& maps,
                                        std::size_t partition) {
    std::size_t total = 0;
    for (const auto& mo : maps) total += mo.partitions[partition].record_count();
    std::vector<KvPair> all;
    all.reserve(total);
    for (const auto& mo : maps) decode_pairs(mo.partitions[partition].bytes(), all);
    return reduce_pairs(all, AggFnId::kSumI32);
}

/// Check reducer `r`'s output against the reference, record its
/// metrics and append the output to `merged` (the job's output pairs).
void finalize_reducer(JobResult& result, const Cluster& c, std::size_t r,
                      const std::vector<MapOutput>& maps,
                      const std::vector<KvPair>& output, std::vector<KvPair>& merged,
                      std::uint64_t pairs_received, std::uint64_t payload_bytes,
                      double reduce_seconds) {
    const auto check_start = Clock::now();
    const auto reference = partition_reference(maps, r);
    if (output != reference) {
        throw std::runtime_error{"WordCount: reducer " + std::to_string(r) +
                                 " output mismatch (" + std::to_string(output.size()) +
                                 " keys vs " + std::to_string(reference.size()) +
                                 " expected) -- aggregation broke correctness"};
    }
    result.phases.check_s += seconds_since(check_start);
    ReducerMetrics metrics;
    metrics.index = r;
    metrics.pairs_received = pairs_received;
    metrics.payload_bytes_received = payload_bytes;
    metrics.frames_received = c.reducers[r]->counters().frames_rx;
    metrics.reduce_seconds = reduce_seconds;
    metrics.output_keys = output.size();
    result.reducers.push_back(metrics);
    merged.insert(merged.end(), output.begin(), output.end());
}

void run_udp_shuffle(JobResult& result, std::vector<KvPair>& merged, Cluster& c,
                     const std::vector<MapOutput>& maps) {
    rt::JobDriver& driver = *c.driver;
    const std::size_t r = c.reducers.size();

    const auto shuffle_start = Clock::now();
    driver.begin_round();
    // Raw collectors instead of the driver's ReducerReceivers: Figure 3
    // times the reduce step over the raw received payloads separately.
    std::vector<std::unique_ptr<RawCollector>> collectors;
    collectors.reserve(r);
    for (std::size_t i = 0; i < r; ++i) {
        collectors.push_back(std::make_unique<RawCollector>(
            *c.reducers[i], driver.tree(i), driver.expected_ends(i)));
    }

    driver.schedule_sends([&maps](std::size_t group, std::size_t mapper,
                                  MapperSender& tx) {
        tx.send_serialized(maps[mapper].partitions[group].bytes());
    });
    result.sim_duration = driver.run_to_quiescence();

    for (std::size_t i = 0; i < r; ++i) {
        if (!collectors[i]->complete()) {
            throw std::runtime_error{"WordCount: reducer " + std::to_string(i) +
                                     " saw only " + std::to_string(collectors[i]->ends()) +
                                     "/" + std::to_string(driver.expected_ends(i)) +
                                     " END packets"};
        }
        if (!collectors[i]->clean()) {
            throw std::runtime_error{"WordCount: reducer " + std::to_string(i) +
                                     " stream flagged dirty (lost pairs)"};
        }
    }
    result.phases.shuffle_s = seconds_since(shuffle_start);

    for (std::size_t i = 0; i < r; ++i) {
        const auto& blocks = collectors[i]->blocks();
        std::vector<KvPair> output;
        const auto reduce_start = Clock::now();
        const double secs = time_seconds(
            [&] { output = reduce_daiet_payloads(blocks, AggFnId::kSumI32); });
        result.phases.reduce_s += seconds_since(reduce_start);
        finalize_reducer(result, c, i, maps, output, merged, collectors[i]->pair_count(),
                         collectors[i]->payload_bytes(), secs);
    }
}

void run_tcp_shuffle(JobResult& result, std::vector<KvPair>& merged, Cluster& c,
                     std::vector<MapOutput>& maps, const JobOptions& o) {
    const std::size_t m = c.mappers.size();
    const std::size_t r = c.reducers.size();

    // Mapper-side sort (the baseline sorts at the mapper, §4) and
    // re-serialization, done before the network phase starts. Each file
    // is replaced by its sorted self: the reference check reads the map
    // outputs in any order, so the job keeps one copy of them.
    const auto presort_start = Clock::now();
    for (MapOutput& mo : maps) {
        for (IntermediateFile& file : mo.partitions) {
            auto records = file.all_records();
            sort_by_key(records);
            file = IntermediateFile{records};
        }
    }
    result.phases.presort_s = seconds_since(presort_start);

    const auto shuffle_start = Clock::now();
    // Reducer-side stream collection: one (key-sorted) run per inbound
    // connection; bytes stay raw until the timed reduce step.
    struct RunState {
        std::vector<std::byte> bytes;
        bool closed{false};
    };
    std::vector<std::vector<std::shared_ptr<RunState>>> runs(r);
    std::vector<std::size_t> closed_count(r, 0);

    for (std::size_t ri = 0; ri < r; ++ri) {
        c.reducers[ri]->tcp_listen(kTcpShufflePort, [&, ri](sim::TcpConnection& conn) {
            auto state = std::make_shared<RunState>();
            runs[ri].push_back(state);
            conn.on_data = [state](std::span<const std::byte> bytes) {
                state->bytes.insert(state->bytes.end(), bytes.begin(), bytes.end());
            };
            conn.on_closed = [state, &closed_count, ri] {
                state->closed = true;
                ++closed_count[ri];
            };
        });
    }

    // Each mapper's connect kickoff goes on its own host's simulator
    // (its shard under parallel simulation).
    for (std::size_t mi = 0; mi < m; ++mi) {
        c.mappers[mi]->simulator().schedule_at(
            static_cast<sim::SimTime>(mi) * sim::kMicrosecond, [&, mi] {
                for (std::size_t ri = 0; ri < r; ++ri) {
                    auto& conn =
                        c.mappers[mi]->tcp_connect(c.reducers[ri]->addr(), kTcpShufflePort);
                    conn.on_established = [&conn, &file = maps[mi].partitions[ri]] {
                        const auto bytes = file.bytes();
                        for (std::size_t off = 0; off < bytes.size();
                             off += kTcpAppChunkBytes) {
                            const std::size_t n =
                                std::min(kTcpAppChunkBytes, bytes.size() - off);
                            conn.send(bytes.subspan(off, n));
                        }
                        conn.close();
                    };
                }
            });
    }

    result.sim_duration = c.runtime->run();

    for (std::size_t ri = 0; ri < r; ++ri) {
        if (closed_count[ri] != m) {
            throw std::runtime_error{"WordCount/TCP: reducer " + std::to_string(ri) +
                                     " completed " + std::to_string(closed_count[ri]) +
                                     "/" + std::to_string(m) + " connections"};
        }
    }
    result.phases.shuffle_s = seconds_since(shuffle_start);

    for (std::size_t ri = 0; ri < r; ++ri) {
        std::vector<std::vector<std::byte>> streams;
        std::uint64_t pairs = 0;
        streams.reserve(runs[ri].size());
        for (const auto& state : runs[ri]) {
            pairs += state->bytes.size() / kPairWireSize;
            streams.push_back(std::move(state->bytes));
        }
        std::vector<KvPair> output;
        const auto reduce_start = Clock::now();
        const double secs = time_seconds([&] {
            output = o.baseline_merge_reducer
                         ? reduce_sorted_streams(streams, AggFnId::kSumI32)
                         : reduce_streams(streams, AggFnId::kSumI32);
        });
        result.phases.reduce_s += seconds_since(reduce_start);
        finalize_reducer(result, c, ri, maps, output, merged, pairs,
                         c.reducers[ri]->counters().tcp_payload_bytes_rx, secs);
    }
}

}  // namespace

JobResult run_wordcount_job(const Corpus& corpus, const JobOptions& options) {
    const std::size_t m = corpus.config().num_mappers;
    const std::size_t r = corpus.config().num_reducers;
    // DAIET mode leases one switch register slot per reducer; the
    // baselines' tree ids are plain stream labels with no such limit.
    DAIET_EXPECTS(r <= options.daiet.max_trees ||
                  options.mode != ShuffleMode::kDaiet);

    // --- map phase ----------------------------------------------------------
    std::vector<MapOutput> maps;
    maps.reserve(m);
    JobResult result;
    result.mode = options.mode;
    const auto map_start = Clock::now();
    for (std::size_t mi = 0; mi < m; ++mi) {
        maps.push_back(run_wordcount_map(corpus.split_text(mi), corpus, r,
                                         options.worker_combiner));
        result.map_words += maps.back().words_processed;
        for (const auto& file : maps.back().partitions) {
            result.total_pairs_shuffled += file.record_count();
        }
    }
    result.phases.map_s = seconds_since(map_start);

    // --- shuffle + reduce ---------------------------------------------------
    std::vector<KvPair> merged;
    {
        const auto build_start = Clock::now();
        Cluster cluster = build_cluster(corpus, options);
        result.phases.build_s = seconds_since(build_start);
        if (options.mode == ShuffleMode::kTcpBaseline) {
            run_tcp_shuffle(result, merged, cluster, maps, options);
        } else {
            run_udp_shuffle(result, merged, cluster, maps);
        }
        result.switch_recirculations = cluster.runtime->total_recirculations();
        result.switch_sram_used_bytes = cluster.runtime->max_switch_sram_used();
    }
    // The cluster is gone and its frames are back in this thread's pool.
    // Hand the idle slabs to the heap: a later job's frames fall in other
    // size classes (TCP segments vs DAIET packets) and would otherwise
    // sit next to this job's peak of idle ones.
    FrameBuf::trim_pool();

    // --- job output -----------------------------------------------------------
    // Reducers own disjoint key sets, so one key sort orders the merged
    // output. Words hold no NUL, so zero-padded key order is string order.
    const auto output_start = Clock::now();
    sort_by_key(merged);
    result.output.reserve(merged.size());
    for (const KvPair& p : merged) {
        result.output.emplace_back(p.key.to_string(), i32_from_wire(p.value));
    }
    result.phases.output_s = seconds_since(output_start);
    return result;
}

}  // namespace daiet::mr
