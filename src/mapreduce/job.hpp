// WordCount-over-shuffle job orchestration: the paper's §5 experiment.
//
// One function runs the full pipeline — map, shuffle through the
// simulated network, reduce — under one of three shuffle transports:
//
//   kTcpBaseline  "the original TCP-based data exchange": mappers sort
//                 each partition, stream it over TCP (1 KiB application
//                 writes, Nagle off); reducers group by sorting, as in
//                 every mode (ablation A8 k-way-merges the sorted runs).
//   kUdpNoAgg     "using UDP and the DAIET protocol, but without
//                 executing data aggregation in the switch": plain L2
//                 forwarding of DAIET packets.
//   kDaiet        in-network aggregation on the programmable ToR.
//
// The returned metrics are exactly the quantities behind Figure 3:
// per-reducer received data volume, received packet counts, and
// measured reduce time.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "mapreduce/corpus.hpp"
#include "netsim/link.hpp"
#include "netsim/time.hpp"
#include "runtime/cluster.hpp"

namespace daiet::mr {

enum class ShuffleMode : std::uint8_t { kTcpBaseline, kUdpNoAgg, kDaiet };

constexpr std::string_view to_string(ShuffleMode mode) noexcept {
    switch (mode) {
        case ShuffleMode::kTcpBaseline: return "tcp-baseline";
        case ShuffleMode::kUdpNoAgg: return "udp-no-agg";
        case ShuffleMode::kDaiet: return "daiet";
    }
    return "unknown";
}

struct JobOptions {
    ShuffleMode mode{ShuffleMode::kDaiet};
    Config daiet{};
    /// Worker-level combiner in map tasks (ablation A7).
    bool worker_combiner{false};
    /// Ablation A8: let the TCP-baseline reducer exploit mapper-side
    /// sorting with a k-way merge instead of the default sort-based
    /// grouping that all reducers share.
    bool baseline_merge_reducer{false};
    sim::LinkParams link{};
    std::uint64_t seed{7};
    /// Fabric shape (ablation A5: multi-level aggregation trees). The
    /// default single-ToR star is the paper's Figure 3 testbed; the
    /// leaf-spine and fat-tree fabrics aggregate at every hop.
    rt::TopologyKind topology{rt::TopologyKind::kStar};
    std::size_t n_leaf{4};
    std::size_t n_spine{2};
    std::size_t fat_tree_k{4};
};

struct ReducerMetrics {
    std::size_t index{0};
    std::uint64_t pairs_received{0};
    std::uint64_t payload_bytes_received{0};  ///< L4 payload (data volume)
    std::uint64_t frames_received{0};         ///< packets at the reducer NIC
    double reduce_seconds{0.0};
    std::size_t output_keys{0};
};

/// Where one run_wordcount_job call spent its wall time, in seconds.
/// The phases run one after another, so their sum is the job's wall time
/// less the untimed glue between them (and the cluster's teardown).
struct JobPhases {
    double map_s{0.0};      ///< map tasks of every mapper
    double build_s{0.0};    ///< cluster, switch programs and aggregation trees
    double presort_s{0.0};  ///< the TCP baseline's mapper-side sort; 0 otherwise
    double shuffle_s{0.0};  ///< the simulated shuffle, up to the last END or FIN
    double reduce_s{0.0};   ///< every timed reduce, all repeats
    double check_s{0.0};    ///< reducer outputs against the local reference
    double output_s{0.0};   ///< merging and sorting the job output

    double sum() const noexcept {
        return map_s + build_s + presort_s + shuffle_s + reduce_s + check_s + output_s;
    }
};

struct JobResult {
    ShuffleMode mode{};
    JobPhases phases;
    std::vector<ReducerMetrics> reducers;
    /// Final output, merged across reducers and sorted (for correctness
    /// checks against Corpus::reference_counts()).
    std::vector<std::pair<std::string, std::int64_t>> output;
    std::uint64_t total_pairs_shuffled{0};
    std::uint64_t switch_recirculations{0};
    std::size_t switch_sram_used_bytes{0};
    sim::SimTime sim_duration{0};
    std::uint64_t map_words{0};

    std::uint64_t total_frames_at_reducers() const noexcept {
        std::uint64_t t = 0;
        for (const auto& r : reducers) t += r.frames_received;
        return t;
    }
    std::uint64_t total_payload_bytes_at_reducers() const noexcept {
        std::uint64_t t = 0;
        for (const auto& r : reducers) t += r.payload_bytes_received;
        return t;
    }
};

/// Run the full job. Throws on protocol failure (e.g. missing ENDs) or
/// if any reducer output disagrees with a locally computed reference.
JobResult run_wordcount_job(const Corpus& corpus, const JobOptions& options);

}  // namespace daiet::mr
