// JobDriver: round-based orchestration of one aggregation job.
//
// A job is a set of aggregation groups — each a reducer (tree root) fed
// by a set of mapper hosts — running one or more rounds of the paper's
// send / in-network-aggregate / complete cycle. The driver leases tree
// ids from the cluster's shared TreePool (so concurrent jobs coexist on
// one fabric), asks the controller to lay the trees out, re-arms them
// between rounds, and drives the restart/recovery path uniformly when a
// round finishes dirty or incomplete.
//
// Two levels of use:
//   * run_round(produce, consume): the whole cycle — bind receivers,
//     schedule staggered sends, run to quiescence, verify (restarting up
//     to Options::max_restarts times), collect stats, consume results.
//   * the individual pieces (bind_receivers / schedule_sends /
//     run_to_quiescence / verify / collect) for workloads with custom
//     collectors (MapReduce's RawCollector) or for interleaving several
//     jobs' traffic in a single simulation run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/worker.hpp"
#include "runtime/cluster.hpp"

namespace daiet::rt {

/// One aggregation tree: a reducer fed by a set of mappers.
struct JobGroup {
    sim::Host* reducer{nullptr};
    std::vector<sim::Host*> mappers;
    AggFnId fn{AggFnId::kSumI32};
};

struct JobSpec {
    std::string name{"job"};
    std::vector<JobGroup> groups;
};

struct RoundStats {
    std::size_t round{0};
    /// 1 = clean on the first try; each extra attempt is one recovery
    /// restart (switch state wiped, receivers reset, full resend).
    std::size_t attempts{1};
    sim::SimTime started{0};
    sim::SimTime finished{0};
    std::uint64_t pairs_sent{0};
    std::uint64_t pairs_received{0};
    std::uint64_t data_packets_sent{0};
    std::uint64_t data_packets_received{0};
    std::uint64_t payload_bytes_received{0};

    /// Realized in-network traffic reduction (what Figures 1 and 3 call
    /// the achievable reduction, measured on the wire).
    double traffic_reduction() const noexcept {
        return pairs_sent == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(pairs_received) /
                               static_cast<double>(pairs_sent);
    }
};

class JobDriver {
public:
    struct Options {
        /// Recovery budget per round; 0 = fail on the first dirty round.
        std::size_t max_restarts{0};
    };

    /// Distinct sending hosts start this far apart (the §5 runs stagger
    /// mappers by 1 us).
    static constexpr sim::SimTime kSenderStagger = sim::kMicrosecond;

    /// Emit this round's pairs for (group, mapper-index) through `tx`.
    /// The driver flushes and ENDs the sender afterwards, so producing
    /// nothing is legal (every tree child must END even without data).
    using ProduceFn =
        std::function<void(std::size_t group, std::size_t mapper, MapperSender& tx)>;
    using ConsumeFn = std::function<void(std::size_t group, ReducerReceiver& rx)>;
    using Receivers = std::vector<std::unique_ptr<ReducerReceiver>>;

    /// Leases one tree id per group from the cluster's pool and (on
    /// DAIET-enabled fabrics) installs the trees via the controller.
    JobDriver(ClusterRuntime& rt, JobSpec spec);
    JobDriver(ClusterRuntime& rt, JobSpec spec, Options options);
    ~JobDriver();

    JobDriver(const JobDriver&) = delete;
    JobDriver& operator=(const JobDriver&) = delete;

    const JobSpec& spec() const noexcept { return spec_; }
    ClusterRuntime& cluster() noexcept { return *rt_; }
    TreeId tree(std::size_t group) const;
    /// END packets the reducer of `group` must observe per round: one
    /// per direct tree child (controller layout), or one per mapper on
    /// non-aggregating fabrics.
    std::uint32_t expected_ends(std::size_t group) const;

    /// The full round cycle, including recovery. Returns the stats also
    /// appended to history().
    RoundStats run_round(const ProduceFn& produce, const ConsumeFn& consume = {});

    // --- composable pieces --------------------------------------------------
    /// Re-arm the job's trees for the next round (no-op on round 0 and
    /// on non-DAIET fabrics).
    void begin_round();
    /// Bind one ReducerReceiver per group. Reducer hosts must be
    /// distinct (one DAIET UDP port per host).
    Receivers bind_receivers();
    /// Schedule every (group, mapper) send; distinct hosts start
    /// kSenderStagger apart in scheduling order.
    void schedule_sends(const ProduceFn& produce);
    sim::SimTime run_to_quiescence() { return rt_->run(); }
    /// True when every receiver is complete and clean.
    bool round_ok(const Receivers& receivers) const;
    /// Throws with a per-group diagnostic unless round_ok.
    void verify(const Receivers& receivers) const;
    /// Recovery: wipe any partial per-switch aggregation state for all
    /// of the job's trees and reset the receivers for a full resend.
    void restart(Receivers& receivers);
    /// Record stats for the finished round, invoke `consume`, advance
    /// the round counter.
    RoundStats collect(Receivers& receivers, const ConsumeFn& consume = {});

    std::size_t rounds_completed() const noexcept { return round_; }
    const std::vector<RoundStats>& history() const noexcept { return history_; }

private:
    ClusterRuntime* rt_;
    JobSpec spec_;
    Options options_;
    std::vector<TreeId> trees_;
    std::vector<std::uint32_t> expected_ends_;
    std::size_t round_{0};
    std::size_t attempts_this_round_{1};
    /// Per-sending-host accumulators for the in-flight round. Under
    /// parallel simulation each send closure runs on its host's shard
    /// thread, so every host writes its own cache-line-sized slot and
    /// collect() sums them after the run has quiesced.
    struct alignas(64) SendSlot {
        std::uint64_t pairs{0};
        std::uint64_t packets{0};
    };
    std::vector<SendSlot> send_slots_;
    sim::SimTime round_started_{0};
    std::vector<RoundStats> history_;
};

}  // namespace daiet::rt
