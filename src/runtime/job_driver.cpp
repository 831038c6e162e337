#include "runtime/job_driver.hpp"

#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/contracts.hpp"

namespace daiet::rt {

JobDriver::JobDriver(ClusterRuntime& rt, JobSpec spec)
    : JobDriver{rt, std::move(spec), Options{}} {}

JobDriver::JobDriver(ClusterRuntime& rt, JobSpec spec, Options options)
    : rt_{&rt}, spec_{std::move(spec)}, options_{options} {
    DAIET_EXPECTS(!spec_.groups.empty());
    for (std::size_t g = 0; g < spec_.groups.size(); ++g) {
        const JobGroup& group = spec_.groups[g];
        DAIET_EXPECTS(group.reducer != nullptr);
        DAIET_EXPECTS(!group.mappers.empty());
        // One DAIET UDP port per host: a job may root at most one tree
        // on any given reducer.
        for (std::size_t h = 0; h < g; ++h) {
            DAIET_EXPECTS(spec_.groups[h].reducer != group.reducer);
        }
    }

    trees_ = rt_->trees().acquire(spec_.groups.size());
    expected_ends_.resize(spec_.groups.size());
    for (std::size_t g = 0; g < spec_.groups.size(); ++g) {
        const JobGroup& group = spec_.groups[g];
        if (rt_->daiet_enabled()) {
            TreeSpec ts;
            ts.id = trees_[g];
            ts.reducer = group.reducer;
            ts.mappers = group.mappers;
            ts.fn = group.fn;
            expected_ends_[g] =
                rt_->controller().setup_tree(ts).reducer_expected_ends;
        } else {
            expected_ends_[g] = static_cast<std::uint32_t>(group.mappers.size());
        }
    }
}

JobDriver::~JobDriver() {
    // Returning a tree id to the pool must hand the next lessee clean
    // switch state, even if this job died mid-round.
    if (rt_->daiet_enabled()) {
        for (const TreeId id : trees_) {
            try {
                rt_->controller().restart_tree(id);
            } catch (...) {  // NOLINT(bugprone-empty-catch)
                // Best effort: an unknown tree simply has no state to wipe.
            }
        }
    }
    for (const TreeId id : trees_) rt_->trees().release(id);
}

TreeId JobDriver::tree(std::size_t group) const {
    DAIET_EXPECTS(group < trees_.size());
    return trees_[group];
}

std::uint32_t JobDriver::expected_ends(std::size_t group) const {
    DAIET_EXPECTS(group < expected_ends_.size());
    return expected_ends_[group];
}

void JobDriver::begin_round() {
    if (round_ > 0 && rt_->daiet_enabled()) {
        for (const TreeId id : trees_) rt_->controller().reset_tree(id);
    }
    round_started_ = rt_->now();
}

JobDriver::Receivers JobDriver::bind_receivers() {
    Receivers receivers;
    receivers.reserve(spec_.groups.size());
    for (std::size_t g = 0; g < spec_.groups.size(); ++g) {
        const JobGroup& group = spec_.groups[g];
        receivers.push_back(std::make_unique<ReducerReceiver>(
            *group.reducer, trees_[g], group.fn, expected_ends_[g]));
    }
    return receivers;
}

void JobDriver::schedule_sends(const ProduceFn& produce) {
    // Group the (group, mapper) sends by physical host so each sending
    // host gets one staggered start, regardless of how many trees it
    // feeds (a MapReduce mapper streams to every reducer's tree).
    struct HostWork {
        sim::Host* host{nullptr};
        std::vector<std::pair<std::size_t, std::size_t>> sends;  // (group, mapper)
    };
    std::vector<HostWork> work;
    std::unordered_map<sim::Host*, std::size_t> index;
    for (std::size_t g = 0; g < spec_.groups.size(); ++g) {
        for (std::size_t mi = 0; mi < spec_.groups[g].mappers.size(); ++mi) {
            sim::Host* host = spec_.groups[g].mappers[mi];
            const auto [it, inserted] = index.try_emplace(host, work.size());
            if (inserted) work.push_back(HostWork{host, {}});
            work[it->second].sends.emplace_back(g, mi);
        }
    }
    // Kickoffs go through each sending host's own simulator (its shard
    // under parallel simulation — scheduling cross-shard would race);
    // the stagger offsets from the fabric-wide clock so the schedule is
    // the same one the sequential run produces.
    send_slots_.assign(work.size(), SendSlot{});
    const sim::SimTime base = rt_->now();
    for (std::size_t hi = 0; hi < work.size(); ++hi) {
        work[hi].host->simulator().schedule_at(
            base + static_cast<sim::SimTime>(hi) * kSenderStagger,
            [this, produce, hi, item = work[hi]] {
                for (const auto& [g, mi] : item.sends) {
                    MapperSender tx{*item.host, rt_->options().config, trees_[g],
                                    spec_.groups[g].reducer->addr()};
                    produce(g, mi, tx);
                    tx.finish();
                    send_slots_[hi].pairs += tx.stats().pairs_sent;
                    send_slots_[hi].packets += tx.stats().data_packets_sent;
                }
            });
    }
}

bool JobDriver::round_ok(const Receivers& receivers) const {
    for (const auto& rx : receivers) {
        if (!rx->complete() || !rx->clean()) return false;
    }
    return true;
}

void JobDriver::verify(const Receivers& receivers) const {
    for (std::size_t g = 0; g < receivers.size(); ++g) {
        const ReducerReceiver& rx = *receivers[g];
        if (!rx.complete()) {
            throw std::runtime_error{
                spec_.name + ": group " + std::to_string(g) + " round " +
                std::to_string(round_) + " saw only " +
                std::to_string(rx.stats().end_packets_received) + "/" +
                std::to_string(expected_ends_[g]) + " END packets"};
        }
        if (!rx.clean()) {
            throw std::runtime_error{
                spec_.name + ": group " + std::to_string(g) + " round " +
                std::to_string(round_) + " stream flagged dirty (" +
                std::to_string(rx.stats().pairs_received) + " pairs arrived, " +
                std::to_string(rx.declared_total()) + " declared)"};
        }
    }
}

void JobDriver::restart(Receivers& receivers) {
    if (rt_->daiet_enabled()) {
        for (const TreeId id : trees_) rt_->controller().restart_tree(id);
    }
    for (std::size_t g = 0; g < receivers.size(); ++g) {
        receivers[g]->reset(expected_ends_[g]);
    }
    ++attempts_this_round_;
    send_slots_.clear();
}

RoundStats JobDriver::collect(Receivers& receivers, const ConsumeFn& consume) {
    RoundStats rs;
    rs.round = round_;
    rs.attempts = attempts_this_round_;
    rs.started = round_started_;
    rs.finished = rt_->now();
    for (const SendSlot& slot : send_slots_) {
        rs.pairs_sent += slot.pairs;
        rs.data_packets_sent += slot.packets;
    }
    for (const auto& rx : receivers) {
        rs.pairs_received += rx->stats().pairs_received;
        rs.data_packets_received += rx->stats().data_packets_received;
        rs.payload_bytes_received += rx->stats().payload_bytes_received;
    }
    if (consume) {
        for (std::size_t g = 0; g < receivers.size(); ++g) {
            consume(g, *receivers[g]);
        }
    }
    history_.push_back(rs);
    ++round_;
    attempts_this_round_ = 1;
    send_slots_.clear();
    return rs;
}

RoundStats JobDriver::run_round(const ProduceFn& produce, const ConsumeFn& consume) {
    begin_round();
    Receivers receivers = bind_receivers();
    // Switches fold pairs into running aggregates, so resending only
    // the lost pairs would double-count the rest: recovery is
    // all-or-nothing. A dirty or incomplete round wipes the trees'
    // switch state, resets the receivers (restart() does both) and
    // replays every send, within the Options::max_restarts budget.
    for (;;) {
        schedule_sends(produce);
        run_to_quiescence();
        if (round_ok(receivers)) break;
        if (attempts_this_round_ > options_.max_restarts) {
            verify(receivers);  // throws the per-group diagnostic
        }
        restart(receivers);
    }
    return collect(receivers, consume);
}

}  // namespace daiet::rt
