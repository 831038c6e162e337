// Test-only reference model of Algorithm 1 for one aggregation tree:
// hash-indexed key/value registers with single-entry buckets, a
// spillover queue for collisions that flushes when full, an index stack
// drained at END, and a children countdown driven by END packets. It
// works on host containers, with none of the switch model's registers,
// op charges or recirculation, so a test can check DaietSwitchProgram
// against it pair for pair.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/hash.hpp"
#include "core/pipeline_program.hpp"

namespace daiet {

class ReferenceAgent {
public:
    explicit ReferenceAgent(Config config) : config_{config} {}

    /// Declare the one tree this agent aggregates.
    void configure_tree(TreeId tree, AggFnId fn, std::uint32_t num_children) {
        DAIET_EXPECTS(num_children > 0);
        tree_ = tree;
        fn_ = fn;
        remaining_children_ = num_children;
        keys_.assign(config_.register_size, Key16{});
        values_.assign(config_.register_size, identity_of(fn));
    }

    /// Algorithm 1, lines 2-15. Returns the pairs of every spillover
    /// flush this packet triggered, in queue order.
    std::vector<KvPair> on_data(TreeId tree, std::span<const KvPair> pairs) {
        DAIET_EXPECTS(tree == tree_);
        std::vector<KvPair> forwarded;
        for (const KvPair& pair : pairs) {
            ++stats_.pairs_in;
            const std::size_t idx = register_index_from_crc(
                Crc32::compute(pair.key.bytes()), config_.register_size);
            if (keys_[idx].empty()) {
                keys_[idx] = pair.key;
                values_[idx] = first_value(fn_, pair.value);
                index_stack_.push_back(static_cast<std::uint32_t>(idx));
                ++stats_.pairs_stored;
            } else if (keys_[idx] == pair.key) {
                values_[idx] = combine(fn_, values_[idx], pair.value);
                ++stats_.pairs_combined;
            } else {
                spillover_.push_back(pair);
                ++stats_.pairs_spilled;
                if (spillover_.size() >= config_.spillover_capacity) {
                    ++stats_.spill_flushes;
                    flush_spillover(forwarded);
                }
            }
        }
        return forwarded;
    }

    struct EndResult {
        /// True when this END was the last expected child.
        bool completed{false};
        /// The flush: spillover first (§4), then the index stack, top first.
        std::vector<KvPair> pairs;
    };

    /// Algorithm 1, lines 16-19.
    EndResult on_end(TreeId tree) {
        DAIET_EXPECTS(tree == tree_ && remaining_children_ > 0);
        ++stats_.end_packets_in;
        EndResult result;
        if (--remaining_children_ > 0) return result;
        result.completed = true;
        flush_spillover(result.pairs);
        for (auto it = index_stack_.rbegin(); it != index_stack_.rend(); ++it) {
            result.pairs.push_back(KvPair{keys_[*it], values_[*it]});
            keys_[*it] = Key16{};
            values_[*it] = identity_of(fn_);
        }
        stats_.pairs_out += index_stack_.size();
        index_stack_.clear();
        return result;
    }

    const AgentTreeStats& stats(TreeId tree) const {
        DAIET_EXPECTS(tree == tree_);
        return stats_;
    }

    /// Pairs held in registers and spillover.
    std::size_t held_pairs(TreeId tree) const {
        DAIET_EXPECTS(tree == tree_);
        return index_stack_.size() + spillover_.size();
    }

private:
    void flush_spillover(std::vector<KvPair>& out) {
        stats_.pairs_out += spillover_.size();
        out.insert(out.end(), spillover_.begin(), spillover_.end());
        spillover_.clear();
    }

    Config config_;
    TreeId tree_{0};
    AggFnId fn_{AggFnId::kSumI32};
    std::uint32_t remaining_children_{0};
    std::vector<Key16> keys_;
    std::vector<WireValue> values_;
    std::vector<std::uint32_t> index_stack_;
    std::vector<KvPair> spillover_;
    AgentTreeStats stats_;
};

}  // namespace daiet
