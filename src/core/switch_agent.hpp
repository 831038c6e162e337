// Algorithm 1 from the paper, as a reusable host-side component.
//
// This class is the *reference model* of DAIET's per-switch aggregation
// logic: hash-indexed key/value register arrays with single-entry
// buckets, a spillover queue for collisions, an index stack to avoid
// scanning the arrays at flush time, and a per-tree children countdown
// driven by END packets. The dataplane pipeline program
// (core/pipeline_program.*) implements the same algorithm against the
// switch-model primitives; the two are cross-validated in tests.
//
// It is also a useful library object in its own right (e.g., running
// worker-level or smart-NIC-level aggregation).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "core/aggregation.hpp"
#include "core/config.hpp"
#include "core/protocol.hpp"

namespace daiet {

/// Counters for one tree on one switch; the data-reduction numbers in
/// EXPERIMENTS.md are ratios of these.
struct AgentTreeStats {
    std::uint64_t pairs_in{0};         ///< pairs received
    std::uint64_t pairs_stored{0};     ///< stored into an empty cell
    std::uint64_t pairs_combined{0};   ///< merged into an existing cell
    std::uint64_t pairs_spilled{0};    ///< collided and went to spillover
    std::uint64_t pairs_out{0};        ///< pairs forwarded downstream
    std::uint64_t spill_flushes{0};    ///< spillover bucket flushes
    std::uint64_t end_packets_in{0};
};

class SwitchAgent {
public:
    explicit SwitchAgent(Config config) : config_{config} {}

    /// Controller-facing: declare a tree with its combiner and the
    /// number of children this switch receives traffic from.
    void configure_tree(TreeId tree, AggFnId fn, std::uint32_t num_children);

    /// Process the pairs of one DATA packet (Algorithm 1, lines 2-15).
    /// Returns zero or more packets' worth of pairs that must be
    /// forwarded to the next node *now* (spillover flushes).
    std::vector<std::vector<KvPair>> on_data(TreeId tree, std::span<const KvPair> pairs);

    struct EndResult {
        /// True when this END was the last expected child: the flush
        /// below must be forwarded, followed by an END packet.
        bool completed{false};
        /// Pairs to forward, already packetized (spillover first, per
        /// §4: "the non-aggregated values in the spillover bucket are
        /// the first to be sent to the next node").
        std::vector<std::vector<KvPair>> packets;
        /// What the downstream END must declare: pairs this switch
        /// forwarded for the tree this round (loss detection).
        std::uint32_t declared{0};
        /// Verification failed here or upstream.
        bool dirty{false};
    };

    /// Process an END packet (Algorithm 1, lines 16-19). `declared`
    /// and `dirty` come from the END's loss-detection fields.
    EndResult on_end(TreeId tree, std::uint32_t declared_pairs = 0,
                     bool dirty = false);

    /// Re-arm a tree for another round (graph/ML iterations reuse trees).
    void reset_tree(TreeId tree, std::uint32_t num_children);

    /// Wipe a tree's state unconditionally and re-arm it (recovery).
    void clear_tree(TreeId tree, std::uint32_t num_children);

    const AgentTreeStats& stats(TreeId tree) const;

    /// Aggregated pairs currently held for a tree (diagnostics/tests).
    std::size_t held_pairs(TreeId tree) const;

    const Config& config() const noexcept { return config_; }

    /// Register index for a key — the Hash() of Algorithm 1 line 5:
    /// CRC-32 over the fixed-width cell, finalized (see
    /// register_index_from_crc) and reduced modulo the register size.
    std::size_t index_of(const Key16& key) const noexcept {
        return register_index_from_crc(Crc32::compute(key.bytes()),
                                       config_.register_size);
    }

private:
    struct TreeState {
        AggFnId fn{AggFnId::kSumI32};
        std::uint32_t remaining_children{0};
        std::vector<Key16> key_register;       ///< size = config.register_size
        std::vector<WireValue> value_register;  ///< size = config.register_size
        std::vector<std::uint32_t> index_stack;
        std::vector<KvPair> spillover;  ///< capacity = config.spillover_capacity
        // Per-round loss-detection state.
        std::uint32_t round_pairs_in{0};
        std::uint32_t round_pairs_out{0};
        std::uint32_t declared_accum{0};
        bool dirty{false};
        AgentTreeStats stats;
    };

    TreeState& tree_state(TreeId tree);
    const TreeState& tree_state(TreeId tree) const;

    /// Packetize `pairs` into groups of at most max_pairs_per_packet.
    std::vector<std::vector<KvPair>> packetize(std::vector<KvPair> pairs) const;

    Config config_;
    std::unordered_map<TreeId, TreeState> trees_;
};

}  // namespace daiet
