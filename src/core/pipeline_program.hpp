// DAIET's dataplane program: Algorithm 1 expressed against the
// RMT-style switch model (registers, match-action tables, bounded ops,
// recirculation). This is the code the paper wrote in P4; here it runs
// inside dp::PipelineSwitch instances placed in the network simulator.
//
// Pipeline layout (mirroring the P4 prototype's structure):
//   parser:    Ethernet -> IPv4 -> UDP -> DAIET preamble -> <=N pairs
//              (N = max_pairs_per_packet; the parse budget of real P4
//              hardware is what caps N at ~10, §5)
//   tables:    "daiet_tree"  TreeId -> {slot, fn, out_port, children, dst}
//              "l2_route"    HostAddr -> ECMP ports (the shared FabricRouter;
//              non-DAIET traffic and partial deployments fall through to it)
//   registers: per tree slot: keys[R], values[R], index_stack[R],
//              stack_depth[1], spill[S], spill_count[1], children[1]
//              (the host keeps keys[R] and values[R] as one array of pair
//              cells, so a pair touches one cache line; SRAM is charged
//              for both arrays as before)
//   ops:       each pass adds up its per-pair charges and charges them
//              once per packet (PacketContext::count_ops); the totals per
//              op kind are those of one charge per access
//   flush:     END-triggered drain emits one packet per pipeline pass,
//              recirculating until the registers are empty (no loops in
//              the data plane, §2).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "core/config.hpp"
#include "core/protocol.hpp"
#include "core/tenancy.hpp"
#include "dataplane/match_table.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "dataplane/register_array.hpp"
#include "netsim/headers.hpp"
#include "netsim/switch_node.hpp"

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

/// DAIET payloads this switch dropped without touching any tree: the
/// parser rejects them, so none of their pairs reach a register and the
/// round they belong to reads dirty at its END (declared-pairs check).
struct DaietDropStats {
    std::uint64_t malformed{0};  ///< decode_daiet rejected the payload
    std::uint64_t oversized{0};  ///< DATA with more than max_pairs_per_packet pairs
};

/// Per-tree flow rule pushed by the controller (paper §4: tree id,
/// output port, aggregation function, number of children).
struct TreeRule {
    std::uint16_t slot{0};  ///< register-slot index on this switch
    AggFnId fn{AggFnId::kSumI32};
    dp::PortId out_port{dp::kPortInvalid};
    std::uint32_t num_children{0};
    sim::HostAddr flush_dst{0};  ///< address emitted flush frames carry (tree root)
};

class DaietSwitchProgram : public TenantProgram {
public:
    /// Reserves the SRAM of all `max_trees` register slots from the
    /// chip's book at construction, as a P4 compile would, and throws
    /// dp::ResourceError if the configuration does not fit the chip, or
    /// std::invalid_argument if max_pairs_per_packet is 0 or above
    /// kMaxWirePairs (no DATA packet could pass the parser).
    /// Host memory for a slot's registers is allocated only when the
    /// controller first places a tree in it (configure_tree), so a
    /// switch no tree crosses costs its reservation but no cells. Ports
    /// resolve through the chip's shared router.
    DaietSwitchProgram(Config config, dp::PipelineSwitch& chip,
                       std::shared_ptr<FabricRouter> router);

    // --- control plane ------------------------------------------------------
    void configure_tree(TreeId tree, const TreeRule& rule);
    /// Re-arm a completed tree for another round (iterative workloads).
    void reset_tree(TreeId tree, std::uint32_t num_children);
    /// Wipe a tree's registers unconditionally and re-arm it (recovery
    /// path: discards any partial aggregation state, e.g. after loss).
    void clear_tree(TreeId tree, std::uint32_t num_children);

    // --- data plane ---------------------------------------------------------
    /// Claims every frame to the DAIET port: a payload decode_daiet
    /// rejects is dropped and counted as malformed.
    Claim on_frame(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                   std::span<const std::byte> payload) override;
    std::vector<std::uint16_t> claim_ports() const override;
    std::string name() const override { return "daiet"; }
    std::size_t sram_bytes() const override;

    // --- observability ------------------------------------------------------
    const AgentTreeStats& tree_stats(TreeId tree) const;
    const DaietDropStats& drop_stats() const noexcept { return drops_; }
    std::size_t held_pairs(TreeId tree) const;
    /// Control-plane scan: key cells of the tree's slot that hold a key.
    std::size_t occupied_cells(TreeId tree) const;

private:
    struct Slot {
        /// keys[R] and values[R]: one pair cell per register index.
        dp::RegisterArray<KvPair> cells;
        dp::RegisterArray<std::uint32_t> index_stack;
        dp::RegisterArray<std::uint32_t> stack_depth;   // [1]
        dp::RegisterArray<KvPair> spill;                ///< ring buffer (§4: "a queue of pairs")
        dp::RegisterArray<std::uint32_t> spill_head;    // [1]
        dp::RegisterArray<std::uint32_t> spill_count;   // [1]
        dp::RegisterArray<std::uint32_t> children;      // [1]
        // Loss-detection state (protocol extension; see protocol.hpp).
        dp::RegisterArray<std::uint32_t> pairs_in;      // [1]
        dp::RegisterArray<std::uint32_t> pairs_out;     // [1]
        dp::RegisterArray<std::uint32_t> declared;      // [1]
        dp::RegisterArray<std::uint32_t> dirty;         // [1]
        AgentTreeStats stats;

        /// Host storage only: the program's slot reservation already
        /// holds footprint_bytes(cfg) of SRAM for every slot.
        Slot(const Config& cfg, std::size_t slot_idx);
        /// SRAM of one slot: the sum of its register arrays' footprints.
        static std::size_t footprint_bytes(const Config& cfg);

        /// Control-plane wipe of the aggregation state. Only cells on the
        /// index stack can hold a key (every empty->occupied write pushes
        /// its index), and the data plane never reads an empty cell's
        /// value, so clearing [0, depth) leaves what a full clear() would.
        void wipe(AggFnId fn);
        /// Arm for a round: child countdown and loss-detection counters.
        void arm(std::uint32_t num_children);
    };

    /// The slot of an installed tree; throws std::runtime_error otherwise.
    const Slot& slot_of(TreeId tree) const;

    void handle_data(dp::PacketContext& ctx, TreeId tree, const TreeRule& rule,
                     Slot& slot, PairSpan pairs);
    void handle_end(dp::PacketContext& ctx, TreeId tree, const TreeRule& rule,
                    Slot& slot, const EndPacket& end);

    /// Emit `packet` as one DAIET DATA frame out of the tree port.
    void emit_pairs(dp::PacketContext& ctx, const TreeRule& rule, Slot& slot,
                    DataPacketBuilder& packet);
    void emit_end(dp::PacketContext& ctx, TreeId tree, const TreeRule& rule,
                  Slot& slot);

    /// Flush up to one packet's worth of spillover; returns pairs flushed.
    std::size_t flush_spillover(dp::PacketContext& ctx, TreeId tree,
                                const TreeRule& rule, Slot& slot);
    /// Drain up to one packet's worth of the index stack; returns pairs drained.
    std::size_t drain_stack_chunk(dp::PacketContext& ctx, TreeId tree,
                                  const TreeRule& rule, Slot& slot);

    Config config_;
    dp::PipelineSwitch* chip_;
    dp::ExactMatchTable<TreeId, TreeRule> tree_table_;
    dp::SramReservation slot_sram_;  ///< all max_trees slots
    /// Placed slots in assignment order; slots are never freed, so
    /// slots_.size() is the next free slot index.
    std::vector<std::unique_ptr<Slot>> slots_;
    DaietDropStats drops_;
};

/// Load `chip` with a one-tenant SwitchProgramMux running DAIET over a
/// fresh FabricRouter (install routes through program->router()).
std::shared_ptr<DaietSwitchProgram> load_daiet_program(Config config,
                                                       dp::PipelineSwitch& chip);

}  // namespace daiet
