#include "core/pipeline_program.hpp"

#include <stdexcept>
#include <utility>

#include "common/contracts.hpp"
#include "common/hash.hpp"

namespace daiet {

DaietSwitchProgram::Slot::Slot(const Config& cfg, std::size_t slot_idx)
    : cells{"t" + std::to_string(slot_idx) + ".cells", cfg.register_size},
      index_stack{"t" + std::to_string(slot_idx) + ".stack", cfg.register_size},
      stack_depth{"t" + std::to_string(slot_idx) + ".depth", 1},
      spill{"t" + std::to_string(slot_idx) + ".spill", cfg.spillover_capacity},
      spill_head{"t" + std::to_string(slot_idx) + ".spillhead", 1},
      spill_count{"t" + std::to_string(slot_idx) + ".spillcnt", 1},
      children{"t" + std::to_string(slot_idx) + ".children", 1},
      pairs_in{"t" + std::to_string(slot_idx) + ".pairs_in", 1},
      pairs_out{"t" + std::to_string(slot_idx) + ".pairs_out", 1},
      declared{"t" + std::to_string(slot_idx) + ".declared", 1},
      dirty{"t" + std::to_string(slot_idx) + ".dirty", 1} {}

std::size_t DaietSwitchProgram::Slot::footprint_bytes(const Config& cfg) {
    // The pair cells are the keys[R] and values[R] arrays of the model,
    // charged as such. Then index_stack plus the eight one-cell
    // registers, depth through dirty.
    static_assert(sizeof(KvPair) == sizeof(Key16) + sizeof(WireValue),
                  "a pair cell holds exactly one key cell and one value cell");
    constexpr std::size_t kScalarRegisters = 8;
    return dp::RegisterArray<Key16>::footprint_for(cfg.register_size) +
           dp::RegisterArray<WireValue>::footprint_for(cfg.register_size) +
           dp::RegisterArray<std::uint32_t>::footprint_for(cfg.register_size +
                                                           kScalarRegisters) +
           dp::RegisterArray<KvPair>::footprint_for(cfg.spillover_capacity);
}

void DaietSwitchProgram::Slot::wipe(AggFnId fn) {
    const std::uint32_t depth = stack_depth.peek(0);
    for (std::uint32_t i = 0; i < depth; ++i) {
        cells.poke(index_stack.peek(i), KvPair{Key16{}, identity_of(fn)});
    }
    stack_depth.poke(0, 0);
    spill_head.poke(0, 0);
    spill_count.poke(0, 0);
}

void DaietSwitchProgram::Slot::arm(std::uint32_t num_children) {
    children.poke(0, num_children);
    pairs_in.poke(0, 0);
    pairs_out.poke(0, 0);
    declared.poke(0, 0);
    dirty.poke(0, 0);
}

DaietSwitchProgram::DaietSwitchProgram(Config config, dp::PipelineSwitch& chip,
                                       std::shared_ptr<FabricRouter> router)
    : TenantProgram{std::move(router)},
      config_{config},
      chip_{&chip},
      tree_table_{"daiet_tree", std::max<std::size_t>(config.max_trees, 1),
                  chip.sram()},
      slot_sram_{chip.sram(), "daiet_slots",
                 config.max_trees * Slot::footprint_bytes(config)} {
    // The parser is unrolled for max_pairs_per_packet pairs: at 0 every
    // DATA packet would be dropped as oversized, and no flush packet
    // holds more than kMaxWirePairs.
    if (config.max_pairs_per_packet == 0 || config.max_pairs_per_packet > kMaxWirePairs) {
        throw std::invalid_argument{"DaietSwitchProgram: max_pairs_per_packet must be in [1, " +
                                    std::to_string(kMaxWirePairs) + "]"};
    }
}

std::size_t DaietSwitchProgram::sram_bytes() const {
    return tree_table_.footprint_bytes() + slot_sram_.bytes();
}

void DaietSwitchProgram::configure_tree(TreeId tree, const TreeRule& rule) {
    DAIET_EXPECTS(rule.num_children > 0);
    DAIET_EXPECTS(rule.out_port != dp::kPortInvalid);
    TreeRule stored = rule;
    if (const TreeRule* existing = tree_table_.peek(tree)) {
        stored.slot = existing->slot;  // reconfigure in place
        slots_[stored.slot]->wipe(stored.fn);
    } else {
        if (slots_.size() >= config_.max_trees) {
            throw std::runtime_error{"DaietSwitchProgram: out of tree slots"};
        }
        // First placement in this slot: its SRAM is already reserved;
        // allocate the cells (a fresh slot is empty).
        stored.slot = static_cast<std::uint16_t>(slots_.size());
        slots_.push_back(std::make_unique<Slot>(config_, stored.slot));
    }
    slots_[stored.slot]->arm(stored.num_children);
    tree_table_.install(tree, stored);
}

void DaietSwitchProgram::reset_tree(TreeId tree, std::uint32_t num_children) {
    const TreeRule* rule = tree_table_.peek(tree);
    DAIET_EXPECTS(rule != nullptr);
    Slot& slot = *slots_[rule->slot];
    DAIET_EXPECTS(slot.stack_depth.peek(0) == 0);
    DAIET_EXPECTS(slot.spill_count.peek(0) == 0);
    slot.arm(num_children);
    TreeRule updated = *rule;
    updated.num_children = num_children;
    tree_table_.install(tree, updated);
}

void DaietSwitchProgram::clear_tree(TreeId tree, std::uint32_t num_children) {
    const TreeRule* rule = tree_table_.peek(tree);
    DAIET_EXPECTS(rule != nullptr);
    Slot& slot = *slots_[rule->slot];
    slot.wipe(rule->fn);
    slot.arm(num_children);
    TreeRule updated = *rule;
    updated.num_children = num_children;
    tree_table_.install(tree, updated);
}

const DaietSwitchProgram::Slot& DaietSwitchProgram::slot_of(TreeId tree) const {
    const TreeRule* rule = tree_table_.peek(tree);
    if (rule == nullptr) {
        throw std::runtime_error{"DaietSwitchProgram: unknown tree " + std::to_string(tree)};
    }
    return *slots_[rule->slot];
}

const AgentTreeStats& DaietSwitchProgram::tree_stats(TreeId tree) const {
    return slot_of(tree).stats;
}

std::size_t DaietSwitchProgram::held_pairs(TreeId tree) const {
    const Slot& slot = slot_of(tree);
    return slot.stack_depth.peek(0) + slot.spill_count.peek(0);
}

std::size_t DaietSwitchProgram::occupied_cells(TreeId tree) const {
    const Slot& slot = slot_of(tree);
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < slot.cells.size(); ++i) {
        if (!slot.cells.peek(i).key.empty()) ++occupied;
    }
    return occupied;
}

std::vector<std::uint16_t> DaietSwitchProgram::claim_ports() const {
    return {kDaietUdpPort};
}

Claim DaietSwitchProgram::on_frame(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                                   std::span<const std::byte> payload) {
    if (!frame.udp || frame.udp->dst_port != kDaietUdpPort) return Claim::kNotMine;
    ctx.count_op(dp::OpKind::kParse);  // DAIET preamble
    const std::optional<DaietPacket> packet = decode_daiet(payload);
    if (!packet) {
        // Bad magic, truncated, zero pairs, unknown type: the parser
        // rejects it before any table sees it.
        ++drops_.malformed;
        ctx.mark_drop();
        return Claim::kHandled;
    }
    const auto* data = std::get_if<DataPacket>(&*packet);
    if (data != nullptr && data->pairs.size() > config_.max_pairs_per_packet) {
        // The parser is unrolled for max_pairs_per_packet pairs (§5).
        ++drops_.oversized;
        ctx.mark_drop();
        return Claim::kHandled;
    }
    const TreeId tree =
        data != nullptr ? data->tree_id : std::get<EndPacket>(*packet).tree_id;

    const TreeRule* rule = tree_table_.apply(ctx, tree);
    if (rule == nullptr) {
        // No rule on this switch: fall through to plain forwarding so
        // that a partially deployed DAIET network stays correct (§2:
        // the application "should be no worse than without in-network
        // computation").
        return Claim::kDeclined;
    }

    Slot& slot = *slots_[rule->slot];
    if (data != nullptr) {
        handle_data(ctx, tree, *rule, slot, data->pairs);
    } else {
        handle_end(ctx, tree, *rule, slot, std::get<EndPacket>(*packet));
    }
    return Claim::kHandled;
}

void DaietSwitchProgram::handle_data(dp::PacketContext& ctx, TreeId tree,
                                     const TreeRule& rule, Slot& slot, PairSpan pairs) {
    const std::size_t n = pairs.size();
    // Loss detection: count arriving pairs (one register update per packet).
    const std::uint32_t seen = slot.pairs_in.read(ctx, 0);
    ctx.count_op(dp::OpKind::kAlu);
    slot.pairs_in.write(ctx, 0, seen + static_cast<std::uint32_t>(n));

    // Hash every key first and prefetch its cell: each pair lands on a
    // random one of R cells, so a packet's cell loads overlap instead of
    // missing one after another. Every pair writes its cell or collides
    // with an occupied one, so resolving the cells commits no block the
    // pass would not have written.
    std::array<std::uint32_t, kMaxWirePairs> index;
    std::array<KvPair*, kMaxWirePairs> cells;
    for (std::size_t i = 0; i < n; ++i) {
        index[i] = static_cast<std::uint32_t>(register_index_from_crc(
            Crc32::compute(pairs.key_bytes(i)), config_.register_size));
        cells[i] = &slot.cells.cell(index[i]);
        __builtin_prefetch(cells[i]);
    }

    std::size_t stored = 0;
    std::size_t spilled = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const KvPair pair = pairs[i];
        const std::uint32_t idx = index[i];
        KvPair& cell = *cells[i];
        if (cell.key.empty()) {
            // Algorithm 1 lines 6-9.
            cell = KvPair{pair.key, first_value(rule.fn, pair.value)};
            std::uint32_t& depth = slot.stack_depth.cell(0);
            slot.index_stack.cell(depth) = idx;
            ++depth;
            ++stored;
        } else if (cell.key == pair.key) {
            // Algorithm 1 lines 10-11.
            cell.value = combine(rule.fn, cell.value, pair.value);
        } else {
            // Algorithm 1 lines 12-15: collision -> spillover ring.
            const std::uint32_t head = slot.spill_head.cell(0);
            std::uint32_t& count = slot.spill_count.cell(0);
            slot.spill.cell((head + count) % config_.spillover_capacity) = pair;
            ++count;
            ++spilled;
            if (count >= config_.spillover_capacity) {
                // "When this bucket is full, the entries are immediately
                // sent to the next node" (§4) — drain it completely.
                ++slot.stats.spill_flushes;
                while (flush_spillover(ctx, tree, rule, slot) > 0) {
                }
            }
        }
    }
    const std::size_t combined = n - stored - spilled;
    slot.stats.pairs_in += n;
    slot.stats.pairs_stored += stored;
    slot.stats.pairs_combined += combined;
    slot.stats.pairs_spilled += spilled;

    // The pass's per-pair ops, charged once. Every pair: its extraction
    // (unrolled parser), the hash, the hash finalizer stage, the key
    // cell read and the key comparison. A store also reads the stack
    // depth, writes key, value, stack slot and depth, and adds 1 to the
    // depth; a combine reads, combines and writes the value; a spill
    // reads head and count, computes (head + count) % capacity, writes
    // the ring cell, and adds 1 to the count.
    ctx.count_ops(dp::OpKind::kParse, n);
    ctx.count_ops(dp::OpKind::kHash, n);
    ctx.count_ops(dp::OpKind::kAlu, 2 * n + stored + combined + 2 * spilled);
    ctx.count_ops(dp::OpKind::kRegisterRead, n + stored + combined + 2 * spilled);
    ctx.count_ops(dp::OpKind::kRegisterWrite, 4 * stored + combined + 2 * spilled);

    // Every pair was either absorbed into registers or re-emitted; the
    // original packet never leaves the switch.
    ctx.mark_drop();
}

void DaietSwitchProgram::handle_end(dp::PacketContext& ctx, TreeId tree,
                                    const TreeRule& rule, Slot& slot,
                                    const EndPacket& end) {
    const bool continuation = ctx.packet().meta().recirc_count > 0;
    if (!continuation) {
        ++slot.stats.end_packets_in;
        const std::uint32_t remaining = slot.children.read(ctx, 0);
        if (remaining == 0) {
            // Spurious END (more ENDs than configured children).
            ctx.mark_drop();
            return;
        }
        // Loss detection: fold in the child's declaration.
        const std::uint32_t declared = slot.declared.read(ctx, 0);
        ctx.count_op(dp::OpKind::kAlu);
        slot.declared.write(ctx, 0, declared + end.declared_pairs);
        if (end.dirty) {
            slot.dirty.write(ctx, 0, 1);
        }
        ctx.count_op(dp::OpKind::kAlu);  // remaining - 1
        slot.children.write(ctx, 0, remaining - 1);
        if (remaining - 1 > 0) {
            ctx.mark_drop();
            return;
        }
    }

    // Flush phase: one packet's worth of state per pipeline pass,
    // recirculating until the registers are drained (the data plane has
    // no loops; recirculation is the escape hatch, at the cost of
    // forwarding capacity, §2).
    std::size_t flushed = flush_spillover(ctx, tree, rule, slot);
    if (flushed == 0) {
        flushed = drain_stack_chunk(ctx, tree, rule, slot);
    }

    const std::uint32_t spill_left = slot.spill_count.read(ctx, 0);
    const std::uint32_t stack_left = slot.stack_depth.read(ctx, 0);
    if (spill_left > 0 || stack_left > 0) {
        ctx.recirculate();
        return;
    }
    // Drained: propagate END downstream and consume the packet.
    emit_end(ctx, tree, rule, slot);
    ctx.mark_drop();
}

std::size_t DaietSwitchProgram::flush_spillover(dp::PacketContext& ctx, TreeId tree,
                                                const TreeRule& rule, Slot& slot) {
    const std::uint32_t count = slot.spill_count.read(ctx, 0);
    if (count == 0) return 0;
    const std::uint32_t head = slot.spill_head.read(ctx, 0);
    const std::size_t n = std::min<std::size_t>(count, config_.max_pairs_per_packet);
    DataPacketBuilder packet{tree};
    for (std::size_t i = 0; i < n; ++i) {
        packet.add(slot.spill.cell((head + i) % config_.spillover_capacity));
    }
    // Per pair: (head + i) % capacity and the ring cell read.
    ctx.count_ops(dp::OpKind::kAlu, n);
    ctx.count_ops(dp::OpKind::kRegisterRead, n);
    ctx.count_op(dp::OpKind::kAlu);
    slot.spill_head.write(ctx, 0, static_cast<std::uint32_t>(
                                      (head + n) % config_.spillover_capacity));
    slot.spill_count.write(ctx, 0, count - static_cast<std::uint32_t>(n));
    emit_pairs(ctx, rule, slot, packet);
    return n;
}

std::size_t DaietSwitchProgram::drain_stack_chunk(dp::PacketContext& ctx, TreeId tree,
                                                  const TreeRule& rule, Slot& slot) {
    const std::uint32_t depth = slot.stack_depth.read(ctx, 0);
    if (depth == 0) return 0;
    const std::size_t n = std::min<std::size_t>(depth, config_.max_pairs_per_packet);
    DataPacketBuilder packet{tree};
    const KvPair cleared{Key16{}, identity_of(rule.fn)};
    for (std::size_t i = 0; i < n; ++i) {
        KvPair& cell = slot.cells.cell(slot.index_stack.peek(depth - 1 - i));
        // Take the pair and clear the cell for the next round before
        // encoding: the encoder's byte stores could alias the cell, so
        // encoding straight from it reloads the cell and block tables.
        const KvPair pair = cell;
        cell = cleared;
        packet.add(pair);
    }
    // Per pair: the stack, key and value reads, the key and value writes.
    ctx.count_ops(dp::OpKind::kRegisterRead, 3 * n);
    ctx.count_ops(dp::OpKind::kRegisterWrite, 2 * n);
    ctx.count_op(dp::OpKind::kAlu);
    slot.stack_depth.write(ctx, 0, depth - static_cast<std::uint32_t>(n));
    emit_pairs(ctx, rule, slot, packet);
    return n;
}

void DaietSwitchProgram::emit_pairs(dp::PacketContext& ctx, const TreeRule& rule,
                                    Slot& slot, DataPacketBuilder& packet) {
    const std::size_t n = packet.pair_count();
    slot.stats.pairs_out += n;
    const std::uint32_t forwarded = slot.pairs_out.read(ctx, 0);
    ctx.count_op(dp::OpKind::kAlu);
    slot.pairs_out.write(ctx, 0, forwarded + static_cast<std::uint32_t>(n));
    dp::Packet out{sim::build_udp_frame(/*src=*/0, rule.flush_dst, kDaietUdpPort,
                                        kDaietUdpPort, packet.bytes())};
    out.meta().egress_port = rule.out_port;
    ctx.emit(std::move(out));
}

void DaietSwitchProgram::emit_end(dp::PacketContext& ctx, TreeId tree,
                                  const TreeRule& rule, Slot& slot) {
    // Loss detection: verify the round and propagate the verdict.
    const std::uint32_t seen = slot.pairs_in.read(ctx, 0);
    const std::uint32_t declared = slot.declared.read(ctx, 0);
    const std::uint32_t upstream_dirty = slot.dirty.read(ctx, 0);
    ctx.count_op(dp::OpKind::kAlu);  // comparison
    const bool is_dirty = upstream_dirty != 0 || seen != declared;
    const std::uint32_t forwarded = slot.pairs_out.read(ctx, 0);
    dp::Packet out{sim::build_udp_frame(/*src=*/0, rule.flush_dst, kDaietUdpPort,
                                        kDaietUdpPort,
                                        serialize_end(tree, forwarded, is_dirty))};
    out.meta().egress_port = rule.out_port;
    ctx.emit(std::move(out));
}

std::shared_ptr<DaietSwitchProgram> load_daiet_program(Config config,
                                                       dp::PipelineSwitch& chip) {
    auto router = std::make_shared<FabricRouter>(chip.sram());
    auto program = std::make_shared<DaietSwitchProgram>(config, chip, router);
    auto mux = std::make_shared<SwitchProgramMux>(std::move(router));
    mux->add_tenant(program);
    chip.load_program(std::move(mux));
    return program;
}

}  // namespace daiet
