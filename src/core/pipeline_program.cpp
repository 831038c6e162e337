#include "core/pipeline_program.hpp"

#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"
#include "common/contracts.hpp"

namespace daiet {

DaietSwitchProgram::Slot::Slot(const Config& cfg, std::size_t slot_idx)
    : keys{"t" + std::to_string(slot_idx) + ".keys", cfg.register_size},
      values{"t" + std::to_string(slot_idx) + ".values", cfg.register_size},
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
    // index_stack plus the eight one-cell registers, depth through dirty.
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
        const std::uint32_t idx = index_stack.peek(i);
        keys.poke(idx, Key16{});
        values.poke(idx, identity_of(fn));
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
                 config.max_trees * Slot::footprint_bytes(config)} {}

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
    for (std::size_t i = 0; i < slot.keys.size(); ++i) {
        if (!slot.keys.peek(i).empty()) ++occupied;
    }
    return occupied;
}

bool DaietSwitchProgram::claims(const sim::ParsedFrame& frame,
                                std::span<const std::byte> payload) const {
    return frame.udp && frame.udp->dst_port == kDaietUdpPort &&
           looks_like_daiet(payload);
}

std::vector<std::uint16_t> DaietSwitchProgram::claim_ports() const {
    return {kDaietUdpPort};
}

bool DaietSwitchProgram::on_claimed(dp::PacketContext& ctx,
                                    const sim::ParsedFrame& /*frame*/,
                                    std::span<const std::byte> payload) {
    ctx.count_op(dp::OpKind::kParse);  // DAIET preamble
    DaietPacket packet = parse_packet(payload);
    const TreeId tree = std::holds_alternative<DataPacket>(packet)
                            ? std::get<DataPacket>(packet).tree_id
                            : std::get<EndPacket>(packet).tree_id;

    const TreeRule* rule = tree_table_.apply(ctx, tree);
    if (rule == nullptr) {
        // No rule on this switch: fall through to plain forwarding so
        // that a partially deployed DAIET network stays correct (§2:
        // the application "should be no worse than without in-network
        // computation").
        return false;
    }

    Slot& slot = *slots_[rule->slot];
    if (auto* data = std::get_if<DataPacket>(&packet)) {
        handle_data(ctx, *rule, slot, *data);
    } else {
        handle_end(ctx, tree, *rule, slot, std::get<EndPacket>(packet));
    }
    return true;
}

void DaietSwitchProgram::handle_data(dp::PacketContext& ctx, const TreeRule& rule,
                                     Slot& slot, const DataPacket& data) {
    DAIET_EXPECTS(data.pairs.size() <= config_.max_pairs_per_packet);
    const TreeId tree = data.tree_id;

    // Loss detection: count arriving pairs (one register update per packet).
    const std::uint32_t seen = slot.pairs_in.read(ctx, 0);
    ctx.count_op(dp::OpKind::kAlu);
    slot.pairs_in.write(ctx, 0,
                        seen + static_cast<std::uint32_t>(data.pairs.size()));

    for (const KvPair& pair : data.pairs) {
        ctx.count_op(dp::OpKind::kParse);  // pair extraction (unrolled parser)
        ++slot.stats.pairs_in;
        ctx.count_op(dp::OpKind::kAlu);  // hash finalizer stage
        const std::size_t idx = register_index_from_crc(ctx.hash(pair.key.bytes()),
                                                        config_.register_size);

        const Key16& stored_key = slot.keys.read(ctx, idx);
        ctx.count_op(dp::OpKind::kAlu);  // key comparison
        if (stored_key.empty()) {
            // Algorithm 1 lines 6-9.
            slot.keys.write(ctx, idx, pair.key);
            slot.values.write(ctx, idx, first_value(rule.fn, pair.value));
            const std::uint32_t depth = slot.stack_depth.read(ctx, 0);
            slot.index_stack.write(ctx, depth, static_cast<std::uint32_t>(idx));
            ctx.count_op(dp::OpKind::kAlu);  // depth + 1
            slot.stack_depth.write(ctx, 0, depth + 1);
            ++slot.stats.pairs_stored;
        } else if (stored_key == pair.key) {
            // Algorithm 1 lines 10-11.
            const WireValue current = slot.values.read(ctx, idx);
            ctx.count_op(dp::OpKind::kAlu);  // combine
            slot.values.write(ctx, idx, combine(rule.fn, current, pair.value));
            ++slot.stats.pairs_combined;
        } else {
            // Algorithm 1 lines 12-15: collision -> spillover ring.
            const std::uint32_t head = slot.spill_head.read(ctx, 0);
            const std::uint32_t count = slot.spill_count.read(ctx, 0);
            ctx.count_op(dp::OpKind::kAlu);  // (head + count) % capacity
            const auto pos = static_cast<std::size_t>(head + count) %
                             config_.spillover_capacity;
            slot.spill.write(ctx, pos, pair);
            ctx.count_op(dp::OpKind::kAlu);  // count + 1
            slot.spill_count.write(ctx, 0, count + 1);
            ++slot.stats.pairs_spilled;
            if (count + 1 >= config_.spillover_capacity) {
                // "When this bucket is full, the entries are immediately
                // sent to the next node" (§4) — drain it completely.
                ++slot.stats.spill_flushes;
                while (flush_spillover(ctx, tree, rule, slot) > 0) {
                }
            }
        }
    }
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
    std::vector<KvPair> pairs;
    pairs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ctx.count_op(dp::OpKind::kAlu);  // (head + i) % capacity
        const auto pos =
            static_cast<std::size_t>(head + i) % config_.spillover_capacity;
        pairs.push_back(slot.spill.read(ctx, pos));
    }
    ctx.count_op(dp::OpKind::kAlu);
    slot.spill_head.write(ctx, 0, static_cast<std::uint32_t>(
                                      (head + n) % config_.spillover_capacity));
    slot.spill_count.write(ctx, 0, count - static_cast<std::uint32_t>(n));
    emit_pairs(ctx, tree, rule, slot, pairs);
    return n;
}

std::size_t DaietSwitchProgram::drain_stack_chunk(dp::PacketContext& ctx, TreeId tree,
                                                  const TreeRule& rule, Slot& slot) {
    const std::uint32_t depth = slot.stack_depth.read(ctx, 0);
    if (depth == 0) return 0;
    const std::size_t n = std::min<std::size_t>(depth, config_.max_pairs_per_packet);
    std::vector<KvPair> pairs;
    pairs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t idx = slot.index_stack.read(ctx, depth - 1 - i);
        KvPair p;
        p.key = slot.keys.read(ctx, idx);
        p.value = slot.values.read(ctx, idx);
        pairs.push_back(p);
        // Clear the cell for the next round.
        slot.keys.write(ctx, idx, Key16{});
        slot.values.write(ctx, idx, identity_of(rule.fn));
    }
    ctx.count_op(dp::OpKind::kAlu);
    slot.stack_depth.write(ctx, 0, depth - static_cast<std::uint32_t>(n));
    emit_pairs(ctx, tree, rule, slot, pairs);
    return n;
}

void DaietSwitchProgram::emit_pairs(dp::PacketContext& ctx, TreeId tree,
                                    const TreeRule& rule, Slot& slot,
                                    std::span<const KvPair> pairs) {
    DAIET_EXPECTS(!pairs.empty());
    slot.stats.pairs_out += pairs.size();
    const std::uint32_t forwarded = slot.pairs_out.read(ctx, 0);
    ctx.count_op(dp::OpKind::kAlu);
    slot.pairs_out.write(ctx, 0,
                         forwarded + static_cast<std::uint32_t>(pairs.size()));
    const auto payload = serialize_data(tree, pairs);
    auto frame = sim::build_udp_frame(/*src=*/0, rule.flush_dst, kDaietUdpPort,
                                      kDaietUdpPort, payload);
    dp::Packet out{std::move(frame)};
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
    const auto payload = serialize_end(tree, forwarded, is_dirty);
    auto frame = sim::build_udp_frame(/*src=*/0, rule.flush_dst, kDaietUdpPort,
                                      kDaietUdpPort, payload);
    dp::Packet out{std::move(frame)};
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
