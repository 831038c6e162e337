#include "kvcache/switch_program.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "trace/trace.hpp"
#include "transport/request_reply.hpp"

namespace daiet::kv {

KvCacheSwitchProgram::KvCacheSwitchProgram(KvConfig config, sim::HostAddr server,
                                           dp::PipelineSwitch& chip,
                                           std::shared_ptr<FabricRouter> router)
    : TenantProgram{std::move(router)},
      server_{server},
      slots_{config.cache_slots},
      index_{"kv_cache", std::max<std::size_t>(config.cache_slots, 1), chip.sram()},
      values_{"kv.values", std::max<std::size_t>(config.cache_slots, 1), chip.sram()},
      valid_{"kv.valid", std::max<std::size_t>(config.cache_slots, 1), chip.sram()},
      hits_{"kv.hits", std::max<std::size_t>(config.cache_slots, 1), chip.sram()},
      last_put_{"kv.last_put", std::max<std::size_t>(config.cache_slots, 1),
                chip.sram()},
      slot_key_(config.cache_slots) {
    DAIET_EXPECTS(config.cache_slots > 0);
    DAIET_EXPECTS(config.cache_slots <= 0xffff);
    free_slots_.reserve(slots_);
    for (std::size_t s = slots_; s-- > 0;) {
        free_slots_.push_back(static_cast<std::uint16_t>(s));
    }
}

Claim KvCacheSwitchProgram::on_frame(dp::PacketContext& ctx,
                                     const sim::ParsedFrame& frame,
                                     std::span<const std::byte> payload) {
    // Traffic of *this* kv service in either direction: requests
    // addressed to our server, replies coming from it. The address
    // check keeps caches of different services (one per storage rack)
    // from answering for each other's keys on a shared fabric.
    if (!frame.udp) return Claim::kNotMine;
    const bool toward_server = frame.udp->dst_port == kServerUdpPort;
    const bool mine = (toward_server && frame.ip.dst == server_) ||
                      (frame.udp->src_port == kServerUdpPort && frame.ip.src == server_);
    return mine ? on_kv(ctx, frame, payload, toward_server) : Claim::kNotMine;
}

Claim KvCacheSwitchProgram::on_kv(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                                  std::span<const std::byte> payload, bool toward_server) {
    const std::optional<KvMessage> decoded = decode_kv(payload);
    if (!decoded) return Claim::kNotMine;
    const KvMessage& msg = *decoded;
    ctx.count_op(dp::OpKind::kParse);  // kv header

    if (toward_server && msg.op == KvOp::kGet) {
        ++stats_.gets_seen;
        const std::uint16_t* slot = index_.apply(ctx, msg.key);
        ctx.count_op(dp::OpKind::kAlu);  // valid check
        if (slot != nullptr && valid_.read(ctx, *slot) != 0) {
            serve_hit(ctx, frame, msg, *slot);
            return Claim::kHandled;
        }
        // Miss: the request travels on to the server, whose per-key
        // access log doubles as the (exact) miss counter the
        // controller promotes from.
        ++stats_.misses;
        if (trace::enabled()) {
            auto& t = trace::tracer();
            if (trace_name_id_ == 0) trace_name_id_ = t.intern(name());
            t.record({t.now(), ctx.packet().frame().trace_id(),
                      transport::request_tag(frame.ip.src, msg.seq), 0, trace_name_id_,
                      trace::EventKind::kCacheMiss});
        }
        return Claim::kDeclined;
    }

    if (toward_server && msg.op == KvOp::kPut) {
        ++stats_.puts_seen;
        const std::uint16_t* slot = index_.apply(ctx, msg.key);
        if (slot != nullptr) {
            // Never serve a value the server has not acknowledged, and
            // remember which write's ACK may bring the slot back.
            last_put_.write(ctx, *slot, transport::request_tag(frame.ip.src, msg.seq));
            if (valid_.read(ctx, *slot) != 0) {
                valid_.write(ctx, *slot, 0);
                ++stats_.invalidations;
            }
        }
        return Claim::kDeclined;
    }

    if (!toward_server && msg.op == KvOp::kPutAck) {
        ++stats_.replies_seen;
        const std::uint16_t* slot = index_.apply(ctx, msg.key);
        if (slot == nullptr) return Claim::kDeclined;
        const std::uint64_t tag = transport::request_tag(frame.ip.dst, msg.seq);
        ctx.count_op(dp::OpKind::kAlu);  // tag compare
        if (!msg.replayed() && last_put_.read(ctx, *slot) == tag) {
            // The original ACK of the last write to cross: no reply
            // carrying a newer value can have left the server before it.
            values_.write(ctx, *slot, msg.value);
            valid_.write(ctx, *slot, 1);
            ++stats_.refreshes;
        } else if (valid_.read(ctx, *slot) != 0) {
            // A replay, or the ACK of a write a later PUT superseded.
            valid_.write(ctx, *slot, 0);
            ++stats_.invalidations;
        }
        return Claim::kDeclined;
    }

    if (!toward_server) ++stats_.replies_seen;
    // GET_REPLYs pass through untouched: promotion into the cache is
    // the controller's decision, not the dataplane's.
    return Claim::kDeclined;
}

void KvCacheSwitchProgram::serve_hit(dp::PacketContext& ctx,
                                     const sim::ParsedFrame& frame,
                                     const KvMessage& msg, std::uint16_t slot) {
    ++stats_.hits;
    const std::uint32_t h = hits_.read(ctx, slot);
    ctx.count_op(dp::OpKind::kAlu);
    hits_.write(ctx, slot, h + 1);
    if (trace::enabled()) {
        auto& t = trace::tracer();
        if (trace_name_id_ == 0) trace_name_id_ = t.intern(name());
        t.record({t.now(), ctx.packet().frame().trace_id(),
                  transport::request_tag(frame.ip.src, msg.seq), 0, trace_name_id_,
                  trace::EventKind::kCacheHit});
    }
    reply_from_switch(ctx, frame, msg, kKvFlagFound | kKvFlagFromSwitch,
                      values_.read(ctx, slot));
}

void reply_from_switch(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                       const KvMessage& get, std::uint8_t flags, WireValue value) {
    KvMessage reply;
    reply.op = KvOp::kGetReply;
    reply.flags = flags;
    reply.req_id = get.req_id;
    reply.seq = get.seq;  // the client's duplicate filter matches on it
    reply.key = get.key;
    reply.value = value;

    auto out_frame = sim::build_udp_frame(frame.ip.dst, frame.ip.src, kServerUdpPort,
                                          frame.udp->src_port, serialize_kv(reply));
    if (trace::enabled()) out_frame.set_trace_id(ctx.packet().frame().trace_id());
    dp::Packet out{std::move(out_frame)};
    out.meta().egress_port = ctx.packet().meta().ingress_port;
    ctx.emit(std::move(out));
    ctx.mark_drop();
}

bool KvCacheSwitchProgram::insert(const Key16& key, WireValue value) {
    if (const std::uint16_t* slot = index_.peek(key)) {
        values_.poke(*slot, value);
        valid_.poke(*slot, 1);
        return true;
    }
    if (free_slots_.empty()) return false;
    const std::uint16_t slot = free_slots_.back();
    free_slots_.pop_back();
    index_.install(key, slot);
    slot_key_[slot] = key;
    values_.poke(slot, value);
    valid_.poke(slot, 1);
    hits_.poke(slot, 0);
    last_put_.poke(slot, 0);
    return true;
}

bool KvCacheSwitchProgram::erase(const Key16& key) {
    const std::uint16_t* found = index_.peek(key);
    if (found == nullptr) return false;
    const std::uint16_t slot = *found;
    index_.remove(key);
    slot_key_[slot] = Key16{};
    valid_.poke(slot, 0);
    hits_.poke(slot, 0);
    free_slots_.push_back(slot);
    return true;
}

std::vector<std::pair<Key16, std::uint32_t>> KvCacheSwitchProgram::hit_counts()
    const {
    std::vector<std::pair<Key16, std::uint32_t>> out;
    out.reserve(cached_keys());
    for (std::size_t s = 0; s < slots_; ++s) {
        if (!slot_key_[s].empty()) {
            out.emplace_back(slot_key_[s], hits_.peek(s));
        }
    }
    return out;
}

void KvCacheSwitchProgram::reset_hot_counters() { hits_.clear(); }

}  // namespace daiet::kv
