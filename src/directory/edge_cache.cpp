#include "directory/edge_cache.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "core/aggregation.hpp"
#include "kvcache/switch_program.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"
#include "transport/request_reply.hpp"

namespace daiet::dir {

namespace {

/// Bit 63 of a ticket: set by an invalidation or a revocation, it
/// refuses the reply whose GET armed the ticket.
constexpr std::uint64_t kVoid = std::uint64_t{1} << 63;

/// Cell of a (client, seq) tag in the invalidation-dedup register,
/// derived through the switch hash unit like every other hashed index.
std::size_t tag_cell(dp::PacketContext& ctx, std::uint64_t tag,
                     std::size_t cells) {
    return register_index_from_crc(ctx.hash(transport::request_tag_bytes(tag)),
                                   cells);
}

}  // namespace

EdgeCacheSwitchProgram::EdgeCacheSwitchProgram(EdgeCacheConfig config,
                                               sim::Node& node,
                                               dp::PipelineSwitch& chip,
                                               std::shared_ptr<FabricRouter> router)
    : TenantProgram{std::move(router)},
      config_{config},
      node_{&node},
      keys_{"edge.keys", std::max<std::size_t>(config.slots, 1), chip.sram()},
      values_{"edge.values", std::max<std::size_t>(config.slots, 1), chip.sram()},
      expiry_{"edge.expiry", std::max<std::size_t>(config.slots, 1), chip.sram()},
      fwd_tag_{"edge.fwd_tag", std::max<std::size_t>(config.slots, 1), chip.sram()},
      granted_{"edge.granted", kNumRanges, chip.sram()},
      inval_seen_{"edge.inval_seen", kInvalDedupCells, chip.sram()} {
    DAIET_EXPECTS(config.slots > 0);
    // A zero lease would take SRAM and never hit (expiry 0 = invalid).
    DAIET_EXPECTS(config.lease_ttl > 0);
}

sim::SimTime EdgeCacheSwitchProgram::now() const noexcept {
    return node_->simulator().now();
}

std::size_t EdgeCacheSwitchProgram::slot_of(dp::PacketContext& ctx,
                                            const Key16& key) const {
    return register_index_from_crc(ctx.hash(key.bytes()), keys_.size());
}

Claim EdgeCacheSwitchProgram::on_frame(dp::PacketContext& ctx,
                                       const sim::ParsedFrame& frame,
                                       std::span<const std::byte> payload) {
    if (!frame.udp) return Claim::kNotMine;
    // Lease invalidations addressed to this edge's vaddr.
    if (frame.ip.dst == vaddr() && frame.udp->dst_port == kDirectoryUdpPort) {
        return on_invalidation(ctx, payload);
    }
    // Requests from our clients toward the service vaddr, and replies
    // from the service (any rack server, or the service vaddr itself
    // when a rack ToR cache impersonated it) toward our clients.
    const bool toward_service = frame.ip.dst == kServiceVaddr;
    const bool mine =
        toward_service ? frame.udp->dst_port == kv::kServerUdpPort &&
                             clients_.contains(frame.ip.src)
                       : frame.udp->src_port == kv::kServerUdpPort &&
                             clients_.contains(frame.ip.dst);
    return mine ? on_kv(ctx, frame, payload, toward_service) : Claim::kNotMine;
}

Claim EdgeCacheSwitchProgram::on_invalidation(dp::PacketContext& ctx,
                                              std::span<const std::byte> payload) {
    ctx.count_op(dp::OpKind::kParse);  // directory header
    ctx.mark_drop();  // addressed to this edge: it terminates here
    const std::optional<DirectoryMessage> msg = decode_directory(payload);
    if (!msg || msg->op != DirectoryOp::kInvalidate) return Claim::kHandled;
    const std::size_t cell = tag_cell(ctx, msg->tag, inval_seen_.size());
    ctx.count_op(dp::OpKind::kAlu);  // tag compare
    if (inval_seen_.read(ctx, cell) == msg->tag) {
        // A replayed broadcast (its PUT was retransmitted through the
        // directory). Skipping is about hit rate, not safety: this
        // tag's invalidation already ran, and running it again could
        // only wipe an entry a newer reply has refreshed.
        ++stats_.duplicate_invalidations;
        return Claim::kHandled;
    }
    inval_seen_.write(ctx, cell, msg->tag);
    apply_invalidate(ctx, msg->key);
    return Claim::kHandled;
}

Claim EdgeCacheSwitchProgram::on_kv(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                                    std::span<const std::byte> payload,
                                    bool toward_service) {
    const std::optional<kv::KvMessage> decoded = kv::decode_kv(payload);
    if (!decoded) return Claim::kNotMine;
    const kv::KvMessage& msg = *decoded;
    ctx.count_op(dp::OpKind::kParse);  // kv header

    // --- GET from one of our clients ----------------------------------------
    if (toward_service && msg.op == kv::KvOp::kGet) {
        ++stats_.gets_seen;
        const std::size_t slot = slot_of(ctx, msg.key);
        const std::size_t range =
            register_index_from_crc(ctx.hash(msg.key.bytes()), granted_.size());
        const std::uint64_t tag = transport::request_tag(frame.ip.src, msg.seq);
        ctx.count_op(dp::OpKind::kAlu);  // key compare
        const sim::SimTime expiry = expiry_.read(ctx, slot);
        if (keys_.read(ctx, slot) == msg.key && expiry != 0 &&
            granted_.read(ctx, range) != 0) {
            ctx.count_op(dp::OpKind::kAlu);  // lease-clock compare
            if (now() < expiry) {
                ++stats_.hits;
                if (trace::enabled()) {
                    auto& t = trace::tracer();
                    if (trace_name_id_ == 0) trace_name_id_ = t.intern(name());
                    t.record({t.now(), ctx.packet().frame().trace_id(), tag, 0,
                              trace_name_id_, trace::EventKind::kEdgeHit});
                }
                // Impersonate the service, out of the client's own port.
                kv::reply_from_switch(ctx, frame, msg,
                                      kv::kKvFlagFound | kv::kKvFlagFromSwitch |
                                          kv::kKvFlagFromEdge,
                                      values_.read(ctx, slot));
                return Claim::kHandled;
            }
            ++stats_.expired;
        }
        // Miss: the slot's ticket now admits this GET's reply only.
        ++stats_.misses;
        if (trace::enabled()) {
            auto& t = trace::tracer();
            if (trace_name_id_ == 0) trace_name_id_ = t.intern(name());
            t.record({t.now(), ctx.packet().frame().trace_id(), tag, 0,
                      trace_name_id_, trace::EventKind::kEdgeMiss});
        }
        fwd_tag_.write(ctx, slot, tag);
        return Claim::kDeclined;  // on toward the directory
    }

    // --- PUT from one of our clients ----------------------------------------
    if (toward_service && msg.op == kv::KvOp::kPut) {
        // The one write stream that does cross this edge: invalidate
        // inline, without waiting for the directory's broadcast to
        // loop back. Deliberately do NOT pre-mark the PUT's tag in the
        // dedup filter: on a multi-path edge->directory stretch (fat
        // tree) a concurrently forwarded GET can overtake this PUT and
        // return a pre-write reply that holds its ticket (it was
        // forwarded after this void); the broadcast invalidation is
        // the message that evicts it, and skipping it here would leave
        // that stale install alive for a full lease. A second
        // invalidation per own-client PUT is the cheap price of that
        // ordering headroom.
        apply_invalidate(ctx, msg.key);
        return Claim::kDeclined;  // on toward the directory
    }

    if (toward_service) {
        // Strays addressed to the service (replies cannot be): let the
        // directory sort them out.
        return Claim::kDeclined;
    }

    // --- reply passing toward one of our clients ----------------------------
    ++stats_.replies_seen;
    if (msg.op != kv::KvOp::kGetReply || !msg.found() || msg.replayed()) {
        // PUT_ACKs and not-founds install nothing; a *replayed* reply
        // (served from the server's ReplyCache) may predate writes that
        // have passed the directory since, same rule as the rack cache.
        return Claim::kDeclined;
    }
    const std::size_t slot = slot_of(ctx, msg.key);
    const std::size_t range =
        register_index_from_crc(ctx.hash(msg.key.bytes()), granted_.size());
    const std::uint64_t tag = transport::request_tag(frame.ip.dst, msg.seq);
    ctx.count_op(dp::OpKind::kAlu);  // admission compare
    const std::uint64_t ticket = fwd_tag_.read(ctx, slot);
    if (ticket == (tag | kVoid)) {
        // An invalidation or a lease revocation arrived between the
        // GET leaving and this reply returning: the value may predate
        // the write that triggered it. Refuse.
        ++stats_.stale_refused;
        return Claim::kDeclined;
    }
    if (ticket != tag) {
        // Not the newest forwarded GET for this slot — a slower reply
        // that a later one may supersede. Installing it could roll a
        // slot backwards in server order.
        return Claim::kDeclined;
    }
    if (granted_.read(ctx, range) == 0) return Claim::kDeclined;
    ctx.count_op(dp::OpKind::kAlu);  // live-lease check
    if (!(keys_.read(ctx, slot) == msg.key) && now() < expiry_.read(ctx, slot)) {
        // Never evict a live lease for a colliding key: stability
        // beats recency at the edge, and the rack cache already owns
        // the head of the distribution.
        return Claim::kDeclined;
    }
    keys_.write(ctx, slot, msg.key);
    values_.write(ctx, slot, msg.value);
    expiry_.write(ctx, slot, now() + config_.lease_ttl);
    ++stats_.cached;
    return Claim::kDeclined;  // the reply continues to its client regardless
}

void EdgeCacheSwitchProgram::apply_invalidate(dp::PacketContext& ctx,
                                              const Key16& key) {
    const std::size_t slot = slot_of(ctx, key);
    // The void outlives the entry: it also refuses any reply whose GET
    // was forwarded from this slot before now, including GETs for a
    // key that was never resident (only forwarded), and,
    // conservatively, colliding keys sharing the slot.
    const std::uint64_t ticket = fwd_tag_.read(ctx, slot);
    ctx.count_op(dp::OpKind::kAlu);
    fwd_tag_.write(ctx, slot, ticket | kVoid);
    if (keys_.read(ctx, slot) == key && expiry_.read(ctx, slot) != 0) {
        expiry_.write(ctx, slot, 0);
        ++stats_.invalidations;
    }
}

void EdgeCacheSwitchProgram::grant(std::size_t range) {
    DAIET_EXPECTS(range < granted_.size());
    granted_.poke(range, 1);
}

void EdgeCacheSwitchProgram::revoke(std::size_t range) {
    DAIET_EXPECTS(range < granted_.size());
    granted_.poke(range, 0);
    // Voiding every ticket refuses *every* in-flight reply, not just
    // this range's: revocation precedes a migration, and nothing
    // sampled before it may install after it. Cheap and absolute.
    for (std::size_t s = 0; s < keys_.size(); ++s) {
        fwd_tag_.poke(s, fwd_tag_.peek(s) | kVoid);
        if (expiry_.peek(s) != 0 &&
            range_of_key(keys_.peek(s), granted_.size()) == range) {
            expiry_.poke(s, 0);
        }
    }
    ++stats_.revocations;
}

bool EdgeCacheSwitchProgram::holds(const Key16& key) const {
    const std::size_t slot =
        register_index_from_crc(Crc32::compute(key.bytes()), keys_.size());
    return keys_.peek(slot) == key && now() < expiry_.peek(slot);
}

}  // namespace daiet::dir
