#include "directory/switch_program.hpp"

#include <utility>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "core/aggregation.hpp"
#include "trace/trace.hpp"
#include "transport/request_reply.hpp"

namespace daiet::dir {

DirectorySwitchProgram::DirectorySwitchProgram(dp::PipelineSwitch& chip,
                                               std::shared_ptr<FabricRouter> router)
    : TenantProgram{std::move(router)},
      owners_{"dir.owners", kNumRanges, chip.sram()} {}

Claim DirectorySwitchProgram::on_frame(dp::PacketContext& ctx,
                                       const sim::ParsedFrame& frame,
                                       std::span<const std::byte> payload) {
    // Exactly the service's request slice: kv frames addressed to the
    // service vaddr. Replies carry real server addresses and never
    // come back through here; the directory's own NACK/INVALIDATE
    // frames carry the directory port, not the service port.
    const bool mine = frame.udp && frame.udp->dst_port == kv::kServerUdpPort &&
                      frame.ip.dst == service_addr();
    return mine ? steer(ctx, frame, payload) : Claim::kNotMine;
}

Claim DirectorySwitchProgram::steer(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                                    std::span<const std::byte> payload) {
    ctx.count_op(dp::OpKind::kParse);  // kv header
    const std::optional<kv::KvMessage> decoded = kv::decode_kv(payload);
    if (!decoded || (decoded->op != kv::KvOp::kGet && decoded->op != kv::KvOp::kPut)) {
        // Only requests are addressed to the service; anything else at
        // the vaddr, undecodable bytes included, is stray and has
        // nowhere to go.
        ++stats_.foreign_dropped;
        ctx.mark_drop();
        return Claim::kHandled;
    }
    const kv::KvMessage& msg = *decoded;

    const std::size_t range =
        register_index_from_crc(ctx.hash(msg.key.bytes()), owners_.size());
    const sim::HostAddr owner = owners_.read(ctx, range);
    ctx.count_op(dp::OpKind::kAlu);  // owner-present check
    if (owner == 0) {
        // Mid-migration: the range has no owner. Bounce the request so
        // the client's RetryChannel retries it after the flip instead
        // of the request dying in a routing black hole.
        send_nack(ctx, frame, msg);
        return Claim::kHandled;
    }

    // The steer: rewrite the frame's destination to the owning rack's
    // storage server, in the raw bytes (downstream switches route on
    // them), and resolve the egress through the shared routing table —
    // the packet's single table application.
    dp::Packet& packet = ctx.packet();
    const bool rewritten =
        sim::rewrite_frame_ipv4_dst(packet.mutable_bytes(), owner);
    DAIET_ASSERT(rewritten);  // a parsed UDP frame is IPv4
    ctx.count_op(dp::OpKind::kAlu);  // header rewrite
    // The raw header bytes changed: the context's parsed-header cache
    // must not serve the stale destination to a later pass.
    ctx.invalidate_parsed_frame();
    sim::ParsedFrame steered = frame;
    steered.ip.dst = owner;

    if (trace::enabled()) {
        auto& t = trace::tracer();
        if (trace_name_id_ == 0) trace_name_id_ = t.intern(name());
        t.record({t.now(), packet.frame().trace_id(),
                  transport::request_tag(frame.ip.src, msg.seq), owner,
                  trace_name_id_, trace::EventKind::kDirSteer});
    }

    if (msg.op == kv::KvOp::kPut) {
        ++stats_.puts_steered;
        broadcast_invalidate(ctx, frame, msg);
    } else {
        ++stats_.gets_steered;
    }

    router().forward(ctx, steered);
    return Claim::kHandled;
}

void DirectorySwitchProgram::send_nack(dp::PacketContext& ctx,
                                       const sim::ParsedFrame& frame,
                                       const kv::KvMessage& msg) {
    ++stats_.nacks;
    DirectoryMessage nack;
    nack.op = DirectoryOp::kNack;
    nack.seq = msg.seq;
    nack.key = msg.key;
    const auto payload = serialize_directory(nack);
    // Out of the request's ingress port: the one port guaranteed to
    // lead back toward the client, leaving the routing table unspent.
    auto out_frame =
        sim::build_udp_frame(service_addr(), frame.ip.src, kDirectoryUdpPort,
                             frame.udp->src_port, payload);
    if (trace::enabled()) {
        auto& t = trace::tracer();
        if (trace_name_id_ == 0) trace_name_id_ = t.intern(name());
        // The NACK continues the request's causal chain.
        out_frame.set_trace_id(ctx.packet().frame().trace_id());
        t.record({t.now(), ctx.packet().frame().trace_id(),
                  transport::request_tag(frame.ip.src, msg.seq), 0,
                  trace_name_id_, trace::EventKind::kDirNack});
    }
    dp::Packet out{std::move(out_frame)};
    out.meta().egress_port = ctx.packet().meta().ingress_port;
    ctx.emit(std::move(out));
    ctx.mark_drop();  // the request itself dies here, by design
}

void DirectorySwitchProgram::broadcast_invalidate(dp::PacketContext& ctx,
                                                  const sim::ParsedFrame& frame,
                                                  const kv::KvMessage& msg) {
    if (edges_.empty()) return;
    DirectoryMessage inval;
    inval.op = DirectoryOp::kInvalidate;
    inval.tag = transport::request_tag(frame.ip.src, msg.seq);
    inval.key = msg.key;
    const auto payload = serialize_directory(inval);
    for (const auto& [vaddr, port] : edges_) {
        auto out_frame = sim::build_udp_frame(service_addr(), vaddr,
                                              kDirectoryUdpPort,
                                              kDirectoryUdpPort, payload);
        if (trace::enabled()) {
            // Invalidations are causally part of the PUT that spawned them.
            out_frame.set_trace_id(ctx.packet().frame().trace_id());
        }
        dp::Packet out{std::move(out_frame)};
        out.meta().egress_port = port;
        ctx.emit(std::move(out));
        ++stats_.invalidations_sent;
    }
}

void DirectorySwitchProgram::set_owner(std::size_t range, sim::HostAddr owner) {
    DAIET_EXPECTS(range < owners_.size());
    owners_.poke(range, owner);
}

void DirectorySwitchProgram::add_edge(sim::HostAddr vaddr, dp::PortId port) {
    for (const auto& [existing, _] : edges_) {
        DAIET_EXPECTS(existing != vaddr);
    }
    edges_.emplace_back(vaddr, port);
}

}  // namespace daiet::dir
