#include "kvcache/store.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "directory/protocol.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"

namespace daiet::kv {

// -------------------------------------------------------- KvStoreServer

KvStoreServer::KvStoreServer(sim::Host& host, KvConfig config)
    : host_{&host}, config_{config} {
    host_->udp_bind(kServerUdpPort,
                    [this](sim::HostAddr src, std::uint16_t src_port,
                           std::span<const std::byte> payload) {
                        on_datagram(src, src_port, payload);
                    });
}

KvStoreServer::~KvStoreServer() { host_->udp_unbind(kServerUdpPort); }

sim::HostAddr KvStoreServer::addr() const noexcept { return host_->addr(); }

void KvStoreServer::on_datagram(sim::HostAddr src, std::uint16_t src_port,
                                std::span<const std::byte> payload) {
    const std::optional<KvMessage> decoded = decode_kv(payload);
    if (!decoded || (decoded->op != KvOp::kGet && decoded->op != KvOp::kPut)) return;
    const KvMessage& msg = *decoded;

    // At-most-once: a retransmission is answered by replaying the
    // recorded reply bytes, never by re-executing (a duplicate PUT
    // must not re-apply over a later write, a duplicate GET must not
    // observe one). The replay is a header check ahead of the worker:
    // it costs no service time, which keeps spurious retransmissions
    // from feeding the very saturation that caused them.
    switch (replies_.classify(src, msg.seq)) {
        case transport::Sighting::kNew: break;
        case transport::Sighting::kDuplicate: {
            ++stats_.duplicates;
            // Mark the replay on the wire: a cache switch must be able
            // to tell it from the original acknowledgment (it may carry
            // a value later writes have superseded).
            const auto recorded = replies_.find(src, msg.seq);
            DAIET_ASSERT(recorded.has_value());
            std::optional<KvMessage> replay = decode_kv(*recorded);
            DAIET_ASSERT(replay.has_value());  // bytes this server wrote
            replay->flags |= kKvFlagReplay;
            // The ECN echo describes the path *now*, not at recording
            // time: re-derive it from this retransmission's mark so a
            // drained queue stops signalling and a newly standing one
            // starts — it is exactly the retry traffic the back-off
            // loop wants to throttle.
            replay->flags &= static_cast<std::uint8_t>(~kKvFlagEce);
            if (host_->rx_ecn_ce()) replay->flags |= kKvFlagEce;
            if (trace::enabled()) {
                trace::tracer().annotate_next_tx(transport::request_tag(src, msg.seq));
            }
            host_->udp_send(src, kServerUdpPort, src_port,
                            serialize_kv(*replay));
            return;
        }
        case transport::Sighting::kForgotten:
            // Too old to replay; the client abandoned it long ago.
            ++stats_.duplicates;
            return;
    }

    KvMessage reply;
    reply.req_id = msg.req_id;
    reply.seq = msg.seq;
    reply.key = msg.key;
    // Echo forward-path congestion: a request that crossed a marked
    // queue tells its client to back off via the reply flags.
    if (host_->rx_ecn_ce()) reply.flags |= kKvFlagEce;
    if (msg.op == KvOp::kGet) {
        ++stats_.gets;
        ++access_log_[msg.key];
        reply.op = KvOp::kGetReply;
        const auto it = store_.find(msg.key);
        if (it != store_.end()) {
            reply.flags |= kKvFlagFound;
            reply.value = it->second;
        } else {
            ++stats_.not_found;
        }
    } else {
        ++stats_.puts;
        store_[msg.key] = msg.value;
        reply.op = KvOp::kPutAck;
        reply.flags |= kKvFlagFound;
        reply.value = msg.value;
    }

    // Serial worker: requests are served one after another, each
    // costing the configured service time. The reply leaves when the
    // worker gets to — and finishes — this request. The reply bytes are
    // recorded first so a retransmission arriving mid-service replays
    // the same serialized outcome.
    const KvWire wire = serialize_kv(reply);
    replies_.record(src, msg.seq, wire);
    sim::Simulator& sim = host_->simulator();
    const sim::SimTime start = std::max(sim.now(), worker_free_at_);
    worker_free_at_ = start + config_.server_service_time;
    stats_.busy_time += config_.server_service_time;
    // The wire travels by value; the seq is read back from it, which
    // keeps the capture inside the simulator's inline action buffer.
    auto send_reply = [this, wire, src, src_port] {
        // Tag the reply tx with the request it answers, so forensics can
        // follow the chain across the server hop.
        if (trace::enabled()) {
            trace::tracer().annotate_next_tx(
                transport::request_tag(src, decode_kv(wire)->seq));
        }
        host_->udp_send(src, kServerUdpPort, src_port, wire);
    };
    static_assert(sizeof(send_reply) <= sim::Simulator::kInlineActionBytes);
    sim.schedule_at(worker_free_at_, send_reply);
}

// ------------------------------------------------------------- KvClient

KvClient::KvClient(sim::Host& host, KvConfig config, sim::HostAddr server)
    : host_{&host},
      server_{server},
      channel_{host, server, kClientUdpPort, kServerUdpPort, config.retry} {
    host_->udp_bind(kClientUdpPort,
                    [this](sim::HostAddr src, std::uint16_t src_port,
                           std::span<const std::byte> payload) {
                        on_datagram(src, src_port, payload);
                    });
}

KvClient::~KvClient() { host_->udp_unbind(kClientUdpPort); }

void KvClient::on_nack(std::uint32_t seq) {
    ++stats_.nacks;
    if (!channel_.is_outstanding(seq)) return;  // already completed/abandoned
    if (nack_timers_.contains(seq)) return;     // a retry is already pending
    nack_timers_[seq] = host_->timer_after(kNackRetryDelay, [this, seq] {
        nack_timers_.erase(seq);
        if (channel_.nudge(seq)) ++stats_.nack_retries;
    });
}

std::uint32_t KvClient::get(const Key16& key) {
    ++stats_.gets_sent;
    return send(KvOp::kGet, key, 0);
}

std::uint32_t KvClient::put(const Key16& key, WireValue value) {
    ++stats_.puts_sent;
    return send(KvOp::kPut, key, value);
}

std::uint32_t KvClient::send(KvOp op, const Key16& key, WireValue value) {
    DAIET_EXPECTS(!key.empty());
    KvMessage msg;
    msg.op = op;
    msg.key = key;
    msg.value = value;
    // The retry channel stamps the transport seq, sends (or queues
    // behind the key's write barrier) and retransmits on timeout. The
    // request id is the seq: both count from 1, once per send(), so
    // the channel's request table is the only one.
    const std::uint32_t seq = channel_.submit(
        key, op == KvOp::kPut, [&msg](std::uint32_t s, ByteWriter& out) {
            msg.req_id = s;
            msg.seq = s;
            out.put_bytes(serialize_kv(msg));
        });
    DAIET_ENSURES(msg.req_id == seq);
    return seq;
}

void KvClient::on_datagram(sim::HostAddr /*src*/, std::uint16_t /*src_port*/,
                           std::span<const std::byte> payload) {
    // Directory NACKs arrive on the same socket as replies: the sharded
    // service's directory switch bounces requests whose key range is
    // mid-migration. The request is not lost (it provably died at the
    // directory), so instead of waiting out the RTO the client nudges
    // the retry channel after a short, fixed delay — long enough for a
    // few retries to span the migration's drain window.
    if (const auto nack = dir::decode_directory(payload)) {
        if (nack->op == dir::DirectoryOp::kNack) on_nack(nack->seq);
        return;
    }
    const std::optional<KvMessage> decoded = decode_kv(payload);
    if (!decoded || (decoded->op != KvOp::kGetReply && decoded->op != KvOp::kPutAck)) {
        return;
    }
    const KvMessage& msg = *decoded;
    // Congestion feedback first, duplicates included: a CE mark on the
    // reply path or the server's ECE echo both mean a fabric queue is
    // standing between us and the server, and the retry transport
    // should hold its fire instead of feeding it.
    if (host_->rx_ecn_ce() || msg.ece()) channel_.note_congestion();
    // The channel completes each request exactly once; replies to
    // retransmitted copies are duplicates and fall on the floor here.
    const auto done = channel_.complete(msg.seq);
    if (!done) return;

    OpRecord record;
    record.req_id = msg.seq;
    record.op = done->is_write ? KvOp::kPut : KvOp::kGet;
    record.key = done->key;
    record.value = msg.value;
    record.found = msg.found();
    record.from_switch = msg.from_switch();
    record.from_edge = msg.from_edge();
    record.latency = host_->simulator().now() - done->submitted;
    record.completed = host_->simulator().now();

    if (record.op == KvOp::kGet) {
        ++stats_.get_replies;
        if (record.from_switch) ++stats_.switch_hits;
        if (record.from_edge) ++stats_.edge_hits;
        if (!record.found) ++stats_.not_found;
        get_latency_.add(static_cast<double>(record.latency));
    } else {
        ++stats_.put_acks;
        put_latency_.add(static_cast<double>(record.latency));
    }
    log_.push_back(record);
    if (on_reply) on_reply(record);
}

}  // namespace daiet::kv
