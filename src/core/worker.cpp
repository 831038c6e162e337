#include "core/worker.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace daiet {

MapperSender::MapperSender(sim::Host& host, Config config, TreeId tree,
                           sim::HostAddr reducer)
    : host_{&host}, config_{config}, tree_{tree}, reducer_{reducer} {
    buffer_.reserve(config_.max_pairs_per_packet);
}

void MapperSender::send(const KvPair& pair) {
    DAIET_EXPECTS(!finished_);
    DAIET_EXPECTS(!pair.key.empty());  // the all-zero key is the empty-cell sentinel
    buffer_.push_back(pair);
    if (buffer_.size() >= config_.max_pairs_per_packet) flush_buffer();
}

void MapperSender::send_all(std::span<const KvPair> pairs) {
    for (const KvPair& p : pairs) send(p);
}

void MapperSender::send_serialized(std::span<const std::byte> records) {
    DAIET_EXPECTS(!finished_);
    DAIET_EXPECTS(buffer_.empty());
    DAIET_EXPECTS(records.size() % kPairWireSize == 0);
    const std::size_t chunk = config_.max_pairs_per_packet * kPairWireSize;
    for (std::size_t off = 0; off < records.size(); off += chunk) {
        DataPacketBuilder packet{tree_};
        packet.add_records(records.subspan(off, std::min(chunk, records.size() - off)));
        transmit(packet);
    }
}

void MapperSender::flush_buffer() {
    if (buffer_.empty()) return;
    DataPacketBuilder packet{tree_};
    for (const KvPair& p : buffer_) packet.add(p);
    transmit(packet);
    buffer_.clear();
}

void MapperSender::transmit(DataPacketBuilder& packet) {
    const auto payload = packet.bytes();
    host_->udp_send(reducer_, kMapperUdpPort, kDaietUdpPort, payload);
    ++stats_.data_packets_sent;
    stats_.pairs_sent += packet.pair_count();
    stats_.payload_bytes_sent += payload.size();
}

void MapperSender::finish() {
    DAIET_EXPECTS(!finished_);
    flush_buffer();
    const auto payload = serialize_end(
        tree_, static_cast<std::uint32_t>(stats_.pairs_sent), /*dirty=*/false);
    host_->udp_send(reducer_, kMapperUdpPort, kDaietUdpPort, payload);
    ++stats_.end_packets_sent;
    stats_.payload_bytes_sent += payload.size();
    finished_ = true;
}

ReducerReceiver::ReducerReceiver(sim::Host& host, TreeId tree, AggFnId fn,
                                 std::uint32_t expected_ends)
    : host_{&host}, tree_{tree}, fn_{fn},
      expected_ends_{expected_ends} {
    DAIET_EXPECTS(expected_ends > 0);
    host_->udp_bind(kDaietUdpPort,
                    [this](sim::HostAddr src, std::uint16_t src_port,
                           std::span<const std::byte> payload) {
                        on_datagram(src, src_port, payload);
                    });
}

ReducerReceiver::~ReducerReceiver() { host_->udp_unbind(kDaietUdpPort); }

void ReducerReceiver::on_datagram(sim::HostAddr /*src*/, std::uint16_t /*src_port*/,
                                  std::span<const std::byte> payload) {
    const std::optional<DaietPacket> packet = decode_daiet(payload);
    if (!packet) {
        // Its pairs, if any, are lost: the round reads dirty at its END.
        ++stats_.malformed_packets;
        return;
    }
    stats_.payload_bytes_received += payload.size();

    if (const auto* data = std::get_if<DataPacket>(&*packet)) {
        if (data->tree_id != tree_) return;
        ++stats_.data_packets_received;
        stats_.pairs_received += data->pairs.size();
        for (const KvPair p : data->pairs) {
            const auto [it, inserted] = table_.try_emplace(p.key, first_value(fn_, p.value));
            if (!inserted) it->second = combine(fn_, it->second, p.value);
        }
        return;
    }

    const auto& end = std::get<EndPacket>(*packet);
    if (end.tree_id != tree_) return;
    ++stats_.end_packets_received;
    declared_total_ += end.declared_pairs;
    dirty_ = dirty_ || end.dirty;
    if (complete() && !completed_signalled_) {
        completed_signalled_ = true;
        if (on_complete) on_complete();
    }
}

void ReducerReceiver::reset(std::uint32_t expected_ends) {
    DAIET_EXPECTS(expected_ends > 0);
    expected_ends_ = expected_ends;
    table_.clear();
    stats_ = ReceiverStats{};
    completed_signalled_ = false;
    declared_total_ = 0;
    dirty_ = false;
}

std::vector<KvPair> ReducerReceiver::sorted_result() const {
    std::vector<KvPair> out;
    out.reserve(table_.size());
    for (const auto& [key, value] : table_) out.push_back(KvPair{key, value});
    sort_by_key(out);
    return out;
}

}  // namespace daiet
