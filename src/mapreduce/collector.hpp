// RawCollector: reducer-side ingestion that stores DATA payloads
// verbatim (no pair decoding at receive time), back to back in 64 KiB
// blocks: one copy per payload and one allocation per block.
//
// The reduce phase — deserialize + aggregate + sort — is measured as a
// separate, timed step over these raw bytes, so the "Reduce time" box of
// Figure 3 times everything the reducer process does with its received
// data. Both DAIET and the UDP/no-aggregation baseline use this class,
// making the comparison a pure function of received data volume.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "core/protocol.hpp"
#include "netsim/host.hpp"

namespace daiet::mr {

class RawCollector {
public:
    /// Capacity of one payload block. A block holds whole payloads only.
    static constexpr std::size_t kBlockBytes = 64 * 1024;
    static_assert(data_packet_size(kMaxWirePairs) <= kBlockBytes);

    RawCollector(sim::Host& host, TreeId tree, std::uint32_t expected_ends)
        : host_{&host}, tree_{tree}, expected_ends_{expected_ends} {
        host_->udp_bind(kDaietUdpPort,
                        [this](sim::HostAddr, std::uint16_t,
                               std::span<const std::byte> payload) {
                            on_datagram(payload);
                        });
    }

    ~RawCollector() { host_->udp_unbind(kDaietUdpPort); }
    RawCollector(const RawCollector&) = delete;
    RawCollector& operator=(const RawCollector&) = delete;

    /// Raw DATA packet payloads (preamble + pairs) in arrival order,
    /// concatenated into blocks of at most kBlockBytes; no payload
    /// straddles two blocks (reduce_daiet_payloads walks them).
    const std::vector<std::vector<std::byte>>& blocks() const noexcept { return blocks_; }

    std::uint64_t data_packets() const noexcept { return data_packets_; }
    std::uint64_t pair_count() const noexcept { return pairs_; }
    std::uint64_t ends() const noexcept { return ends_; }
    std::uint64_t payload_bytes() const noexcept { return payload_bytes_; }
    /// DAIET payloads decode_daiet rejected, ignored.
    std::uint64_t malformed() const noexcept { return malformed_; }
    bool complete() const noexcept { return ends_ >= expected_ends_; }

    /// Loss detection: all declared pairs arrived, nothing flagged dirty.
    bool clean() const noexcept { return !dirty_ && pairs_ == declared_total_; }

private:
    void on_datagram(std::span<const std::byte> payload) {
        // A checked view of the payload: its pairs are not decoded here.
        const std::optional<DaietPacket> packet = decode_daiet(payload);
        if (!packet) {
            // Its pairs, if any, are lost: the round reads dirty at its END.
            ++malformed_;
            return;
        }
        if (const auto* end = std::get_if<EndPacket>(&*packet)) {
            if (end->tree_id != tree_) return;
            payload_bytes_ += payload.size();
            declared_total_ += end->declared_pairs;
            dirty_ = dirty_ || end->dirty;
            ++ends_;
            return;
        }
        const auto& data = std::get<DataPacket>(*packet);
        if (data.tree_id != tree_) return;
        payload_bytes_ += payload.size();
        pairs_ += data.pairs.size();
        ++data_packets_;
        if (blocks_.empty() || blocks_.back().size() + payload.size() > kBlockBytes) {
            blocks_.emplace_back().reserve(kBlockBytes);
        }
        blocks_.back().insert(blocks_.back().end(), payload.begin(), payload.end());
    }

    sim::Host* host_;
    TreeId tree_;
    std::uint32_t expected_ends_;
    std::vector<std::vector<std::byte>> blocks_;
    std::uint64_t data_packets_{0};
    std::uint64_t pairs_{0};
    std::uint64_t ends_{0};
    std::uint64_t payload_bytes_{0};
    std::uint64_t declared_total_{0};
    std::uint64_t malformed_{0};
    bool dirty_{false};
};

}  // namespace daiet::mr
