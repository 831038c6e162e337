// RawCollector: reducer-side ingestion that stores DATA payloads
// verbatim (no parsing at receive time).
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

    /// Raw DATA packet payloads (preamble + pairs), in arrival order.
    const std::vector<std::vector<std::byte>>& payloads() const noexcept {
        return payloads_;
    }

    std::uint64_t data_packets() const noexcept { return payloads_.size(); }
    std::uint64_t pair_count() const noexcept { return pairs_; }
    std::uint64_t ends() const noexcept { return ends_; }
    std::uint64_t payload_bytes() const noexcept { return payload_bytes_; }
    bool complete() const noexcept { return ends_ >= expected_ends_; }

    /// Loss detection: all declared pairs arrived, nothing flagged dirty.
    bool clean() const noexcept { return !dirty_ && pairs_ == declared_total_; }

private:
    void on_datagram(std::span<const std::byte> payload) {
        if (!looks_like_daiet(payload) || payload.size() < kPreambleSize) return;
        // Only the preamble is peeked at receive time (type + tree id).
        const auto type = static_cast<PacketType>(static_cast<std::uint8_t>(payload[2]));
        const TreeId tree = static_cast<TreeId>(
            static_cast<std::uint16_t>(payload[3]) << 8 |
            static_cast<std::uint16_t>(payload[4]));
        if (tree != tree_) return;
        payload_bytes_ += payload.size();
        if (type == PacketType::kEnd) {
            const auto end = std::get<EndPacket>(parse_packet(payload));
            declared_total_ += end.declared_pairs;
            dirty_ = dirty_ || end.dirty;
            ++ends_;
            return;
        }
        pairs_ += static_cast<std::uint8_t>(payload[5]);
        payloads_.emplace_back(payload.begin(), payload.end());
    }

    sim::Host* host_;
    TreeId tree_;
    std::uint32_t expected_ends_;
    std::vector<std::vector<std::byte>> payloads_;
    std::uint64_t pairs_{0};
    std::uint64_t ends_{0};
    std::uint64_t payload_bytes_{0};
    std::uint64_t declared_total_{0};
    bool dirty_{false};
};

}  // namespace daiet::mr
