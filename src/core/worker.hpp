// End-host library: the application-facing half of DAIET.
//
// MapperSender packetizes a stream of fixed-size key-value pairs into
// DAIET DATA packets (at most max_pairs_per_packet each, §5) and
// terminates the stream with an END packet. ReducerReceiver collects
// the (unordered, partially aggregated) pairs, performs the final
// combine, and exposes a sorted view — the paper's observation that
// "the intermediate results must be sorted at the reducer rather than
// at the mapper" (§4) is reproduced by doing exactly that.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/aggregation.hpp"
#include "core/config.hpp"
#include "core/protocol.hpp"
#include "netsim/host.hpp"

namespace daiet {

struct SenderStats {
    std::uint64_t pairs_sent{0};
    std::uint64_t data_packets_sent{0};
    std::uint64_t end_packets_sent{0};
    std::uint64_t payload_bytes_sent{0};
};

class MapperSender {
public:
    /// `reducer` is the tree root's address; packets are UDP datagrams
    /// addressed to it, intercepted hop-by-hop by DAIET switches.
    MapperSender(sim::Host& host, Config config, TreeId tree, sim::HostAddr reducer);

    /// Queue one pair; transmits whenever a full packet accumulates.
    void send(const KvPair& pair);

    void send_all(std::span<const KvPair> pairs);

    /// Packetize pre-serialized fixed-size records *without
    /// deserializing them*: the paper's §4 path, where pair offsets in
    /// the map-output file are pure arithmetic and each packet carries
    /// only complete pairs. `records.size()` must be a multiple of the
    /// wire pair size, and the internal pair buffer must be empty.
    void send_serialized(std::span<const std::byte> records);

    /// Flush any buffered pairs and send the END marker.
    void finish();

    const SenderStats& stats() const noexcept { return stats_; }

private:
    void flush_buffer();
    /// Send one built DATA packet and count it.
    void transmit(DataPacketBuilder& packet);

    sim::Host* host_;
    Config config_;
    TreeId tree_;
    sim::HostAddr reducer_;
    std::vector<KvPair> buffer_;
    SenderStats stats_;
    bool finished_{false};
};

struct ReceiverStats {
    std::uint64_t pairs_received{0};
    std::uint64_t data_packets_received{0};
    std::uint64_t end_packets_received{0};
    std::uint64_t payload_bytes_received{0};
    /// DAIET payloads decode_daiet rejected, ignored (any pairs they
    /// carried are missing from the declared-pairs check).
    std::uint64_t malformed_packets{0};
};

class ReducerReceiver {
public:
    /// Binds the host's DAIET UDP port. `expected_ends` is the number
    /// of END packets that mark stream completion: 1 per direct tree
    /// child of this reducer (the controller's TreeLayout reports it),
    /// or the number of mappers when no aggregation runs in-network.
    ReducerReceiver(sim::Host& host, TreeId tree, AggFnId fn,
                    std::uint32_t expected_ends);

    ~ReducerReceiver();
    ReducerReceiver(const ReducerReceiver&) = delete;
    ReducerReceiver& operator=(const ReducerReceiver&) = delete;

    /// Invoked (once) when all expected END packets have arrived.
    std::function<void()> on_complete;

    bool complete() const noexcept {
        return stats_.end_packets_received >= expected_ends_;
    }

    /// Loss detection (protocol extension): true when every declared
    /// pair arrived and no upstream hop flagged the stream dirty. Only
    /// meaningful once complete().
    bool clean() const noexcept {
        return !dirty_ && stats_.pairs_received == declared_total_;
    }

    std::uint64_t declared_total() const noexcept { return declared_total_; }

    /// Final aggregation state (combine of everything received so far).
    const std::unordered_map<Key16, WireValue>& aggregated() const noexcept {
        return table_;
    }

    /// The reducer's final output: aggregated pairs sorted by key.
    /// This is the "complete sort operation" of §5 and is intentionally
    /// *not* cached — benchmarks time it.
    std::vector<KvPair> sorted_result() const;

    /// Recovery: drop everything received so far and wait for a fresh
    /// stream with `expected_ends` END markers.
    void reset(std::uint32_t expected_ends);

    const ReceiverStats& stats() const noexcept { return stats_; }
    TreeId tree() const noexcept { return tree_; }

private:
    void on_datagram(sim::HostAddr src, std::uint16_t src_port,
                     std::span<const std::byte> payload);

    sim::Host* host_;
    TreeId tree_;
    AggFnId fn_;
    std::uint32_t expected_ends_;
    std::unordered_map<Key16, WireValue> table_;
    ReceiverStats stats_;
    bool completed_signalled_{false};
    std::uint64_t declared_total_{0};
    bool dirty_{false};
};

}  // namespace daiet
