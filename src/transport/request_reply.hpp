// Loss-tolerant transport, strategy 2: request/response retransmission.
//
// For RPC-shaped tenants (the kv cache) a stream restart would be
// absurd: requests are independent, so lost ones are retried
// selectively. Three cooperating pieces, all keyed by the per-request
// transport sequence number the client stamps into the wire message
// (retransmissions carry the *same* seq, so (client address, seq)
// names one logical request everywhere on the path):
//
//  * RetryChannel — the client half. Stamps seq, sends, arms a
//    cancellable RTO timer per request (adaptive, TCP-flavoured:
//    srtt/rttvar with exponential backoff; Karn's rule for samples),
//    retransmits the identical bytes until a reply matches or the
//    attempt budget is spent, and suppresses duplicate replies. It
//    also enforces per-key write barriers: a write waits for every
//    older request on its key and every request waits for older
//    writes on its key. That per-key FIFO is what keeps value
//    histories identical to a loss-free run (reads of distinct keys
//    still overlap freely, so the open-loop workload stays open).
//  * ReplyCache — the server half: at-most-once execution. A
//    (client, seq) the server has answered before is served by
//    replaying the recorded reply bytes, never by re-executing — a
//    retransmitted PUT must not re-apply over a later write, and a
//    retransmitted GET must not observe one.
//  * the switch half lives with its tenant: KvCacheSwitchProgram
//    drains its in-flight-write registers on the last *distinct*
//    PUT_ACK, recognizing duplicates by the same (client, seq)
//    identity, so replayed packets cannot wedge the coherence
//    counters.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/fixed_key.hpp"
#include "netsim/host.hpp"

namespace daiet::transport {

/// Which transmissions of one logical request a receiver has seen.
enum class Sighting : std::uint8_t {
    kNew,        ///< first sighting: execute and record the reply
    kDuplicate,  ///< answered before: replay the recorded reply
    kForgotten,  ///< pruned from the cache: drop (the client moved on)
};

/// Floor for the adaptive RTO.
inline constexpr sim::SimTime kMinRto = 50 * sim::kMicrosecond;
/// RTO = max(kMinRto, kSrttMult * srtt + 4 * rttvar), then doubled per
/// retransmission. The generous multiplier keeps a saturating server
/// (whose queueing delay grows through a run) from driving spurious
/// retransmission storms.
inline constexpr double kSrttMult = 2.0;

struct RetryOptions {
    /// RTO before the first RTT sample; also the backoff base then.
    sim::SimTime initial_rto{200 * sim::kMicrosecond};
    /// Transmissions per request before giving up.
    std::size_t max_attempts{16};
    /// Honour ECN-ish congestion marks (note_congestion()): an RTO
    /// expiring inside the marked window is postponed instead of
    /// retransmitting into the standing queue that set the mark. Off,
    /// marks are counted but ignored — the ablation baseline.
    bool ecn_backoff{true};
};

struct RetryStats {
    std::uint64_t requests{0};
    std::uint64_t retransmits{0};
    /// Retransmissions forced early by nudge() (also in retransmits).
    std::uint64_t nudges{0};
    std::uint64_t replies{0};
    std::uint64_t duplicate_replies{0};
    std::uint64_t abandoned{0};
    /// Requests that waited behind a per-key write barrier.
    std::uint64_t barrier_delays{0};
    /// Congestion marks delivered to this channel (CE on a received
    /// datagram, or an ECE echo from the server).
    std::uint64_t congestion_marks{0};
    /// RTO expiries postponed because the fabric was marked congested.
    std::uint64_t ecn_backoffs{0};
};

/// Client half: reliable at-most-once request submission over UDP.
class RetryChannel {
public:
    /// Serialize the request with transport seq `seq` stamped into it.
    /// Called once per request; retransmissions reuse the bytes.
    using MakePayload = std::function<std::vector<std::byte>(std::uint32_t seq)>;

    RetryChannel(sim::Host& host, sim::HostAddr dst, std::uint16_t src_port,
                 std::uint16_t dst_port, RetryOptions options = {});

    RetryChannel(const RetryChannel&) = delete;
    RetryChannel& operator=(const RetryChannel&) = delete;

    /// Admit a request on ordering key `key`. Sends immediately unless
    /// the key's write barrier holds it back. Returns the seq.
    std::uint32_t submit(const Key16& key, bool is_write, const MakePayload& make);

    /// A reply carrying `seq` arrived. Returns true exactly once per
    /// request (cancels the timer, releases the key's barrier); false
    /// for duplicates and unknown seqs — the caller must drop those.
    bool complete(std::uint32_t seq);

    /// Retransmit `seq` right now instead of waiting out its RTO — the
    /// reaction to an explicit negative signal from the fabric (a kv
    /// directory NACK for a range that is mid-migration: the request
    /// provably died at a known switch, so the RTO's loss inference is
    /// redundant). Consumes an attempt and re-arms the backed-off timer
    /// like any retransmission. Returns false — and does nothing — for
    /// requests that are unknown, still queued behind a barrier, or out
    /// of attempts (the armed timer then drives abandonment).
    bool nudge(std::uint32_t seq);

    /// Invoked after a request exhausts its attempt budget (its barrier
    /// is released first, so the key cannot wedge).
    std::function<void(std::uint32_t seq)> on_abandon;

    /// The fabric reported congestion toward this destination (an
    /// ECN-marked datagram arrived, or the server echoed one). Opens —
    /// or extends — a hold window one RTO long: requests whose RTO
    /// fires inside it wait for the window to pass before
    /// retransmitting, so recovery traffic stops feeding the very
    /// queue the mark came from. The RTO itself still bounds loss
    /// detection once the window closes.
    void note_congestion();

    /// End of the current congestion hold window (0 = none seen yet).
    sim::SimTime congested_until() const noexcept { return congested_until_; }

    const RetryStats& stats() const noexcept { return stats_; }
    /// Requests in flight or queued behind a barrier.
    std::size_t outstanding() const noexcept { return requests_.size(); }
    /// The RTO a fresh request would be armed with right now.
    sim::SimTime current_rto() const noexcept;

private:
    struct Request {
        Key16 key{};
        bool is_write{false};
        std::vector<std::byte> payload;
        std::size_t attempts{0};
        sim::SimTime last_sent{0};
        sim::TimerRef timer;
        bool in_flight{false};  ///< false while queued behind a barrier
        /// Already granted its one congestion deferral since the last
        /// (re)transmission (see on_timeout).
        bool deferred{false};
    };

    /// Per-key ordering window (erased when idle).
    struct KeyWindow {
        std::uint32_t reads_in_flight{0};
        bool write_in_flight{false};
        std::deque<std::uint32_t> queued;  ///< seqs awaiting the barrier
    };

    bool barred(const KeyWindow& window, bool is_write) const noexcept;
    void launch(std::uint32_t seq, Request& request, KeyWindow& window);
    void transmit(std::uint32_t seq, Request& request);
    void on_timeout(std::uint32_t seq);
    /// Release `key`'s barrier slice held by a finished request and
    /// launch whatever the queue now admits.
    void release(const Key16& key, bool was_write);
    void observe_rtt(sim::SimTime sample);

    sim::Host* host_;
    sim::HostAddr dst_;
    std::uint16_t src_port_;
    std::uint16_t dst_port_;
    RetryOptions options_;
    std::uint32_t next_seq_{1};
    std::unordered_map<std::uint32_t, Request> requests_;
    std::unordered_map<Key16, KeyWindow> windows_;
    bool have_rtt_{false};
    double srtt_{0};
    double rttvar_{0};
    sim::SimTime congested_until_{0};
    RetryStats stats_;
};

/// Server half: at-most-once execution with reply replay. Entries are
/// pruned once a client's seq counter has advanced `window` past them
/// (seqs are per-client monotonic, so anything that old can only be a
/// long-abandoned retransmission). Replies are kept in seq order, so a
/// prune erases only the expired prefix instead of scanning the window.
class ReplyCache {
public:
    explicit ReplyCache(std::uint32_t window = 4096);

    /// Classify a sighting of (client, seq). seq 0 marks a message that
    /// never went through a RetryChannel: always kNew, never recorded.
    Sighting classify(sim::HostAddr client, std::uint32_t seq) const;

    /// The recorded reply for a kDuplicate sighting (nullptr otherwise).
    const std::vector<std::byte>* find(sim::HostAddr client,
                                       std::uint32_t seq) const;

    /// Record the reply bytes for a kNew sighting.
    void record(sim::HostAddr client, std::uint32_t seq,
                std::vector<std::byte> reply);

    std::size_t entries() const noexcept;

private:
    struct PerClient {
        std::map<std::uint32_t, std::vector<std::byte>> replies;
        std::uint32_t max_seq{0};
    };

    std::uint32_t window_;
    std::unordered_map<sim::HostAddr, PerClient> clients_;
};

/// The (client, seq) identity of one logical request, folded into a
/// register-cell tag. Used by switch programs to recognize
/// retransmitted requests and replayed replies in the dataplane.
constexpr std::uint64_t request_tag(sim::HostAddr client,
                                    std::uint32_t seq) noexcept {
    return (static_cast<std::uint64_t>(client) << 32) |
           static_cast<std::uint64_t>(seq);
}

}  // namespace daiet::transport
