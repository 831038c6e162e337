// Loss-tolerant transport: request/response retransmission.
//
// For RPC-shaped tenants (the kv cache) restarting the whole stream,
// as JobDriver does for aggregation rounds, would be absurd: requests
// are independent, so lost ones are retried selectively. Three cooperating pieces, all keyed by the per-request
// transport sequence number the client stamps into the wire message
// (retransmissions carry the *same* seq, so (client address, seq)
// names one logical request everywhere on the path):
//
//  * RetryChannel — the client half. Stamps seq, sends, arms an RTO
//    per transmission (adaptive, TCP-flavoured: srtt/rttvar with
//    exponential backoff; Karn's rule for samples),
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
//    re-validates a slot only from the original PUT_ACK whose
//    (client, seq) matches the last PUT to cross it, so a replay or
//    a late ACK can never write back a superseded value.
//
// Both host halves are heap-free in steady state: request payloads and
// recorded replies live inline (at most kMaxPayload bytes) in flat
// seq-indexed rings, a key's barrier queue is threaded through its
// requests, and an RTO is a plain simulator event stamped with a
// generation number — bumping the request's generation disarms it.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
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

/// Largest request or reply payload the transport holds: a kv message
/// is 32 B. Payloads live inline in the per-request state, so a larger
/// one throws BufferError when it is serialized.
inline constexpr std::size_t kMaxPayload = 32;

namespace detail {

/// Per-request state indexed by transport seq: slot `seq & mask` of a
/// power-of-two ring, which doubles whenever a new seq lands on a slot
/// a live entry still holds. Seqs only grow, so a ring as wide as the
/// live seq span never collides and steady state touches no heap. seq 0
/// marks an empty slot, which is why seq 0 never names an entry.
template <typename T>  // T: default-constructible, with a std::uint32_t `seq`
class SeqRing {
public:
    explicit SeqRing(std::size_t capacity) : slots_(capacity) {
        DAIET_EXPECTS(std::has_single_bit(capacity));
    }

    T* find(std::uint32_t seq) noexcept {
        T& slot = slots_[seq & mask()];
        return seq != 0 && slot.seq == seq ? &slot : nullptr;
    }
    const T* find(std::uint32_t seq) const noexcept {
        const T& slot = slots_[seq & mask()];
        return seq != 0 && slot.seq == seq ? &slot : nullptr;
    }

    /// A fresh entry for `seq`, replacing any live entry with that seq.
    /// Growth moves entries: references from find() die here.
    T& insert(std::uint32_t seq) {
        DAIET_EXPECTS(seq != 0);
        while (slots_[seq & mask()].seq != 0 && slots_[seq & mask()].seq != seq) {
            grow();
        }
        T& slot = slots_[seq & mask()];
        if (slot.seq == 0) ++size_;
        slot = T{};
        slot.seq = seq;
        return slot;
    }

    void erase(T& entry) noexcept {
        DAIET_EXPECTS(entry.seq != 0);
        entry.seq = 0;
        --size_;
    }

    std::size_t size() const noexcept { return size_; }
    std::size_t capacity() const noexcept { return slots_.size(); }

private:
    std::size_t mask() const noexcept { return slots_.size() - 1; }

    /// Live seqs are distinct modulo the capacity, hence modulo twice it.
    void grow() {
        std::vector<T> wider(slots_.size() * 2);
        for (T& entry : slots_) {
            if (entry.seq != 0) wider[entry.seq & (wider.size() - 1)] = std::move(entry);
        }
        slots_.swap(wider);
    }

    std::vector<T> slots_;
    std::size_t size_{0};
};

}  // namespace detail

/// Client half: reliable at-most-once request submission over UDP.
class RetryChannel {
public:
    /// Serialize the request with transport seq `seq` stamped into it,
    /// into a writer over the request's inline kMaxPayload bytes.
    /// Called once per request; retransmissions reuse the bytes.
    using MakePayload = std::function<void(std::uint32_t seq, ByteWriter& out)>;

    /// What complete() hands back about the request it finished.
    struct Completion {
        Key16 key{};
        bool is_write{false};
        sim::SimTime submitted{0};  ///< when submit() admitted it
    };

    RetryChannel(sim::Host& host, sim::HostAddr dst, std::uint16_t src_port,
                 std::uint16_t dst_port, RetryOptions options = {});

    RetryChannel(const RetryChannel&) = delete;
    RetryChannel& operator=(const RetryChannel&) = delete;

    /// Admit a request on ordering key `key`. Sends immediately unless
    /// the key's write barrier holds it back. Returns the seq: 1 for
    /// the first request, then one more per call.
    std::uint32_t submit(const Key16& key, bool is_write, const MakePayload& make);

    /// A reply carrying `seq` arrived. Returns the request exactly once
    /// (disarms its RTO, releases the key's barrier); nullopt for
    /// duplicates and unknown seqs — the caller must drop those.
    std::optional<Completion> complete(std::uint32_t seq);

    /// Retransmit `seq` right now instead of waiting out its RTO — the
    /// reaction to an explicit negative signal from the fabric (a kv
    /// directory NACK for a range that is mid-migration: the request
    /// provably died at a known switch, so the RTO's loss inference is
    /// redundant). Consumes an attempt and re-arms the backed-off RTO
    /// like any retransmission. Returns false — and does nothing — for
    /// requests that are unknown, still queued behind a barrier, or out
    /// of attempts (the armed RTO then drives abandonment).
    bool nudge(std::uint32_t seq);

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
    /// Requests in flight or queued behind a barrier. A request leaves
    /// on completion or when it exhausts its attempt budget.
    std::size_t outstanding() const noexcept { return requests_.size(); }
    /// True while `seq` is in flight or queued behind a barrier.
    bool is_outstanding(std::uint32_t seq) const noexcept {
        return requests_.find(seq) != nullptr;
    }
    /// The RTO a fresh request would be armed with right now.
    sim::SimTime current_rto() const noexcept;

private:
    struct Request {
        std::uint32_t seq{0};  ///< 0 = free ring slot
        /// Generation of the armed RTO: bumping it disarms the event
        /// already queued, which then fires as a no-op.
        std::uint32_t timer_gen{0};
        /// Next seq in this key's barrier queue (0 = last).
        std::uint32_t next_queued{0};
        std::uint32_t attempts{0};
        Key16 key{};
        sim::SimTime submitted{0};
        sim::SimTime last_sent{0};
        bool is_write{false};
        bool in_flight{false};  ///< false while queued behind a barrier
        /// Already granted its one congestion deferral since the last
        /// (re)transmission (see on_timeout).
        bool deferred{false};
        std::uint8_t payload_size{0};
        std::array<std::byte, kMaxPayload> payload{};

        std::span<const std::byte> bytes() const noexcept {
            return {payload.data(), payload_size};
        }
    };

    /// Per-key ordering window (erased when idle). Its queue is threaded
    /// through the requests' next_queued links.
    struct KeyWindow {
        std::uint32_t reads_in_flight{0};
        bool write_in_flight{false};
        std::uint32_t queue_head{0};  ///< oldest seq awaiting the barrier
        std::uint32_t queue_tail{0};  ///< youngest seq awaiting the barrier
    };
    using WindowMap = std::unordered_map<Key16, KeyWindow>;

    bool barred(const KeyWindow& window, bool is_write) const noexcept;
    KeyWindow& window_for(const Key16& key);
    void launch(Request& request, KeyWindow& window);
    void transmit(Request& request);
    /// Schedule `request`'s RTO `delay` from now, disarming any other.
    void arm(Request& request, sim::SimTime delay);
    void on_timeout(std::uint32_t seq, std::uint32_t gen);
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
    detail::SeqRing<Request> requests_;
    WindowMap windows_;
    /// Nodes of erased windows, reused for the next new key.
    std::vector<WindowMap::node_type> spare_windows_;
    bool have_rtt_{false};
    double srtt_{0};
    double rttvar_{0};
    sim::SimTime congested_until_{0};
    RetryStats stats_;
    /// Queued RTO events hold a weak reference: once the channel is
    /// gone they fire as no-ops.
    std::shared_ptr<const bool> alive_{std::make_shared<const bool>(true)};
};

/// Server half: at-most-once execution with reply replay. Entries are
/// pruned once a client's seq counter has advanced `window` past them
/// (seqs are per-client monotonic, so anything that old can only be a
/// long-abandoned retransmission). Each client's replies sit inline in
/// a SeqRing of at most `window` slots, so a sighting is one slot probe.
class ReplyCache {
public:
    /// `window` must be a power of two.
    explicit ReplyCache(std::uint32_t window = 4096);

    /// Classify a sighting of (client, seq). seq 0 marks a message that
    /// never went through a RetryChannel: always kNew, never recorded.
    Sighting classify(sim::HostAddr client, std::uint32_t seq) const;

    /// The recorded reply for a kDuplicate sighting (nullopt otherwise).
    std::optional<std::span<const std::byte>> find(sim::HostAddr client,
                                                   std::uint32_t seq) const;

    /// Record the reply bytes (at most kMaxPayload) for a kNew sighting.
    void record(sim::HostAddr client, std::uint32_t seq,
                std::span<const std::byte> reply);

    std::size_t entries() const noexcept;

private:
    struct Reply {
        std::uint32_t seq{0};  ///< 0 = free ring slot
        std::uint8_t size{0};
        std::array<std::byte, kMaxPayload> bytes{};
    };

    struct PerClient {
        explicit PerClient(std::size_t slots) : replies{slots} {}
        detail::SeqRing<Reply> replies;
        std::uint32_t max_seq{0};
    };

    /// Replies older than this for `pc` are forgotten.
    std::uint32_t floor_of(const PerClient& pc) const noexcept {
        return pc.max_seq > window_ ? pc.max_seq - window_ : 0;
    }

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

/// A request tag as the 8 big-endian bytes a switch hash unit reads.
constexpr std::array<std::byte, 8> request_tag_bytes(std::uint64_t tag) noexcept {
    std::array<std::byte, 8> out{};
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<std::byte>(tag >> (56 - 8 * i));
    }
    return out;
}

}  // namespace daiet::transport
