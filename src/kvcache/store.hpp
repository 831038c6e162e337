// End-host halves of the kv service: the storage server and the client
// library.
//
// KvStoreServer is a deliberately ordinary key-value server: a map, a
// UDP socket, and a single serial worker whose per-request service time
// models the userspace stack the switch cache bypasses. Requests queue
// behind one another, so a skewed workload drives it toward saturation
// — the phenomenon the in-network cache exists to absorb. It also keeps
// a per-key access log since the last controller poll; together with
// the switch's hit counters this is the controller's view of hotness.
// Under the loss-tolerant transport the server executes at most once
// per (client, seq): retransmissions are answered by replaying the
// recorded reply bytes from a transport::ReplyCache, ahead of the
// worker queue.
//
// KvClient issues GET/PUT requests through a transport::RetryChannel
// (per-request seq, RTO-driven retransmission, per-key write barriers,
// duplicate-reply suppression), matches replies by request id, and
// records per-request latency plus whether the reply came from a switch
// cache (FLAG_FROM_SWITCH) — the measurement surface for every kv
// benchmark and test. Latency covers the whole request lifetime,
// retransmissions included: that is the p99 story a lossy fabric tells.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "kvcache/config.hpp"
#include "kvcache/protocol.hpp"
#include "netsim/host.hpp"
#include "transport/request_reply.hpp"

namespace daiet::kv {

class KvStoreServer {
public:
    struct Stats {
        std::uint64_t gets{0};
        std::uint64_t puts{0};
        std::uint64_t not_found{0};
        /// Retransmissions answered from the reply cache (no
        /// re-execution, no worker time).
        std::uint64_t duplicates{0};
        /// Simulated time the worker spent busy (load observability).
        sim::SimTime busy_time{0};
    };

    /// Binds the server UDP port on `host`.
    KvStoreServer(sim::Host& host, KvConfig config);
    ~KvStoreServer();
    KvStoreServer(const KvStoreServer&) = delete;
    KvStoreServer& operator=(const KvStoreServer&) = delete;

    sim::HostAddr addr() const noexcept;

    /// Control-plane load (no traffic, no service time).
    void preload(const Key16& key, WireValue value) { store_[key] = value; }

    /// Control-plane removal (no traffic): the directory controller's
    /// half of a range migration — keys copied to the new rack are
    /// erased here so the old rack cannot serve them ever again.
    bool erase(const Key16& key) { return store_.erase(key) > 0; }

    const std::unordered_map<Key16, WireValue>& store() const noexcept {
        return store_;
    }

    /// GETs that reached the server per key since the last clear — the
    /// cache's misses, i.e. the controller's promotion candidates.
    const std::unordered_map<Key16, std::uint64_t>& access_log() const noexcept {
        return access_log_;
    }
    void clear_access_log() { access_log_.clear(); }

    const Stats& stats() const noexcept { return stats_; }

private:
    void on_datagram(sim::HostAddr src, std::uint16_t src_port,
                     std::span<const std::byte> payload);

    sim::Host* host_;
    KvConfig config_;
    std::unordered_map<Key16, WireValue> store_;
    std::unordered_map<Key16, std::uint64_t> access_log_;
    transport::ReplyCache replies_;
    /// The serial worker's next free instant. Original replies leave in
    /// the order their requests were applied; the rack cache's
    /// coherence rule relies on it (kvcache/switch_program.hpp).
    sim::SimTime worker_free_at_{0};
    Stats stats_;
};

class KvClient {
public:
    /// One finished request, as observed by the application.
    struct OpRecord {
        std::uint32_t req_id{0};
        KvOp op{KvOp::kGet};
        Key16 key{};
        WireValue value{0};
        bool found{false};
        bool from_switch{false};
        bool from_edge{false};  ///< served by a client-side edge cache
        sim::SimTime latency{0};
        sim::SimTime completed{0};  ///< simulation time the reply arrived
    };

    struct Stats {
        std::uint64_t gets_sent{0};
        std::uint64_t puts_sent{0};
        std::uint64_t get_replies{0};
        std::uint64_t put_acks{0};
        std::uint64_t switch_hits{0};
        /// Replies served by a client-side edge cache (also counted in
        /// switch_hits — an edge hit is a switch hit nearer the client).
        std::uint64_t edge_hits{0};
        std::uint64_t not_found{0};
        /// Directory NACKs received (requests that raced a range
        /// migration) and the immediate retransmissions they triggered.
        std::uint64_t nacks{0};
        std::uint64_t nack_retries{0};
    };

    /// Binds the client UDP port on `host` (one kv client per host).
    KvClient(sim::Host& host, KvConfig config, sim::HostAddr server);

    ~KvClient();
    KvClient(const KvClient&) = delete;
    KvClient& operator=(const KvClient&) = delete;

    /// How long a client waits after a directory NACK (the request hit
    /// a key range that is mid-migration) before nudging its retry
    /// channel into an immediate retransmission. Long enough that a
    /// handful of retries spans a range migration's drain window,
    /// short enough to beat the RTO by an order of magnitude.
    static constexpr sim::SimTime kNackRetryDelay = 25 * sim::kMicrosecond;

    /// Issue a request; returns its request id (= its transport seq).
    std::uint32_t get(const Key16& key);
    std::uint32_t put(const Key16& key, WireValue value);

    /// Invoked on every completed request (after stats are recorded).
    std::function<void(const OpRecord&)> on_reply;

    /// Application counters; the transport's are channel().stats().
    const Stats& stats() const noexcept { return stats_; }
    /// Per-op latency distributions, fixed-memory no matter how long
    /// the run (log-bucketed; mean/min/max exact, quantiles ≤ ~1.6%
    /// relative error).
    const LogHistogram& get_latency() const noexcept { return get_latency_; }
    const LogHistogram& put_latency() const noexcept { return put_latency_; }
    /// Every completed request in completion order (reply values are
    /// the correctness surface for parity/coherence tests).
    const std::vector<OpRecord>& log() const noexcept { return log_; }
    std::size_t outstanding() const noexcept { return channel_.outstanding(); }
    /// The retry transport underneath (retransmit, abandon, ECN and
    /// barrier stats).
    const transport::RetryChannel& channel() const noexcept { return channel_; }

private:
    void on_datagram(sim::HostAddr src, std::uint16_t src_port,
                     std::span<const std::byte> payload);
    void on_nack(std::uint32_t seq);
    std::uint32_t send(KvOp op, const Key16& key, WireValue value);

    sim::Host* host_;
    sim::HostAddr server_;
    /// Also the request table: a request id is its transport seq.
    transport::RetryChannel channel_;
    /// Armed NACK-retry timers by seq (dropping a TimerRef disarms it,
    /// so the pending nudges must be held somewhere).
    std::unordered_map<std::uint32_t, sim::TimerRef> nack_timers_;
    Stats stats_;
    LogHistogram get_latency_;
    LogHistogram put_latency_;
    std::vector<OpRecord> log_;
};

}  // namespace daiet::kv
