// The kv cache dataplane program: NetCache's on-switch half.
//
// A TenantProgram co-resident with DAIET aggregation on the same chip
// (shared SramBook, shared FabricRouter). Cached GETs turn around at
// the switch: the program builds the reply in the pipeline and sends
// it back toward the client, so the request never reaches the storage
// server. Everything else (misses, writes, replies) passes through,
// with the program updating its state on the way:
//
//   GET  toward server, key cached+valid  -> reply from switch (hit)
//   GET  toward server, otherwise         -> count miss, pass through
//   PUT  toward server (distinct)         -> outstanding-write cell +1;
//                                            if cached: pending +1, invalidate
//   PUT  toward server (retransmission)   -> counters untouched;
//                                            if cached: invalidate only
//   PUT_ACK from server (distinct)        -> outstanding-write cell -1;
//                                            if cached: pending -1, and when no
//                                            writes remain pending, write the
//                                            acked value and re-validate
//   PUT_ACK from server (replay)          -> pass through untouched
//
// Invalidate-on-PUT / revalidate-on-last-ACK is the write-through
// coherence protocol: between a PUT passing the switch and the final
// outstanding ACK returning, reads fall through to the server (which
// serializes all writes), so a cached key never serves a stale value.
// The per-cell outstanding-write register extends the same guarantee
// to *promotion*: the controller refuses to promote a key while any
// write to it is somewhere between this switch and the returning ACK,
// which is the window where a server-store snapshot could be stale.
// All of it hinges on every client<->server packet crossing this one
// switch — why the cache lives at the server's edge (ToR) switch,
// exactly where NetCache puts it.
//
// On lossy fabrics the retry transport replays packets, so the counters
// only stay balanced if the dataplane counts *distinct* writes, not
// transmissions: two (client, seq)-tag filter registers recognize
// retransmitted PUTs and replayed ACKs, draining the in-flight state on
// the last distinct ACK only. Re-validation additionally requires the
// ACK to be the server's *original* (no kKvFlagReplay): originals pass
// this switch exactly once by construction, so a stale value can never
// be written back even when a colliding tag sneaks a replay past the
// dedup filter. Every remaining dedup error is conservative — a
// duplicate PUT still invalidates (cheap, always safe), a filter
// mistake can only leave a slot invalid or a counter high. Counter
// residue (an abandoned write whose ACK never crossed this switch, or
// a filter-cell overwrite double-count) is not self-draining in the
// dataplane; the controller heals it out of band by calling
// reset_flight_state() when promotion stays blocked across windows.
//
// Promotion is controller-driven, not dataplane-driven: the dataplane
// only *counts* (per-slot hit registers, the in-flight-write cells);
// the KvCacheController merges the hit counters with the server's
// per-key access log — every cache miss reaches the server, so that
// log *is* the miss counter, per key and collision-free — and rewrites
// the cache between windows, the way NetCache's controller refreshes
// its hot set.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tenancy.hpp"
#include "dataplane/match_table.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "dataplane/register_array.hpp"
#include "kvcache/config.hpp"
#include "kvcache/protocol.hpp"

namespace daiet::kv {

struct KvCacheStats {
    std::uint64_t gets_seen{0};
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t puts_seen{0};
    std::uint64_t invalidations{0};
    std::uint64_t refreshes{0};     ///< PUT_ACK value write-throughs
    std::uint64_t replies_seen{0};  ///< server replies passing through
    std::uint64_t duplicate_puts{0};  ///< retransmitted PUTs recognized
    std::uint64_t duplicate_acks{0};  ///< replayed PUT_ACKs recognized

    double hit_rate() const noexcept {
        return gets_seen == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(gets_seen);
    }
};

class KvCacheSwitchProgram : public TenantProgram {
public:
    /// Reserves the cache index table and the value/valid/hit/pending
    /// register slots from the chip's SRAM book (throws
    /// dp::ResourceError when the chip is full). cache_slots must be
    /// > 0 — a zero-slot cache is simply not attached. `server` scopes
    /// the tenant: it only ever claims traffic to or from that
    /// address, so several kv services (one cache per storage rack)
    /// can share one fabric without answering for each other.
    KvCacheSwitchProgram(KvConfig config, sim::HostAddr server,
                         dp::PipelineSwitch& chip,
                         std::shared_ptr<FabricRouter> router);

    /// Cells in the hashed in-flight-write register (outstanding PUTs
    /// between this switch and their returning ACKs, the coherence
    /// guard for promotion).
    static constexpr std::size_t kWriteFlightCells = 4096;
    /// Cells in each of the two (client, seq) tag filters that tell
    /// retransmitted PUTs and replayed PUT_ACKs from distinct ones —
    /// the registers that keep the coherence counters idempotent on
    /// lossy fabrics.
    static constexpr std::size_t kDedupCells = 4096;

    // --- data plane ---------------------------------------------------------
    bool claims(const sim::ParsedFrame& frame,
                std::span<const std::byte> payload) const override;
    bool on_claimed(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                    std::span<const std::byte> payload) override;
    /// Claims in either direction carry the server port (dst on
    /// requests, src on replies).
    std::vector<std::uint16_t> claim_ports() const override {
        return {kServerUdpPort};
    }
    /// Instance-scoped ("kvcache@<server>"): one fabric can host one
    /// cache tenant per storage server, even behind a shared ToR.
    std::string name() const override {
        return "kvcache@" + std::to_string(server_);
    }
    std::size_t sram_bytes() const override {
        return index_.footprint_bytes() + values_.footprint_bytes() +
               valid_.footprint_bytes() + hits_.footprint_bytes() +
               pending_.footprint_bytes() + write_flight_.footprint_bytes() +
               put_seen_.footprint_bytes() + ack_seen_.footprint_bytes();
    }

    // --- control plane (the KvCacheController's API) ------------------------
    /// Install (or refresh) a cache entry. Returns false when all slots
    /// are taken and `key` is not already cached.
    bool insert(const Key16& key, WireValue value);
    /// Remove a cached key; returns false when it was not cached.
    bool erase(const Key16& key);
    bool contains(const Key16& key) const { return index_.peek(key) != nullptr; }
    std::size_t cached_keys() const noexcept { return slots_ - free_slots_.size(); }
    std::size_t capacity() const noexcept { return slots_; }

    /// Per-cached-key hit counters since the last reset, in slot order.
    std::vector<std::pair<Key16, std::uint32_t>> hit_counts() const;
    /// Start a new observation window (hit counters).
    void reset_hot_counters();
    /// Writes to `key` (or a hash-colliding key — conservative) that
    /// have passed this switch but whose ACK has not yet returned. The
    /// controller only promotes keys with none: while a write is in
    /// flight, a server-store snapshot may predate it.
    std::uint32_t outstanding_writes(const Key16& key) const;

    /// Wipe all in-flight bookkeeping: the write_flight_/pending_
    /// counters, both dedup filters, and every slot's valid bit. Safe
    /// at any time — slots merely fall back to the server until their
    /// next original ACK or the next rebalance re-validates them. The
    /// controller's escape hatch for counter residue that the
    /// dataplane cannot drain (abandoned writes, filter-cell
    /// collisions).
    void reset_flight_state();

    const KvCacheStats& stats() const noexcept { return stats_; }

private:
    /// Build and emit the switch-side reply out of the GET's ingress
    /// port, consuming the request.
    void serve_hit(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                   const KvMessage& msg, std::uint16_t slot);

    sim::HostAddr server_;
    std::size_t slots_;
    dp::ExactMatchTable<Key16, std::uint16_t> index_;  ///< key -> slot
    dp::RegisterArray<WireValue> values_;
    dp::RegisterArray<std::uint32_t> valid_;
    dp::RegisterArray<std::uint32_t> hits_;
    dp::RegisterArray<std::uint32_t> pending_;  ///< in-flight PUTs per slot
    dp::RegisterArray<std::uint32_t> write_flight_;  ///< hashed outstanding PUTs
    /// (client, seq) tags of PUTs already counted / ACKs already
    /// drained — what makes the counters idempotent under replay.
    dp::RegisterArray<std::uint64_t> put_seen_;
    dp::RegisterArray<std::uint64_t> ack_seen_;
    /// Control-plane shadow of index_ (slot -> key) for hit_counts().
    std::vector<Key16> slot_key_;
    /// Lazily interned trace label for this tenant (0 = not interned).
    std::uint32_t trace_name_id_{0};
    std::vector<std::uint16_t> free_slots_;
    KvCacheStats stats_;
};

}  // namespace daiet::kv
