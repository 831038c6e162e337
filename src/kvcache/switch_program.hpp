// The kv cache dataplane program: NetCache's on-switch half.
//
// A TenantProgram co-resident with DAIET aggregation on the same chip
// (shared SramBook, shared FabricRouter). Cached GETs turn around at
// the switch: the program builds the reply in the pipeline and sends
// it back toward the client, so the request never reaches the storage
// server. Everything else (misses, writes, replies) passes through.
//
// Coherence is one per-slot register, last_put: the (client, seq) tag
// of the last PUT copy that crossed the slot. The whole rule:
//
//   GET  toward server, key cached+valid   -> reply from switch (hit)
//   GET  toward server, otherwise          -> count miss, pass through
//   PUT  toward server, key cached         -> invalidate, last_put = tag
//   PUT_ACK original, tag == last_put      -> write its value, validate
//   PUT_ACK otherwise, key cached          -> invalidate
//   controller install                     -> server snapshot, valid
//                                             (last_put = 0 on a fresh slot)
//
// A newer value becomes visible to a client only when its PUT_ACK or a
// GET reply carrying it crosses this switch, and that crossing either
// invalidates the slot or validates it with that newest value. Three
// conditions make it so:
//   1. Every packet between client and server crosses this switch,
//      over one FIFO link to the server: the cache lives at the
//      server's edge (ToR), exactly where NetCache puts it. PUTs reach
//      the server in the order they cross, so a write applied after the
//      last_put write crossed later and re-armed last_put.
//   2. The server's serial worker sends original replies in the order
//      it applied the requests (KvStoreServer::worker_free_at_): no
//      GET reply or ACK of a later write leaves ahead of an original
//      ACK.
//   3. A replayed reply (kKvFlagReplay) never validates: it leaves the
//      server out of apply order, with a value that may be superseded.
// Condition 1 also needs every copy of a write to cross before any
// newer write to its key. A key with one writer has that: the client's
// per-key write barrier sends a write only after the previous one's
// reply arrived, on the same path as every earlier copy. With several
// writers, a retransmitted copy of an applied write that crosses after
// another client's newer write re-arms last_put for the older value.
//
// Promotion is controller-driven, not dataplane-driven: the dataplane
// only *counts* (per-slot hit registers); the KvCacheController merges
// the hit counters with the server's per-key access log — every cache
// miss reaches the server, so that log *is* the miss counter, per key
// and collision-free — and rewrites the cache between windows, the way
// NetCache's controller refreshes its hot set.
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

    double hit_rate() const noexcept {
        return gets_seen == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(gets_seen);
    }
};

/// Answer a GET from the switch, impersonating the server: the reply
/// (`flags`, `value`, the GET's req_id, seq and key) leaves with the
/// GET's destination as its source, out of the port the GET arrived
/// on. That is the one port sure to lead back toward the client, with
/// no second routing-table application (a table may only be applied
/// once per pass, and the miss path needs it for the server route).
/// The reply continues the GET's trace; the GET itself is dropped.
void reply_from_switch(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                       const KvMessage& get, std::uint8_t flags, WireValue value);

class KvCacheSwitchProgram : public TenantProgram {
public:
    /// Reserves the cache index table and the value/valid/hit/last_put
    /// register slots from the chip's SRAM book (throws
    /// dp::ResourceError when the chip is full). cache_slots must be
    /// > 0 — a zero-slot cache is simply not attached. `server` scopes
    /// the tenant: it only ever claims traffic to or from that
    /// address, so several kv services (one cache per storage rack)
    /// can share one fabric without answering for each other.
    KvCacheSwitchProgram(KvConfig config, sim::HostAddr server,
                         dp::PipelineSwitch& chip,
                         std::shared_ptr<FabricRouter> router);

    // --- data plane ---------------------------------------------------------
    Claim on_frame(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
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
               last_put_.footprint_bytes();
    }

    // --- control plane (the KvCacheController's API) ------------------------
    /// Install (or refresh) a cache entry as valid, serving `value` (the
    /// server's snapshot) until the next PUT to `key` crosses. Returns
    /// false when all slots are taken and `key` is not already cached.
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
    const KvCacheStats& stats() const noexcept { return stats_; }

private:
    /// Decode and act on a frame of this service. Kept out of on_frame,
    /// which the mux offers every kv frame: a frame of another service
    /// then costs only the address checks, not this call's stack frame.
    [[gnu::noinline]] Claim on_kv(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                                  std::span<const std::byte> payload, bool toward_server);
    /// Count the hit and answer the GET from `slot`.
    void serve_hit(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                   const KvMessage& msg, std::uint16_t slot);

    sim::HostAddr server_;
    std::size_t slots_;
    dp::ExactMatchTable<Key16, std::uint16_t> index_;  ///< key -> slot
    dp::RegisterArray<WireValue> values_;
    dp::RegisterArray<std::uint32_t> valid_;
    dp::RegisterArray<std::uint32_t> hits_;
    /// (client, seq) tag of the last PUT copy that crossed each slot;
    /// only the original ACK carrying it validates.
    dp::RegisterArray<std::uint64_t> last_put_;
    /// Control-plane shadow of index_ (slot -> key) for hit_counts().
    std::vector<Key16> slot_key_;
    /// Lazily interned trace label for this tenant (0 = not interned).
    std::uint32_t trace_name_id_{0};
    std::vector<std::uint16_t> free_slots_;
    KvCacheStats stats_;
};

}  // namespace daiet::kv
