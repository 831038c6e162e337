// The edge reply cache: lease-based caching at the *client's* ToR.
//
// The rack cache (src/kvcache/) sits where every request must go; the
// edge cache sits where the clients are, so a hit saves the whole
// fabric round trip. The price is that writes do NOT cross this switch
// (a PUT from a client behind another edge is invisible here), so the
// directory broadcasts an INVALIDATE for every PUT it passes.
//
// Each slot keeps a key, a value, a lease clock (expiry; 0 = invalid)
// and one admission ticket, fwd_tag: the (client, seq) tag of the last
// GET forwarded from the slot. Voiding a ticket sets its bit 63 (no
// client tag has it: host ids stay far below 2^31). The whole rule:
//
//   GET  from a client, key resident, granted,
//        lease running                     -> reply from switch (hit)
//   GET  from a client, otherwise          -> miss (`expired` if the
//                                             lease ran out), ticket =
//                                             tag, on to the directory
//   PUT  from a client                     -> invalidate, on its way
//   INVALIDATE frame, tag not seen         -> invalidate, remember tag
//   INVALIDATE frame, tag seen             -> skip (replayed broadcast)
//   invalidate                             -> void the slot's ticket,
//                                             clear the key's entry
//   GET_REPLY original found, ticket == tag,
//        granted, no live colliding lease  -> install, lease = now+ttl
//   GET_REPLY, ticket == tag | void        -> refuse (stale_refused)
//   GET_REPLY otherwise                    -> pass, install nothing
//   revoke(range)                          -> ungrant, void every
//                                             ticket, clear the range
//
// Why a reply that still holds its ticket is fresh: its GET was
// forwarded after the last invalidation of the slot arrived here, so
// it crossed the directory after that invalidation's PUT did (the
// INVALIDATE had already covered the directory->edge stretch when the
// GET started its edge->directory stretch), and the single
// directory->rack path is FIFO, so the server answered it post-write.
// The known gap: a retransmitted GET re-arms its own voided ticket, so
// its original copy's reply, sampled before the invalidation, also
// installs. Only a per-transmission index echoed in replies can tell
// the two copies apart. Why only the newest ticket: two clients' replies for one key can
// return over different spines and reorder; GETs forwarded later are
// served later by the (serializing) server, so keeping only the newest
// reply keeps slot values monotone in server order. A replayed reply
// (kKvFlagReplay) may predate writes that have passed the directory
// since, the same rule as the rack cache.
//
// The lease TTL bounds the damage of the one failure no message can
// fix, an edge the invalidation cannot reach. Leases are granted per
// key range by the DirectoryController, which revokes a range before
// migrating it (no stale read across a live migration) and re-grants
// it after the flip. The grant check at install is not redundant with
// the voided tickets: a GET retransmitted after the revocation re-arms
// its own ticket, and its original reply, sampled before the
// revocation, would then install.
//
// The cache is direct-mapped and reactive: replies passing toward this
// edge's clients install themselves, no controller involvement per
// key. Collisions never evict a live lease (stability beats recency at
// the edge; the rack cache already absorbs the fat head of the
// distribution).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/tenancy.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "dataplane/register_array.hpp"
#include "directory/config.hpp"
#include "directory/protocol.hpp"
#include "kvcache/protocol.hpp"

namespace daiet::dir {

struct EdgeCacheStats {
    std::uint64_t gets_seen{0};
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t expired{0};        ///< lease ran out (counted in misses)
    std::uint64_t replies_seen{0};
    std::uint64_t cached{0};         ///< replies installed
    std::uint64_t stale_refused{0};  ///< replies whose ticket was voided
    std::uint64_t invalidations{0};  ///< entries cleared (frames or inline PUT)
    std::uint64_t duplicate_invalidations{0};  ///< replayed frames skipped
    std::uint64_t revocations{0};    ///< control-plane range revokes applied

    double hit_rate() const noexcept {
        return gets_seen == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(gets_seen);
    }
};

class EdgeCacheSwitchProgram : public TenantProgram {
public:
    /// Reserves every register from the chip's SRAM book (throws
    /// dp::ResourceError when the chip is full). config.slots and
    /// config.lease_ttl must be > 0. `node` is the switch
    /// this chip sits in: the tenant consumes invalidations addressed
    /// to edge_vaddr(node.id()) and reads the chip's clock for lease
    /// expiry. It fronts the traffic to kServiceVaddr.
    EdgeCacheSwitchProgram(EdgeCacheConfig config, sim::Node& node,
                           dp::PipelineSwitch& chip,
                           std::shared_ptr<FabricRouter> router);

    /// Cells in the (client, seq) tag filter that recognizes replayed
    /// lease invalidations (a retransmitted PUT re-crossing the
    /// directory re-broadcasts its invalidation).
    static constexpr std::size_t kInvalDedupCells = 1024;

    // --- data plane ---------------------------------------------------------
    Claim on_frame(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                   std::span<const std::byte> payload) override;
    /// Invalidations arrive on the directory port, client requests on
    /// the kv server port.
    std::vector<std::uint16_t> claim_ports() const override {
        return {kDirectoryUdpPort, kv::kServerUdpPort};
    }
    std::string name() const override {
        return "edgecache@" + std::to_string(node_->id());
    }
    std::size_t sram_bytes() const override {
        return keys_.footprint_bytes() + values_.footprint_bytes() +
               expiry_.footprint_bytes() + fwd_tag_.footprint_bytes() +
               granted_.footprint_bytes() + inval_seen_.footprint_bytes();
    }

    // --- control plane (deployment + DirectoryController) -------------------
    sim::HostAddr vaddr() const noexcept { return edge_vaddr(node_->id()); }

    /// Register a client host this edge fronts (claims are scoped to
    /// this set, so several edges can share a fabric).
    void add_client(sim::HostAddr client) { clients_.insert(client); }
    bool fronts(sim::HostAddr client) const { return clients_.contains(client); }

    /// Lease administration, per key range. revoke() also voids every
    /// slot's ticket, which refuses every in-flight reply: nothing
    /// sampled before the revocation can install after it.
    void grant(std::size_t range);
    void revoke(std::size_t range);
    bool granted(std::size_t range) const { return granted_.peek(range) != 0; }

    /// The resident entry for `key`, if any and still valid (tests).
    bool holds(const Key16& key) const;

    const EdgeCacheStats& stats() const noexcept { return stats_; }
    const EdgeCacheConfig& config() const noexcept { return config_; }

private:
    /// Decode and act on what on_frame classified as this edge's. Kept
    /// out of on_frame, which the mux offers every kv frame: a frame
    /// that is not this edge's then costs only the address checks.
    [[gnu::noinline]] Claim on_invalidation(dp::PacketContext& ctx,
                                            std::span<const std::byte> payload);
    [[gnu::noinline]] Claim on_kv(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                                  std::span<const std::byte> payload, bool toward_service);
    std::size_t slot_of(dp::PacketContext& ctx, const Key16& key) const;
    void apply_invalidate(dp::PacketContext& ctx, const Key16& key);
    sim::SimTime now() const noexcept;

    EdgeCacheConfig config_;
    sim::Node* node_;
    std::unordered_set<sim::HostAddr> clients_;

    // Direct-mapped reply cache (slot = scrambled hash of the key).
    dp::RegisterArray<Key16> keys_;
    dp::RegisterArray<WireValue> values_;
    dp::RegisterArray<sim::SimTime> expiry_;     ///< lease deadline; 0 = invalid
    dp::RegisterArray<std::uint64_t> fwd_tag_;   ///< admission ticket per slot
    dp::RegisterArray<std::uint32_t> granted_;   ///< lease grant per range
    dp::RegisterArray<std::uint64_t> inval_seen_; ///< replayed-INVALIDATE filter
    EdgeCacheStats stats_;
    std::uint32_t trace_name_id_{0};  ///< lazily interned name()
};

}  // namespace daiet::dir
