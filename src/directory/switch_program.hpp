// The directory dataplane program: the fourth tenant family.
//
// The INSIGHT survey's canonical fourth in-network function after
// aggregation, caching and telemetry: *steering*. A NetCache-style
// cache on one ToR (src/kvcache/) proves the caching primitive but
// funnels every key through a single rack; the directory is what lets
// the kv service shard across N racks while clients keep addressing
// one name. It lives on a spine/core chip that all client->storage
// paths cross and owns a key-range -> rack mapping in switch SRAM:
//
//   GET/PUT toward the service vaddr, range owned
//       -> rewrite the frame's destination to the owning rack's
//          storage server (in-flight header rewrite, the thing
//          switches are *good* at) and re-forward. The rack's own ToR
//          cache and server then see an ordinary kv request.
//   GET/PUT toward the service vaddr, range unowned (mid-migration)
//       -> bounce a NACK to the client, which nudges its RetryChannel
//          into an immediate retransmission; by the time it returns,
//          the migration has flipped the owner. Requests racing a
//          migration self-correct instead of being lost or served
//          stale.
//   PUT toward the service vaddr (owned)
//       -> additionally broadcast a lease INVALIDATE carrying the
//          PUT's (client, seq) tag to every registered edge reply
//          cache. Every write to the service crosses this one chip —
//          the same "natural serialization point" argument that puts
//          the rack cache at the storage ToR — so the directory is the
//          one place that can invalidate client-side leases without a
//          per-rack fan-in.
//
// The owner table and the per-range load counters are SRAM-charged
// register arrays reported through SwitchProgramMux::sram_report, so
// the chip's arbiter sees the directory compete with DAIET aggregation
// and telemetry for the same book. The edge broadcast list is
// control-plane state (installed by the deployment layer, which reads
// egress ports off the shared router out of band) — emitting to a
// preresolved port costs no second routing-table application, which
// the steered packet already spent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tenancy.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "dataplane/register_array.hpp"
#include "directory/protocol.hpp"
#include "kvcache/protocol.hpp"

namespace daiet::dir {

struct DirectoryStats {
    std::uint64_t gets_steered{0};
    std::uint64_t puts_steered{0};
    std::uint64_t nacks{0};              ///< requests bounced mid-migration
    std::uint64_t invalidations_sent{0}; ///< lease INVALIDATE frames emitted
    std::uint64_t foreign_dropped{0};    ///< stray frames at the vaddr, dropped
};

class DirectorySwitchProgram : public TenantProgram {
public:
    /// Reserves the owner table and per-range load counters from the
    /// chip's SRAM book (throws dp::ResourceError when the chip is
    /// full). All ranges start unowned (owner 0 = NACK) until the
    /// DirectoryController installs a mapping.
    DirectorySwitchProgram(dp::PipelineSwitch& chip,
                           std::shared_ptr<FabricRouter> router);

    // --- data plane ---------------------------------------------------------
    Claim on_frame(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                   std::span<const std::byte> payload) override;
    std::vector<std::uint16_t> claim_ports() const override {
        return {kv::kServerUdpPort};
    }
    std::string name() const override { return "directory@svc1"; }
    std::size_t sram_bytes() const override {
        return owners_.footprint_bytes();
    }

    // --- control plane (the DirectoryController's API) ----------------------
    sim::HostAddr service_addr() const noexcept { return kServiceVaddr; }

    /// Point `range` at the storage server `owner` (0 = unowned: the
    /// dataplane NACKs until a new owner is installed — the migration
    /// gate).
    void set_owner(std::size_t range, sim::HostAddr owner);
    sim::HostAddr owner_of(std::size_t range) const { return owners_.peek(range); }
    std::size_t num_ranges() const noexcept { return owners_.size(); }

    /// Register an edge reply cache as an invalidation target:
    /// `vaddr` is its edge_vaddr, `port` the precomputed egress port
    /// toward it (read off the shared router by the deployment layer).
    void add_edge(sim::HostAddr vaddr, dp::PortId port);
    std::size_t num_edges() const noexcept { return edges_.size(); }

    const DirectoryStats& stats() const noexcept { return stats_; }

private:
    /// Decode and steer a frame addressed to the service. Kept out of
    /// on_frame, which the mux offers every kv frame: a frame that is
    /// not the service's then costs only the address checks.
    [[gnu::noinline]] Claim steer(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                                  std::span<const std::byte> payload);
    void send_nack(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                   const kv::KvMessage& msg);
    void broadcast_invalidate(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                              const kv::KvMessage& msg);

    dp::RegisterArray<sim::HostAddr> owners_;     ///< range -> server (0=none)
    std::vector<std::pair<sim::HostAddr, dp::PortId>> edges_;
    DirectoryStats stats_;
    std::uint32_t trace_name_id_{0};  ///< lazily interned name()
};

}  // namespace daiet::dir
