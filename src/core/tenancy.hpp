// Switch-program multi-tenancy: several dataplane programs sharing one
// programmable chip.
//
// The paper's closing argument is that a programmable switch should run
// *application logic in general*, not one hard-wired function; on real
// hardware distinct P4 control blocks are compiled into a single
// pipeline and share the chip's SRAM and its forwarding tables. We
// model that split explicitly:
//
//   * FabricRouter — the one destination-routing table per chip (the
//     "port map"). Plain traffic, DAIET flushes and kv-cache replies
//     all resolve egress ports here, and its SRAM footprint is charged
//     once, not per tenant.
//   * TenantProgram — a dataplane program that owns a slice of the
//     traffic (by address and UDP port) and handles only that slice.
//     One call does both: the tenant checks the frame's addresses and
//     ports, decodes its payload once, and acts on the decoded message
//     — one parser state machine that classifies and extracts, as on
//     hardware. A payload its decoder rejects is not its slice.
//   * SwitchProgramMux — the compiled pipeline of a programmable chip,
//     and the only program one runs: parses once, offers the packet to
//     each tenant in registration order until one claims it, and falls
//     back to plain ECMP forwarding. This is what lets DAIET aggregation
//     and the NetCache-style kv cache coexist on one fabric, arbitrated
//     by a shared SramBook; a chip with one tenant runs a one-tenant mux.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataplane/match_table.hpp"
#include "dataplane/pipeline.hpp"
#include "netsim/headers.hpp"
#include "netsim/switch_node.hpp"

namespace daiet {

/// ECMP next-hop group, sized for trivially-copyable table storage.
/// Unused slots stay zero, so equal sets compare equal.
struct RoutePorts {
    std::array<dp::PortId, 8> ports{};
    std::uint8_t count{0};

    bool operator==(const RoutePorts&) const = default;
};

/// Parser-stage claim pre-filter: the UDP ports any resident tenant
/// might claim traffic on (source or destination), as an inline list.
/// The mux consults it before running the per-tenant claim loop, so
/// frames that no tenant could possibly own — the bulk of plain fabric
/// traffic — skip every tenant's on_frame() call. This is the
/// classification a P4 compiler folds into a handful of parser select
/// cases; it narrows nothing, because a hit still runs the full claim
/// loop.
struct ClaimPortFilter {
    static constexpr std::size_t kMaxPorts = 8;

    std::array<std::uint16_t, kMaxPorts> ports{};
    std::uint8_t count{0};

    /// False when the list is already full: the mux then turns the
    /// filter off, as for an unconstrained tenant.
    bool add(std::uint16_t port) noexcept {
        if (hit(port)) return true;
        if (count == kMaxPorts) return false;
        ports[count++] = port;
        return true;
    }
    bool hit(std::uint16_t port) const noexcept {
        const auto end = ports.begin() + count;
        return std::find(ports.begin(), end, port) != end;
    }
};

/// The chip's destination-routing table plus the ECMP selection logic
/// every resident program shares. One instance per programmable switch;
/// its SRAM footprint, `capacity` routes, is reserved once from the
/// chip's book. Each route is stored once: a host address (below
/// kDenseLimit) as a 2-byte index into the chip's distinct next-hop
/// groups, a switch vaddr (at or above it) in the hash table.
class FabricRouter {
public:
    explicit FabricRouter(dp::SramBook& book, std::size_t capacity = 4096);

    // --- control plane ------------------------------------------------------
    /// Throws dp::ResourceError when `ports` exceeds a next-hop group, a
    /// new destination would exceed the capacity, or the chip would need
    /// more distinct groups than it can index.
    void install(sim::HostAddr dst, std::span<const dp::PortId> ports);

    // --- data plane ---------------------------------------------------------
    /// Route the current packet: ECMP over the 5-tuple via the switch
    /// hash unit, never bouncing out of the ingress port when an
    /// alternative exists. Sets the egress port or marks a drop.
    void forward(dp::PacketContext& ctx, const sim::ParsedFrame& frame) const;

    /// Table lookup for program-emitted packets (charged as one table
    /// application; at most once per pass like any table).
    const RoutePorts* apply(dp::PacketContext& ctx, sim::HostAddr dst) const {
        if (dst < kDenseLimit) {
            // Same op accounting and single-apply rule as the hash
            // table, two array indexes on the per-hop path.
            ctx.note_table_application(table_.name());
            return dense_route(dst);
        }
        return table_.apply(ctx, dst);
    }

    /// Control-plane lookup (not op-charged).
    const RoutePorts* peek(sim::HostAddr dst) const {
        return dst < kDenseLimit ? dense_route(dst) : table_.peek(dst);
    }

    /// Installed destinations, host addresses and vaddrs together.
    std::size_t size() const noexcept { return dense_routes_ + table_.size(); }
    /// SRAM charged for the shared routing table (reserved once per
    /// chip, not per tenant).
    std::size_t sram_bytes() const noexcept { return table_.footprint_bytes(); }

private:
    /// Destinations below this are host addresses (numbered densely from
    /// one) and live in dense_; switch vaddrs sit far above it.
    static constexpr sim::HostAddr kDenseLimit = 1u << 16;
    static constexpr std::uint16_t kNoGroup = 0xffff;  ///< dense_: no route

    const RoutePorts* dense_route(sim::HostAddr dst) const noexcept {
        if (dst >= dense_.size() || dense_[dst] == kNoGroup) return nullptr;
        return &groups_[dense_[dst]];
    }
    /// The groups_ index of `rp`, appending it if it is new.
    std::uint16_t group_of(const RoutePorts& rp);
    /// Hashes the port slots (unused ones are zero); operator== also
    /// compares count.
    struct GroupHash {
        std::size_t operator()(const RoutePorts& rp) const noexcept {
            return std::hash<std::string_view>{}(
                {reinterpret_cast<const char*>(rp.ports.data()), sizeof(rp.ports)});
        }
    };

    /// Holds the vaddr routes; its footprint is the whole router's SRAM.
    dp::ExactMatchTable<sim::HostAddr, RoutePorts> table_;
    /// Host routes, stored as real switches store ECMP: each distinct
    /// next-hop group once, and per destination a 2-byte group index.
    std::vector<RoutePorts> groups_;
    std::unordered_map<RoutePorts, std::uint16_t, GroupHash> group_index_;
    std::vector<std::uint16_t> dense_;
    std::size_t dense_routes_{0};  ///< entries of dense_ that hold a group
};

/// What a tenant did with a frame the mux offered it.
enum class Claim : std::uint8_t {
    kNotMine,   ///< not this tenant's slice: offer it to the next tenant
    kDeclined,  ///< this tenant's, but no rule acts on it: plain forwarding
    kHandled,   ///< consumed, answered or routed by the tenant: pass done
};

/// A co-resident dataplane program: claims its slice of the traffic and
/// processes it against its own registers/tables, resolving ports
/// through the shared FabricRouter. It runs only inside a
/// SwitchProgramMux.
class TenantProgram {
public:
    explicit TenantProgram(std::shared_ptr<FabricRouter> router);
    virtual ~TenantProgram() = default;

    /// The tenant's name in the mux ("daiet", "kvcache@<server>", ...).
    virtual std::string name() const = 0;

    /// Offered every UDP frame that passes the mux's port pre-filter,
    /// until one tenant claims it. The tenant checks the frame's
    /// addresses and ports, decodes the payload once and acts on the
    /// decoded message. kNotMine leaves the frame to the next tenant
    /// and charges no ops; kDeclined (no matching rule on this switch)
    /// sends it to plain forwarding, which keeps partial deployments
    /// correct. A payload the tenant's decoder rejects is kNotMine,
    /// except where the tenant owns the address or port outright (its
    /// own vaddr, the DAIET port): the frame ends there, dropped and
    /// kHandled.
    virtual Claim on_frame(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                           std::span<const std::byte> payload) = 0;

    /// Passive tap run on *every* parsed ingress frame before claim
    /// dispatch — including frames another tenant will consume. This is
    /// how a compiled multi-tenant pipeline really behaves: stat-keeping
    /// control blocks (telemetry) execute on each packet regardless of
    /// which application block terminates it. Ops performed here are
    /// charged to the packet's pass budget. Default: no-op. A tenant
    /// overriding this MUST also override passive_observer() to return
    /// true, or the mux will skip its tap.
    virtual void observe(dp::PacketContext& ctx, const sim::ParsedFrame& frame,
                         std::span<const std::byte> payload) {
        (void)ctx;
        (void)frame;
        (void)payload;
    }

    /// True when observe() is non-trivial for this tenant. The mux only
    /// runs the taps of tenants that return true (the compiled pipeline
    /// contains no stage at all for a tenant without one).
    virtual bool passive_observer() const noexcept { return false; }

    /// The UDP ports that can appear — as source or destination — on a
    /// frame this tenant might claim; advertised once at registration
    /// and folded into the mux's ClaimPortFilter. Empty (the default)
    /// means unconstrained: the mux must offer this tenant every UDP
    /// frame, which disables the chip-wide pre-filter.
    virtual std::vector<std::uint16_t> claim_ports() const { return {}; }

    /// SRAM this tenant's private register/table state charges to the
    /// chip's book (the shared FabricRouter is charged once, not here).
    /// The arbiter-pressure observability behind
    /// SwitchProgramMux::sram_report().
    virtual std::size_t sram_bytes() const = 0;

    FabricRouter& router() noexcept { return *router_; }
    std::shared_ptr<FabricRouter> shared_router() const noexcept { return router_; }

private:
    std::shared_ptr<FabricRouter> router_;
};

/// The pipeline of a multi-tenant chip: parse once, dispatch to the
/// first tenant that claims the packet, fall back to plain forwarding.
class SwitchProgramMux : public dp::PipelineProgram, public sim::RouteSink {
public:
    explicit SwitchProgramMux(std::shared_ptr<FabricRouter> router);

    /// Register a tenant. Tenants are offered packets in registration
    /// order; they must have been built against this mux's router.
    void add_tenant(std::shared_ptr<TenantProgram> tenant);

    TenantProgram* tenant(std::string_view name) const;

    /// Per-tenant SRAM ledger: one (name, bytes) entry per resident
    /// tenant in registration order, plus a trailing "shared:router"
    /// entry for the chip-wide routing table. Summing the bytes yields
    /// exactly what the tenants charged to the chip's SramBook — the
    /// arbiter pressure made visible.
    std::vector<std::pair<std::string, std::size_t>> sram_report() const;

    void on_packet(dp::PacketContext& ctx) override;
    std::string name() const override;
    void install_route(sim::HostAddr dst, std::span<const dp::PortId> ports) override {
        router_->install(dst, ports);
    }

private:
    std::shared_ptr<FabricRouter> router_;
    std::vector<std::shared_ptr<TenantProgram>> tenants_;
    /// Borrowed views of tenants_, in registration order — the per-hop
    /// dispatch loop iterates these instead of chasing shared_ptrs.
    std::vector<TenantProgram*> tenants_raw_;
    /// Tenants whose observe() tap is non-trivial (registration order).
    std::vector<TenantProgram*> observers_raw_;
    /// Union of every tenant's claim_ports(); valid only while all
    /// resident tenants advertise a port set.
    ClaimPortFilter claim_filter_;
    bool claim_filter_valid_{true};
};

/// Shared parser front end: Ethernet -> IPv4 -> UDP/TCP with the same
/// per-header op charges a P4 parser would incur. Returns the context's
/// parse cache, valid for the rest of the pass, or nullptr (and marks a
/// drop) for frames the fabric cannot carry.
const sim::ParsedFrame* parse_frame_with_ops(dp::PacketContext& ctx);

}  // namespace daiet
