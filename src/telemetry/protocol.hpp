// Telemetry wire protocol: probes and reports.
//
// The third tenant family's traffic slice. A TelemetryCollector host
// polls each programmable switch by sending a PROBE datagram to the
// switch's *virtual address* (switches are not hosts, but the fabric
// installs routes toward a per-chip control address — the way real
// switch CPUs get an in-band management IP). The resident telemetry
// tenant consumes the probe and answers with a burst of REPORT frames
// carrying the window's summary counters, per-port queue statistics
// and the heavy-hitter key list with count-min estimates.
//
// Every message is a single fixed-layout UDP payload, parseable within
// a P4 parser budget like the DAIET and kv formats:
//
//   magic(2) op(1) count(1) switch(4) window(4) = 12 B header
//   + `count` fixed-size records (op-dependent; see below)
//
// Reports are deliberately fire-and-forget: a probe or report lost on
// a lossy fabric costs one observation window, never correctness —
// the collector just merges the next window. Telemetry rides the same
// loss philosophy as the paper's aggregation protocol: the *data*
// plane must be exact, the *observability* plane may be sampled.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/fixed_key.hpp"
#include "netsim/headers.hpp"
#include "netsim/node.hpp"

namespace daiet::telemetry {

inline constexpr std::uint16_t kTelemetryMagic = 0x7E1E;

/// UDP port probes are addressed to (on a switch's virtual address) and
/// reports are sourced from.
inline constexpr std::uint16_t kTelemetryUdpPort = 5200;

/// UDP port the collector binds for reports.
inline constexpr std::uint16_t kCollectorUdpPort = 5201;

/// Virtual ("in-band management") address of a switch chip. Well above
/// any host address — hosts are numbered from 1 — so the two spaces
/// can share the fabric's routing tables.
inline constexpr sim::HostAddr kSwitchAddrBase = 0xF0000000u;

constexpr sim::HostAddr switch_vaddr(sim::NodeId node) noexcept {
    return kSwitchAddrBase | node;
}

enum class TelemetryOp : std::uint8_t {
    kProbe = 1,      ///< collector -> switch: report and reset the window
    kSummary = 2,    ///< switch -> collector: window totals
    kPortStats = 3,  ///< switch -> collector: per-port records
    kHotKeys = 4,    ///< switch -> collector: heavy-hitter records
};

/// Window totals (one record in a kSummary report).
struct SummaryRecord {
    std::uint64_t frames_observed{0};  ///< ingress frames this window
    std::uint64_t bytes_observed{0};
    std::uint32_t kv_gets{0};  ///< sketch updates by op
    std::uint32_t kv_puts{0};
    std::uint32_t hot_logged{0};   ///< heavy-hitter log appends
    std::uint32_t hot_dropped{0};  ///< appends refused (log full)

    friend bool operator==(const SummaryRecord&, const SummaryRecord&) noexcept =
        default;
};

/// One egress queue + ingress counter pair (kPortStats).
struct PortStatRecord {
    std::uint16_t port{0};
    std::uint32_t frames{0};  ///< ingress frames this window
    std::uint64_t bytes{0};   ///< ingress bytes this window
    std::uint32_t queue_drops{0};     ///< egress drop-tail drops this window
    std::uint32_t loss_drops{0};      ///< egress injected losses this window
    std::uint32_t ecn_marks{0};       ///< egress CE stamps this window
    std::uint32_t backlog_bytes{0};   ///< egress backlog at poll time
    std::uint32_t watermark_bytes{0};  ///< egress backlog peak this window

    friend bool operator==(const PortStatRecord&, const PortStatRecord&) noexcept =
        default;
};

/// One heavy hitter (kHotKeys): a key plus its count-min estimate.
struct HotKeyRecord {
    Key16 key{};
    std::uint32_t estimate{0};

    friend bool operator==(const HotKeyRecord&, const HotKeyRecord&) noexcept =
        default;
};

/// A parsed telemetry message; exactly one of the payload vectors (or
/// `summary`) is populated, per `op`.
struct TelemetryMessage {
    TelemetryOp op{TelemetryOp::kProbe};
    sim::NodeId switch_node{0};
    std::uint32_t window{0};
    SummaryRecord summary{};
    std::vector<PortStatRecord> ports;
    std::vector<HotKeyRecord> hot_keys;
};

inline constexpr std::size_t kTelemetryHeaderSize = 2 + 1 + 1 + 4 + 4;
inline constexpr std::size_t kSummaryRecordSize = 8 + 8 + 4 + 4 + 4 + 4;
inline constexpr std::size_t kPortStatRecordSize = 2 + 4 + 8 + 4 + 4 + 4 + 4 + 4;
inline constexpr std::size_t kHotKeyRecordSize = Key16::width + 4;

/// Records per report frame, keeping every frame comfortably under the
/// fabric MTU (34 * 34 B < 1.2 KB; 48 * 20 B < 1 KB).
inline constexpr std::size_t kMaxPortStatsPerFrame = 34;
inline constexpr std::size_t kMaxHotKeysPerFrame = 48;

std::vector<std::byte> serialize_probe(sim::NodeId switch_node,
                                       std::uint32_t window);
std::vector<std::byte> serialize_summary(sim::NodeId switch_node,
                                         std::uint32_t window,
                                         const SummaryRecord& summary);
/// `ports`/`keys` must fit one frame (kMax*PerFrame).
std::vector<std::byte> serialize_port_stats(sim::NodeId switch_node,
                                            std::uint32_t window,
                                            std::span<const PortStatRecord> ports);
std::vector<std::byte> serialize_hot_keys(sim::NodeId switch_node,
                                          std::uint32_t window,
                                          std::span<const HotKeyRecord> keys);

/// The telemetry message a payload carries, or nothing when it has
/// another magic, names an unknown op or is shorter than its header
/// plus the records its op and count call for.
std::optional<TelemetryMessage> decode_telemetry(
    std::span<const std::byte> payload) noexcept;

}  // namespace daiet::telemetry
