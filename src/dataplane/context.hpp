// Per-packet execution context: the interface a dataplane program uses
// to touch switch state, and the place where the architectural limits of
// the RMT machine model are enforced.
//
// Paper §2, "Few operations per packet": programs get tens of
// nanoseconds per packet, so the number of primitive operations per
// pipeline pass is bounded and loops are impossible; the only escape
// hatch is recirculation, which costs forwarding capacity. We model this
// with an operation counter that throws once a pass exceeds its budget,
// and an explicit recirculate() primitive.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "dataplane/packet.hpp"
#include "netsim/headers.hpp"

namespace daiet::dp {

/// Thrown when a program exceeds the per-pass operation budget or
/// re-applies a table: both are compile-time rejections on a real P4
/// target, surfaced here at the first offending packet.
class PipelineError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Categories of primitive operations, for per-category accounting.
enum class OpKind : std::uint8_t {
    kParse = 0,     ///< header/field extraction
    kHash,          ///< hash unit invocation
    kRegisterRead,  ///< stateful register read
    kRegisterWrite, ///< stateful register write
    kAlu,           ///< arithmetic/boolean op on metadata
    kTableApply,    ///< match-action table lookup
    kCount_         ///< sentinel
};

struct OpCounters {
    std::uint64_t by_kind[static_cast<std::size_t>(OpKind::kCount_)]{};

    std::uint64_t total() const noexcept {
        std::uint64_t t = 0;
        for (const auto v : by_kind) t += v;
        return t;
    }

    std::uint64_t of(OpKind k) const noexcept {
        return by_kind[static_cast<std::size_t>(k)];
    }
};

class PacketContext {
public:
    PacketContext(Packet& packet, std::uint32_t ops_per_pass_budget)
        : packet_{&packet}, budget_{ops_per_pass_budget} {}

    /// Unbound context for reuse across packets: one per thread, shared
    /// by every pipeline on it and rebind()-ed per packet.
    PacketContext() = default;

    /// Point at a new packet under its pipeline's per-pass budget and
    /// clear all cross-pass state; begin_pass() still clears the
    /// per-pass state before the first pass runs.
    void rebind(Packet& packet, std::uint32_t ops_per_pass_budget) noexcept {
        packet_ = &packet;
        budget_ = ops_per_pass_budget;
        total_ops_ = OpCounters{};
        emitted_.clear();
        parsed_frame_valid_ = false;
    }

    PacketContext(const PacketContext&) = delete;
    PacketContext& operator=(const PacketContext&) = delete;

    Packet& packet() noexcept { return *packet_; }
    const Packet& packet() const noexcept { return *packet_; }

    /// Record one primitive operation; throws PipelineError when the
    /// per-pass budget is exhausted (budget 0 = unlimited).
    void count_op(OpKind kind) { count_ops(kind, 1); }

    /// Record `n` operations of one kind at once: a program that knows a
    /// packet's per-pair charges adds them up and charges them per
    /// packet. Same totals and the same budget check as `n` count_op
    /// calls.
    void count_ops(OpKind kind, std::uint64_t n) {
        pass_ops_.by_kind[static_cast<std::size_t>(kind)] += n;
        total_ops_.by_kind[static_cast<std::size_t>(kind)] += n;
        pass_total_ += n;
        if (budget_ != 0 && pass_total_ > budget_) {
            throw PipelineError{"per-pass operation budget (" +
                                std::to_string(budget_) + ") exceeded"};
        }
    }

    /// Hash primitive (CRC-32 flavoured, as provided by P4 targets).
    std::uint32_t hash(std::span<const std::byte> data) {
        count_op(OpKind::kHash);
        return Crc32::compute(data);
    }

    /// Enforce the "a table can be applied at most once per packet"
    /// constraint the paper calls out in §5. `table_name` must outlive
    /// the pass (table names are stable members of their tables).
    void note_table_application(std::string_view table_name) {
        count_op(OpKind::kTableApply);
        // A pass applies a handful of tables; a linear scan over an
        // inline array beats hashing heap strings and allocates nothing.
        for (std::size_t i = 0; i < applied_count_; ++i) {
            if (applied_inline_[i] == table_name) {
                throw PipelineError{"table '" + std::string{table_name} +
                                    "' applied more than once in a single pass"};
            }
        }
        for (const std::string_view name : applied_overflow_) {
            if (name == table_name) {
                throw PipelineError{"table '" + std::string{table_name} +
                                    "' applied more than once in a single pass"};
            }
        }
        if (applied_count_ < applied_inline_.size()) {
            applied_inline_[applied_count_++] = table_name;
        } else {
            applied_overflow_.push_back(table_name);
        }
    }

    /// Queue a brand-new packet for emission from this switch (used by
    /// DAIET to flush spillover buckets and aggregated state).
    void emit(Packet p) { emitted_.push_back(std::move(p)); }

    /// Request that the current packet re-enter the ingress pipeline
    /// after this pass (models P4 recirculation; costs capacity).
    void recirculate() noexcept { recirculate_requested_ = true; }

    void mark_drop() noexcept { packet_->meta().drop = true; }
    void set_egress(PortId port) noexcept { packet_->meta().egress_port = port; }

    // --- parsed-header reuse ----------------------------------------------
    // The packet's headers are parsed once per pipeline entry and reused
    // across tenants and recirculation passes (the op *charge* for the
    // parse stages still lands on every pass — the RMT cost model is
    // unchanged, only the host-side byte extraction is skipped). A
    // program that rewrites headers in place must invalidate the cache.

    /// The cached parse of the current packet's headers, or nullptr.
    const sim::ParsedFrame* cached_parsed_frame() const noexcept {
        return parsed_frame_valid_ ? &parsed_frame_ : nullptr;
    }
    /// Parse the current packet's headers straight into the cache and
    /// return it; nullptr (cache left invalid) for a non-IPv4 frame.
    /// Throws BufferError on a truncated frame, like sim::parse_frame.
    const sim::ParsedFrame* parse_into_cache() {
        parsed_frame_valid_ = sim::parse_frame_into(packet_->payload(), parsed_frame_);
        return cached_parsed_frame();
    }
    /// Call after any in-place header rewrite (e.g. the directory
    /// tenant's IPv4 destination rewrite).
    void invalidate_parsed_frame() noexcept { parsed_frame_valid_ = false; }

    // --- pipeline-internal hooks -----------------------------------------
    void begin_pass() noexcept {
        pass_ops_ = OpCounters{};
        pass_total_ = 0;
        applied_count_ = 0;
        applied_overflow_.clear();
        recirculate_requested_ = false;
    }
    bool recirculate_requested() const noexcept { return recirculate_requested_; }
    std::vector<Packet>& emitted() noexcept { return emitted_; }
    const OpCounters& pass_ops() const noexcept { return pass_ops_; }
    const OpCounters& total_ops() const noexcept { return total_ops_; }

private:
    Packet* packet_{nullptr};
    std::uint32_t budget_{0};
    OpCounters pass_ops_{};
    /// Running pass total, so the budget check is O(1) per op instead
    /// of a scan over every op kind.
    std::uint64_t pass_total_{0};
    OpCounters total_ops_{};
    /// Applied-table names, inline up to 16 then spilling.
    std::array<std::string_view, 16> applied_inline_{};
    std::size_t applied_count_{0};
    std::vector<std::string_view> applied_overflow_;
    std::vector<Packet> emitted_;
    bool recirculate_requested_{false};
    /// Parsed-header cache (see cached_parsed_frame()).
    sim::ParsedFrame parsed_frame_{};
    bool parsed_frame_valid_{false};
};

}  // namespace daiet::dp
