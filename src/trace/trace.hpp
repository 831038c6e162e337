// Fabric-wide causal frame tracing.
//
// Every frame built while tracing is enabled carries a 64-bit trace id
// in its FrameBuf slab header; because FrameBuf copies share the slab,
// the id rides every refcount bump through link queues, switch fan-out
// and closure captures for free. Instrumented hook points (host tx/rx,
// link enqueue/deliver/drop, ECN marks, tenant dispatch, pipeline
// passes, cache/directory decisions, RetryChannel state changes) append
// compact SpanEvents to a process-wide Tracer, which can later be
// exported as Chrome-trace JSON (export.hpp) or mined for per-request
// forensics (forensics.hpp).
//
// Cost model: tracing is OFF by default and every hook is guarded by
// `trace::enabled()` — a single predictable branch on a plain global.
// No hook allocates, formats or locks when tracing is disabled;
// bench_sim_throughput's untraced trials run with tracing off and must
// be unaffected.
//
// Recording modes:
//   - Full: unbounded append (examples, tests, forensics on small runs).
//   - Ring: fixed-capacity flight recorder keeping only the last N
//     spans — bounded memory for huge runs, still enough tail to
//     autopsy "why did the last request stall".
//
// Parallel simulation (netsim/parallel.hpp): recording state lives in
// *lanes*, one per shard. The worker executing a shard's window binds
// that shard's lane to its thread first, so the hot record() path stays
// lock-free — every mutable field it touches is lane-local and a lane
// is driven by exactly one thread per window. Lanes are bound per
// *shard*, not per thread, so a trace is identical no matter how many
// workers ran it; snapshot() merges lanes by timestamp at export time
// (and hands back the exact record order when only one lane was ever
// used, which keeps single-shard ring semantics bit-for-bit). Only
// intern() takes a mutex — it is off the per-frame fast path (labels
// are cached at their hook sites).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace daiet::trace {

/// Per-frame causal id; 0 means "frame predates tracing / untraced".
using TraceId = std::uint64_t;

enum class EventKind : std::uint8_t {
    // netsim
    kHostTx,        ///< a=request tag (0 if none), b=frame bytes
    kHostRx,        ///< a=0, b=frame bytes
    kLinkEnqueue,   ///< a=queue backlog bytes after enqueue, b=frame bytes
    kLinkDeliver,   ///< a=0, b=frame bytes (stamped with the arrival time)
    kLinkDropQueue, ///< a=queue backlog bytes at drop, b=frame bytes
    kLinkDropLoss,  ///< a=0, b=frame bytes
    kEcnMark,       ///< a=queue backlog bytes, b=frame bytes
    // dataplane / tenancy
    kTenantClaim,   ///< a=interned tenant name, node=switch
    kPipelinePass,  ///< a=interned program name, b=pass index
    // directory + edge tenants
    kDirSteer,      ///< a=request tag, b=owner addr
    kDirNack,       ///< a=request tag
    kEdgeHit,       ///< a=request tag
    kEdgeMiss,      ///< a=request tag
    // kv cache tenant
    kCacheHit,      ///< a=request tag
    kCacheMiss,     ///< a=request tag
    // transport (RetryChannel)
    kRequestSend,   ///< a=request tag, b=attempt (1)
    kRetransmit,    ///< a=request tag, b=attempt (>1)
    kEcnBackoff,    ///< a=request tag, b=deferred-until ns
    kNudge,         ///< a=request tag
    kAbandon,       ///< a=request tag, b=attempts
    kReplyRx,       ///< a=request tag, b=attempts
};

/// Stable lowercase name for exporters ("host.tx", "link.drop.loss", ...).
const char* kind_name(EventKind kind) noexcept;

/// True for kinds whose `a` operand is a transport request tag
/// (client<<32|seq) — the join key request forensics pivots on.
bool kind_carries_tag(EventKind kind) noexcept;

/// One hop-level observation. 40 bytes, POD, no owned memory: ring mode
/// recycles these in place and recording is a couple of stores.
struct SpanEvent {
    std::uint64_t ts{0};   ///< simulated time, ns
    TraceId trace{0};      ///< frame trace id (0 = not frame-bound)
    std::uint64_t a{0};    ///< kind-specific operand (see EventKind)
    std::uint64_t b{0};    ///< kind-specific operand
    std::uint32_t node{0}; ///< interned location name (0 = unknown)
    EventKind kind{EventKind::kHostTx};
};

namespace detail {
/// Backing flag for enabled(); flip only through Tracer.
extern bool g_trace_enabled;
}  // namespace detail

/// The per-hop gate. Inline read of a plain global: when tracing is off
/// this is the *only* cost any hook pays.
inline bool enabled() noexcept { return detail::g_trace_enabled; }

/// Parsed DAIET_TRACE value. Split out of the Tracer constructor so the
/// accepted grammar (full | 1 | ring[:N] | 0 | off | none) is
/// unit-testable without mutating the process singleton; `recognized`
/// is false for junk values (including a ring size strtol cannot
/// represent).
struct TraceEnvConfig {
    enum class Mode { kDisabled, kFull, kRing };
    Mode mode{Mode::kDisabled};
    std::size_t ring_capacity{0};
    bool recognized{true};
};
TraceEnvConfig parse_trace_env(const char* value);
/// parse_trace_env(getenv("DAIET_TRACE")), read once by the Tracer; a
/// junk value exits 2 with a message instead of running untraced.
TraceEnvConfig trace_env();

class Tracer {
public:
    static Tracer& instance();

    /// Unbounded recording (clears previous events).
    void enable_full();
    /// Flight-recorder mode: keep only the last `capacity` spans *per
    /// lane* (one lane exists until a parallel partition adds more).
    void enable_ring(std::size_t capacity);
    /// Stop recording and free all buffers (the default state).
    void disable();
    /// Drop recorded events but keep the current mode.
    void clear();

    bool ring_mode() const noexcept { return ring_; }
    /// Ring capacity per lane (0 when not in ring mode).
    std::size_t capacity() const noexcept { return ring_ ? ring_capacity_ : 0; }
    /// Events currently held across all lanes (≤ lanes × capacity in
    /// ring mode).
    std::size_t size() const noexcept;
    /// Monotonic count of every record() since the last mode change.
    std::uint64_t total_recorded() const noexcept;

    /// Recorded events: exact record order while a single lane was in
    /// use (ring unrolled oldest → newest); with multiple active lanes,
    /// a stable timestamp merge (ties broken by lane, then by record
    /// order within the lane — deterministic, thread-count-independent).
    std::vector<SpanEvent> snapshot() const;

    /// Intern a location/tenant/message name; ids are dense from 1.
    /// Thread-safe (mutex) — hook sites cache the returned id.
    std::uint32_t intern(std::string_view name);
    /// Reverse lookup; returns "?" for 0 / unknown ids.
    const std::string& name_of(std::uint32_t id) const;

    // --- shard lanes (parallel sim) ------------------------------------
    /// Grow the lane set to `n` (never shrinks; lane 0 always exists).
    /// Called by Network::enable_parallel with the shard count.
    void configure_lanes(std::size_t n);
    /// Route this thread's subsequent records into lane `i`. The
    /// parallel driver binds the shard's lane before each window.
    void bind_lane(std::size_t i) noexcept { tl_lane_ = lanes_[i].get(); }
    std::size_t lane_count() const noexcept { return lanes_.size(); }

    /// Append one event. Callers must check trace::enabled() first.
    void record(const SpanEvent& ev) {
        if (!detail::g_trace_enabled) return;
        Lane& l = lane();
        ++l.total;
        if (ring_) {
            l.events[l.ring_next] = ev;
            l.ring_next = (l.ring_next + 1) % l.events.size();
            if (l.held < l.events.size()) ++l.held;
        } else {
            l.events.push_back(ev);
            l.held = l.events.size();
        }
    }

    /// Fresh nonzero frame trace id. Lane-local counters with the lane
    /// index in the top bits: no cross-thread contention, ids stay
    /// unique fabric-wide, and lane 0 (the sequential case) emits the
    /// same dense 1,2,3,... sequence as ever.
    TraceId next_trace_id() noexcept {
        Lane& l = lane();
        return (static_cast<TraceId>(l.index) << 48) | ++l.last_trace_id;
    }

    /// One-shot request-tag annotation: the transport (or a server about
    /// to reply) sets this immediately before a send; Host::send_frame
    /// consumes it into the kHostTx event, binding tag ↔ trace id.
    /// Lane-local: the annotate → send pair always executes within one
    /// shard's window.
    void annotate_next_tx(std::uint64_t tag) noexcept {
        lane().pending_tx_tag = tag;
    }
    std::uint64_t take_tx_annotation() noexcept {
        Lane& l = lane();
        const std::uint64_t tag = l.pending_tx_tag;
        l.pending_tx_tag = 0;
        return tag;
    }

    /// Trace clock for hooks that run inside the dataplane (no Simulator
    /// reference); host/switch frame handlers refresh it on every entry.
    /// Lane-local — each shard's window keeps its own clock.
    void set_now(std::uint64_t ns) noexcept { lane().now = ns; }
    std::uint64_t now() noexcept { return lane().now; }

private:
    Tracer();

    /// All mutable recording state one shard's worker touches while a
    /// window executes. A lane is written by exactly one thread at a
    /// time (the inter-window barrier hands it off), so none of this
    /// needs atomics.
    struct Lane {
        std::size_t index{0};
        std::vector<SpanEvent> events;
        std::size_t ring_next{0};
        std::size_t held{0};
        std::uint64_t total{0};
        TraceId last_trace_id{0};
        std::uint64_t pending_tx_tag{0};
        std::uint64_t now{0};
    };

    Lane& lane() noexcept { return tl_lane_ ? *tl_lane_ : *lanes_[0]; }

    void reset_lane(Lane& l) const;

    bool ring_{false};
    std::size_t ring_capacity_{0};
    std::vector<std::unique_ptr<Lane>> lanes_;  ///< stable addresses
    /// The lane this thread records into; null = lane 0 (the default
    /// for the main thread and every thread that never ran a shard).
    inline static thread_local Lane* tl_lane_{nullptr};

    // Heterogeneous-lookup interner: find() on a string_view never
    // allocates, so re-interning a known name is allocation-free. The
    // mutex serializes shard workers interning lazily mid-window.
    struct SvHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const noexcept {
            return std::hash<std::string_view>{}(s);
        }
    };
    mutable std::mutex intern_mu_;
    std::unordered_map<std::string, std::uint32_t, SvHash, std::equal_to<>> intern_ids_;
    std::vector<std::string> intern_names_;
};

inline Tracer& tracer() { return Tracer::instance(); }

}  // namespace daiet::trace
