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
// Single-threaded: the recording state is plain members, written only
// by the thread running the simulator. The parallel driver
// (netsim/parallel.hpp) refuses to run while tracing is enabled, so no
// hook ever records from a shard worker.
#pragma once

#include <cstddef>
#include <cstdint>
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
    /// Flight-recorder mode: keep only the last `capacity` spans.
    void enable_ring(std::size_t capacity);
    /// Stop recording and free all buffers (the default state).
    void disable();
    /// Drop recorded events but keep the current mode.
    void clear();

    /// Ring capacity (0 when not in ring mode).
    std::size_t capacity() const noexcept { return ring_ ? events_.size() : 0; }
    /// Events currently held (≤ capacity in ring mode).
    std::size_t size() const noexcept { return held_; }
    /// Monotonic count of every record() since the last mode change.
    std::uint64_t total_recorded() const noexcept { return total_; }

    /// Recorded events in record order (ring unrolled oldest → newest).
    std::vector<SpanEvent> snapshot() const;

    /// Intern a location/tenant/message name; ids are dense from 1.
    /// Hook sites call it only behind trace::enabled() and cache the
    /// returned id.
    std::uint32_t intern(std::string_view name);
    /// Reverse lookup; returns "?" for 0 / unknown ids.
    const std::string& name_of(std::uint32_t id) const;

    /// Append one event. Callers must check trace::enabled() first.
    void record(const SpanEvent& ev) {
        if (!detail::g_trace_enabled) return;
        ++total_;
        if (ring_) {
            events_[ring_next_] = ev;
            ring_next_ = (ring_next_ + 1) % events_.size();
            if (held_ < events_.size()) ++held_;
        } else {
            events_.push_back(ev);
            held_ = events_.size();
        }
    }

    /// Fresh nonzero frame trace id: the dense sequence 1, 2, 3, ...
    TraceId next_trace_id() noexcept { return ++last_trace_id_; }

    /// One-shot request-tag annotation: the transport (or a server about
    /// to reply) sets this immediately before a send; Host::send_frame
    /// consumes it into the kHostTx event, binding tag ↔ trace id.
    void annotate_next_tx(std::uint64_t tag) noexcept { pending_tx_tag_ = tag; }
    std::uint64_t take_tx_annotation() noexcept {
        const std::uint64_t tag = pending_tx_tag_;
        pending_tx_tag_ = 0;
        return tag;
    }

    /// Trace clock for hooks that run inside the dataplane (no Simulator
    /// reference); host/switch frame handlers refresh it on every entry.
    void set_now(std::uint64_t ns) noexcept { now_ = ns; }
    std::uint64_t now() const noexcept { return now_; }

private:
    Tracer();

    /// Empty the buffer for `ring_capacity` slots (0 = full mode).
    void reset(std::size_t ring_capacity);

    bool ring_{false};
    std::vector<SpanEvent> events_;
    std::size_t ring_next_{0};
    std::size_t held_{0};
    std::uint64_t total_{0};
    TraceId last_trace_id_{0};
    std::uint64_t pending_tx_tag_{0};
    std::uint64_t now_{0};

    // Heterogeneous-lookup interner: find() on a string_view never
    // allocates, so re-interning a known name is allocation-free.
    struct SvHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const noexcept {
            return std::hash<std::string_view>{}(s);
        }
    };
    std::unordered_map<std::string, std::uint32_t, SvHash, std::equal_to<>> intern_ids_;
    std::vector<std::string> intern_names_;
};

inline Tracer& tracer() { return Tracer::instance(); }

}  // namespace daiet::trace
