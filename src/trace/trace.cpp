#include "trace/trace.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>


namespace daiet::trace {

namespace detail {
bool g_trace_enabled = false;
}  // namespace detail

const char* kind_name(EventKind kind) noexcept {
    switch (kind) {
        case EventKind::kHostTx: return "host.tx";
        case EventKind::kHostRx: return "host.rx";
        case EventKind::kLinkEnqueue: return "link.enqueue";
        case EventKind::kLinkDeliver: return "link.deliver";
        case EventKind::kLinkDropQueue: return "link.drop.queue";
        case EventKind::kLinkDropLoss: return "link.drop.loss";
        case EventKind::kEcnMark: return "link.ecn.mark";
        case EventKind::kTenantClaim: return "tenant.claim";
        case EventKind::kPipelinePass: return "pipeline.pass";
        case EventKind::kDirSteer: return "dir.steer";
        case EventKind::kDirNack: return "dir.nack";
        case EventKind::kEdgeHit: return "edge.hit";
        case EventKind::kEdgeMiss: return "edge.miss";
        case EventKind::kCacheHit: return "cache.hit";
        case EventKind::kCacheMiss: return "cache.miss";
        case EventKind::kRequestSend: return "req.send";
        case EventKind::kRetransmit: return "req.retransmit";
        case EventKind::kEcnBackoff: return "req.ecn_backoff";
        case EventKind::kNudge: return "req.nudge";
        case EventKind::kAbandon: return "req.abandon";
        case EventKind::kReplyRx: return "req.reply";
    }
    return "?";
}

bool kind_carries_tag(EventKind kind) noexcept {
    switch (kind) {
        case EventKind::kHostTx:  // a may be 0 when the tx was unannotated
        case EventKind::kDirSteer:
        case EventKind::kDirNack:
        case EventKind::kEdgeHit:
        case EventKind::kEdgeMiss:
        case EventKind::kCacheHit:
        case EventKind::kCacheMiss:
        case EventKind::kRequestSend:
        case EventKind::kRetransmit:
        case EventKind::kEcnBackoff:
        case EventKind::kNudge:
        case EventKind::kAbandon:
        case EventKind::kReplyRx:
            return true;
        default:
            return false;
    }
}

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

TraceEnvConfig parse_trace_env(const char* value) {
    TraceEnvConfig cfg;
    if (value == nullptr || *value == '\0') return cfg;
    if (std::strcmp(value, "full") == 0 || std::strcmp(value, "1") == 0) {
        cfg.mode = TraceEnvConfig::Mode::kFull;
        return cfg;
    }
    if (std::strcmp(value, "0") == 0 || std::strcmp(value, "off") == 0 ||
        std::strcmp(value, "none") == 0) {
        return cfg;  // explicitly disabled
    }
    if (std::strncmp(value, "ring", 4) == 0) {
        if (value[4] == '\0') {
            cfg.mode = TraceEnvConfig::Mode::kRing;
            cfg.ring_capacity = 1u << 16;
            return cfg;
        }
        if (value[4] == ':') {
            char* end = nullptr;
            errno = 0;
            const long parsed = std::strtol(value + 5, &end, 10);
            if (parsed > 0 && errno != ERANGE && end != value + 5 && *end == '\0') {
                cfg.mode = TraceEnvConfig::Mode::kRing;
                cfg.ring_capacity = static_cast<std::size_t>(parsed);
                return cfg;
            }
        }
    }
    cfg.recognized = false;
    return cfg;
}

TraceEnvConfig trace_env() {
    const char* env = std::getenv("DAIET_TRACE");
    const TraceEnvConfig cfg = parse_trace_env(env);
    if (!cfg.recognized) {
        std::fprintf(stderr,
                     "DAIET_TRACE=\"%s\" not recognized (want full | 1 | ring[:N] | 0 | off | none)\n",
                     env);
        std::exit(2);
    }
    return cfg;
}

namespace {
// Check the operator switch at startup, so a junk value exits before
// any work rather than at the first trace call, which some binaries
// never make. Every binary that links a trace hook runs this.
[[maybe_unused]] const bool g_env_checked = (trace_env(), true);
}  // namespace

Tracer::Tracer() {
    intern_names_.emplace_back("?");  // id 0 = unknown
    // Operator switch: DAIET_TRACE=full | ring[:N] | 1 enables tracing
    // for any binary without code changes (1 == full).
    const TraceEnvConfig cfg = trace_env();
    if (cfg.mode == TraceEnvConfig::Mode::kFull) {
        enable_full();
    } else if (cfg.mode == TraceEnvConfig::Mode::kRing) {
        enable_ring(cfg.ring_capacity);
    }
}

void Tracer::reset(std::size_t ring_capacity) {
    ring_ = ring_capacity > 0;
    if (ring_) {
        events_.assign(ring_capacity, SpanEvent{});
    } else {
        events_.clear();
        if (!detail::g_trace_enabled) events_.shrink_to_fit();
    }
    ring_next_ = 0;
    held_ = 0;
    total_ = 0;
    pending_tx_tag_ = 0;
}

void Tracer::enable_full() {
    detail::g_trace_enabled = true;
    reset(0);
}

void Tracer::enable_ring(std::size_t capacity) {
    detail::g_trace_enabled = true;
    reset(capacity == 0 ? 1 : capacity);
}

void Tracer::disable() {
    detail::g_trace_enabled = false;
    reset(0);
}

void Tracer::clear() {
    if (!ring_) events_.clear();
    ring_next_ = 0;
    held_ = 0;
    total_ = 0;
    pending_tx_tag_ = 0;
}

std::vector<SpanEvent> Tracer::snapshot() const {
    // Ring: once wrapped, the oldest entry sits at ring_next_.
    const auto split = static_cast<std::ptrdiff_t>(
        ring_ && held_ == events_.size() ? ring_next_ : 0);
    std::vector<SpanEvent> out;
    out.reserve(held_);
    out.insert(out.end(), events_.begin() + split,
               events_.begin() + static_cast<std::ptrdiff_t>(held_));
    out.insert(out.end(), events_.begin(), events_.begin() + split);
    return out;
}

std::uint32_t Tracer::intern(std::string_view name) {
    auto it = intern_ids_.find(name);
    if (it != intern_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(intern_names_.size());
    intern_names_.emplace_back(name);
    intern_ids_.emplace(intern_names_.back(), id);
    return id;
}

const std::string& Tracer::name_of(std::uint32_t id) const {
    if (id >= intern_names_.size()) return intern_names_.front();
    return intern_names_[id];
}

}  // namespace daiet::trace
