#include "trace/trace.hpp"

#include <algorithm>
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
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->index = 0;
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

void Tracer::reset_lane(Lane& l) const {
    if (ring_) {
        l.events.assign(ring_capacity_, SpanEvent{});
    } else {
        l.events.clear();
        if (!detail::g_trace_enabled) l.events.shrink_to_fit();
    }
    l.ring_next = 0;
    l.held = 0;
    l.total = 0;
    l.pending_tx_tag = 0;
}

void Tracer::configure_lanes(std::size_t n) {
    while (lanes_.size() < n) {
        lanes_.push_back(std::make_unique<Lane>());
        Lane& l = *lanes_.back();
        l.index = lanes_.size() - 1;
        // New lanes join in the current mode (a ring lane needs its
        // fixed buffer up front).
        if (ring_) l.events.assign(ring_capacity_, SpanEvent{});
    }
}

void Tracer::enable_full() {
    ring_ = false;
    ring_capacity_ = 0;
    detail::g_trace_enabled = true;
    for (auto& l : lanes_) reset_lane(*l);
}

void Tracer::enable_ring(std::size_t capacity) {
    if (capacity == 0) capacity = 1;
    ring_ = true;
    ring_capacity_ = capacity;
    detail::g_trace_enabled = true;
    for (auto& l : lanes_) reset_lane(*l);
}

void Tracer::disable() {
    detail::g_trace_enabled = false;
    ring_ = false;
    ring_capacity_ = 0;
    for (auto& l : lanes_) reset_lane(*l);
}

void Tracer::clear() {
    for (auto& l : lanes_) {
        if (ring_) {
            l->ring_next = 0;
        } else {
            l->events.clear();
        }
        l->held = 0;
        l->total = 0;
        l->pending_tx_tag = 0;
    }
}

std::size_t Tracer::size() const noexcept {
    std::size_t n = 0;
    for (const auto& l : lanes_) n += l->held;
    return n;
}

std::uint64_t Tracer::total_recorded() const noexcept {
    std::uint64_t n = 0;
    for (const auto& l : lanes_) n += l->total;
    return n;
}

std::vector<SpanEvent> Tracer::snapshot() const {
    // Unroll one lane into record order (ring: oldest entry at ring_next).
    const auto unroll = [this](const Lane& l, std::vector<SpanEvent>& out) {
        if (ring_ && l.held == l.events.size() && l.held > 0) {
            out.insert(out.end(),
                       l.events.begin() + static_cast<std::ptrdiff_t>(l.ring_next),
                       l.events.end());
            out.insert(out.end(), l.events.begin(),
                       l.events.begin() + static_cast<std::ptrdiff_t>(l.ring_next));
        } else {
            out.insert(out.end(), l.events.begin(),
                       l.events.begin() + static_cast<std::ptrdiff_t>(l.held));
        }
    };

    std::size_t active = 0;
    const Lane* only = nullptr;
    for (const auto& l : lanes_) {
        if (l->held > 0) {
            ++active;
            only = l.get();
        }
    }
    std::vector<SpanEvent> out;
    out.reserve(size());
    if (active <= 1) {
        // Single-lane history (every sequential run): exact record
        // order, bit-identical to the pre-lane tracer.
        if (only != nullptr) unroll(*only, out);
        return out;
    }
    // Multiple shards recorded: stable timestamp merge, ties broken by
    // lane index then by record order — the same result no matter how
    // many threads drove the shards.
    std::vector<std::uint32_t> lane_of;
    for (const auto& l : lanes_) {
        if (l->held == 0) continue;
        unroll(*l, out);
        lane_of.resize(out.size(), static_cast<std::uint32_t>(l->index));
    }
    std::vector<std::size_t> order(out.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         if (out[a].ts != out[b].ts) return out[a].ts < out[b].ts;
                         return lane_of[a] < lane_of[b];
                     });
    std::vector<SpanEvent> merged;
    merged.reserve(out.size());
    for (const std::size_t i : order) merged.push_back(out[i]);
    return merged;
}

std::uint32_t Tracer::intern(std::string_view name) {
    const std::lock_guard<std::mutex> lock{intern_mu_};
    auto it = intern_ids_.find(name);
    if (it != intern_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(intern_names_.size());
    intern_names_.emplace_back(name);
    intern_ids_.emplace(intern_names_.back(), id);
    return id;
}

const std::string& Tracer::name_of(std::uint32_t id) const {
    const std::lock_guard<std::mutex> lock{intern_mu_};
    if (id >= intern_names_.size()) return intern_names_.front();
    return intern_names_[id];
}

}  // namespace daiet::trace
