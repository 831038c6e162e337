#include "trace/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "trace/timeseries.hpp"
#include "trace/trace.hpp"

namespace daiet::trace {

namespace {

void append_escaped(std::string& out, const std::string& s) {
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char esc[8];
                    std::snprintf(esc, sizeof esc, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += esc;
                } else {
                    out.push_back(c);
                }
                break;
        }
    }
}

void append_event(std::string& out, const SpanEvent& ev) {
    char buf[256];
    // ts is microseconds in the trace event format; keep ns precision
    // as the fractional part.
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", \"ts\": %" PRIu64
                  ".%03u, \"pid\": %u, \"tid\": %" PRIu64,
                  kind_name(ev.kind), ev.ts / 1000,
                  static_cast<unsigned>(ev.ts % 1000), ev.node, ev.trace);
    out += buf;
    out += ", \"args\": {";
    bool first = true;
    auto arg = [&](const char* key, std::uint64_t value) {
        if (!first) out += ", ";
        first = false;
        std::snprintf(buf, sizeof buf, "\"%s\": %" PRIu64, key, value);
        out += buf;
    };
    arg("trace", ev.trace);
    if (kind_carries_tag(ev.kind) && ev.a != 0) {
        // The a operand is a transport request tag: client<<32 | seq.
        arg("client", ev.a >> 32);
        arg("seq", ev.a & 0xffffffffu);
    } else if (ev.kind == EventKind::kTenantClaim || ev.kind == EventKind::kPipelinePass) {
        if (!first) out += ", ";
        first = false;
        out += "\"program\": \"";
        append_escaped(out, tracer().name_of(static_cast<std::uint32_t>(ev.a)));
        out += "\"";
    } else {
        arg("a", ev.a);
    }
    arg("b", ev.b);
    out += "}}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<SpanEvent>& events) {
    // Stable sort by timestamp: deliveries are recorded at enqueue time
    // with their (future) arrival timestamp, so the raw buffer is not
    // globally time-ordered.
    std::vector<SpanEvent> sorted = events;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const SpanEvent& x, const SpanEvent& y) { return x.ts < y.ts; });

    std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    bool first = true;

    // process_name metadata rows label each fabric location — both
    // instant-event nodes and counter-track homes, so every pid in the
    // file resolves to a name in the Perfetto UI.
    std::set<std::uint32_t> nodes;
    for (const SpanEvent& ev : sorted) nodes.insert(ev.node);
    for (const TimeSeries& s : timeseries().series()) {
        if (s.held() > 0) nodes.insert(tracer().intern(s.node()));
    }
    char buf[256];
    for (const std::uint32_t node : nodes) {
        if (!first) out += ",\n";
        first = false;
        std::snprintf(buf, sizeof buf,
                      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %u, "
                      "\"args\": {\"name\": \"",
                      node);
        out += buf;
        append_escaped(out, tracer().name_of(node));
        out += "\"}}";
    }

    for (const SpanEvent& ev : sorted) {
        if (!first) out += ",\n";
        first = false;
        append_event(out, ev);
    }

    // Counter tracks (ph:"C"): one Perfetto track per series, identity
    // (pid, name). pid comes from the interner, so a node's counter rows
    // share the pid of its instant events.
    for (const TimeSeries& s : timeseries().series()) {
        if (s.held() == 0) continue;
        const std::uint32_t pid = tracer().intern(s.node());
        std::string head = "{\"name\": \"";
        append_escaped(head, s.name());
        head += "\", \"ph\": \"C\", \"pid\": ";
        std::snprintf(buf, sizeof buf, "%u", pid);
        head += buf;
        for (const TsPoint& p : s.snapshot()) {
            if (!first) out += ",\n";
            first = false;
            out += head;
            std::snprintf(buf, sizeof buf,
                          ", \"ts\": %" PRIu64 ".%03u, \"args\": {\"value\": %.6g}}",
                          p.ts / 1000, static_cast<unsigned>(p.ts % 1000), p.value);
            out += buf;
        }
    }
    out += "\n]}\n";
    return out;
}

std::string chrome_trace_json() { return chrome_trace_json(tracer().snapshot()); }

bool write_chrome_trace(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = chrome_trace_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

}  // namespace daiet::trace
