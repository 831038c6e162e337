// Minimal leveled logger. Experiments print their results through the
// table helpers; the logger is for diagnostics only and is silent at the
// default level so benchmark output stays machine-parsable.
//
// The level defaults to warn and can be raised/lowered without a
// rebuild via DAIET_LOG_LEVEL (error|warn|info|debug or 0-3), parsed
// once on first use; any other value exits 2. When tracing is enabled
// (trace/trace.hpp), every warning and error is additionally recorded
// into the trace flight recorder as an instant event, so an exported
// trace carries the diagnostics that fired during the run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

namespace daiet {

// Declared here (defined in trace/trace.cpp) so routing a warning into
// the trace costs one extern-bool read and common/ never includes
// trace/ headers.
namespace trace {
namespace detail {
extern bool g_trace_enabled;
}  // namespace detail
void log_instant(int level, std::string_view message);
}  // namespace trace

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

namespace detail {
/// Pure parser (unit-testable): `recognized` reports whether `value`
/// named a level; unrecognized values return warn.
inline LogLevel parse_log_level(const char* value, bool& recognized) noexcept {
    recognized = true;
    if (value == nullptr || *value == '\0') return LogLevel::kWarn;
    if (std::strcmp(value, "error") == 0 || std::strcmp(value, "0") == 0) return LogLevel::kError;
    if (std::strcmp(value, "warn") == 0 || std::strcmp(value, "1") == 0) return LogLevel::kWarn;
    if (std::strcmp(value, "info") == 0 || std::strcmp(value, "2") == 0) return LogLevel::kInfo;
    if (std::strcmp(value, "debug") == 0 || std::strcmp(value, "3") == 0) return LogLevel::kDebug;
    recognized = false;
    return LogLevel::kWarn;
}

/// The DAIET_LOG_LEVEL level, parsed once on first use; a junk value
/// exits 2 with a message instead of silently logging at warn.
inline LogLevel log_level_from_env() noexcept {
    bool recognized = true;
    const char* env = std::getenv("DAIET_LOG_LEVEL");
    const LogLevel level = parse_log_level(env, recognized);
    if (!recognized) {
        std::fprintf(stderr,
                     "DAIET_LOG_LEVEL=\"%s\" not recognized (want error|warn|info|debug or 0-3)\n",
                     env);
        std::exit(2);
    }
    return level;
}

inline LogLevel& log_level_ref() noexcept {
    static LogLevel level = log_level_from_env();
    return level;
}
}  // namespace detail

inline void set_log_level(LogLevel level) noexcept { detail::log_level_ref() = level; }
inline LogLevel log_level() noexcept { return detail::log_level_ref(); }

template <typename... Args>
void log(LogLevel level, const char* fmt, Args&&... args) {
    const LogLevel threshold = log_level();  // forces env parse on first use
    const bool print = static_cast<int>(level) <= static_cast<int>(threshold);
    const bool record = trace::detail::g_trace_enabled &&
                        static_cast<int>(level) <= static_cast<int>(LogLevel::kWarn);
    if (!print && !record) return;
    constexpr const char* names[] = {"ERROR", "WARN", "INFO", "DEBUG"};
    char buf[512];
    if constexpr (sizeof...(Args) == 0) {
        std::snprintf(buf, sizeof buf, "%s", fmt);
    } else {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-security"
        std::snprintf(buf, sizeof buf, fmt, std::forward<Args>(args)...);
#pragma GCC diagnostic pop
    }
    if (print) {
        std::fprintf(stderr, "[daiet %s] %s\n", names[static_cast<int>(level)], buf);
    }
    if (record) {
        trace::log_instant(static_cast<int>(level), buf);
    }
}

template <typename... Args>
void log_error(const char* fmt, Args&&... args) {
    log(LogLevel::kError, fmt, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(const char* fmt, Args&&... args) {
    log(LogLevel::kWarn, fmt, std::forward<Args>(args)...);
}
template <typename... Args>
void log_info(const char* fmt, Args&&... args) {
    log(LogLevel::kInfo, fmt, std::forward<Args>(args)...);
}
template <typename... Args>
void log_debug(const char* fmt, Args&&... args) {
    log(LogLevel::kDebug, fmt, std::forward<Args>(args)...);
}

}  // namespace daiet
