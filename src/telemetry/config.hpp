// Deployment configuration for the in-network telemetry tenant.
#pragma once

#include <cstdint>

namespace daiet::telemetry {

struct TelemetryConfig {
    /// Heavy-hitter key log: keys whose sketch estimate reaches
    /// `hot_threshold` within a window are appended (at most once,
    /// modulo dedup-cell collisions) up to kHotLogCapacity entries.
    /// Low on purpose: poll windows are short (tens of microseconds of
    /// traffic), so a key seen even twice in one window is a promotion
    /// candidate; the collector's estimate ranking does the rest.
    std::uint32_t hot_threshold{2};
};

}  // namespace daiet::telemetry
