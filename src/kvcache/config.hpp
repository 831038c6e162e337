// Deployment configuration for the kv cache workload.
#pragma once

#include <cstddef>

#include "netsim/time.hpp"
#include "transport/request_reply.hpp"

namespace daiet::kv {

struct KvConfig {
    /// Cache entries per switch (key -> value register slots). 0 means
    /// no cache: no ToR tenant and no controller are built, and every
    /// request is served by the server (the baseline).
    std::size_t cache_slots{512};

    /// Client-side retry transport (RTO, attempt budget). The kv
    /// service runs on lossy fabrics by retransmitting at the edge and
    /// answering copies from the server's reply cache.
    transport::RetryOptions retry{};

    /// Per-request service time of the storage server's (single)
    /// worker: the userspace stack + storage lookup a switch cache
    /// bypasses. Requests queue behind each other, so a skewed hot set
    /// drives the server toward saturation — the load NetCache-style
    /// caching absorbs.
    sim::SimTime server_service_time{10 * sim::kMicrosecond};
};

}  // namespace daiet::kv
