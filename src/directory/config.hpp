// Deployment configuration for the edge reply caches of the sharded kv
// service.
#pragma once

#include <cstddef>

#include "netsim/time.hpp"

namespace daiet::dir {

struct EdgeCacheConfig {
    /// Direct-mapped reply-cache slots per edge switch (the key, value,
    /// lease-expiry and admission-ticket registers are all sized by
    /// this). 0 means no edge caches: no edge tenant is built (the
    /// lease ablation).
    std::size_t slots{256};

    /// Lease duration granted to a cached reply; must be > 0 when
    /// slots is. A hit must clear both the lease clock and the
    /// invalidation protocol; expiry bounds how long a *partitioned*
    /// edge (one no invalidation can reach) may serve a value, the
    /// classic lease argument.
    sim::SimTime lease_ttl{400 * sim::kMicrosecond};
};

}  // namespace daiet::dir
