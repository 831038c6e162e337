// RMAT (Kronecker) graph generator, Graph500-style.
//
// The paper's graph experiments use the LiveJournal social network
// (4.8M vertices, 68M edges, mean degree ~14, heavy-tailed). We scale
// to laptop size while preserving the properties the Figure 1(c)
// traffic-reduction ratio depends on: the degree skew and mean degree
// (see DESIGN.md, substitutions table).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace daiet::graph {

struct RmatConfig {
    /// Number of vertices = 2^scale. Default: 2^17 = 131,072.
    std::uint32_t scale{17};
    /// Target edges per vertex before dedup (LiveJournal has ~14).
    std::uint32_t edge_factor{14};
    /// Kronecker initiator probabilities (Graph500 defaults).
    double a{0.57};
    double b{0.19};
    double c{0.19};
    std::uint64_t seed{2024};
    /// Edge weights drawn from [1, max_weight] (1 = unweighted).
    std::uint32_t max_weight{1};
};

Graph generate_rmat(const RmatConfig& config);

}  // namespace daiet::graph
