#include "graph/generator.hpp"

#include <numeric>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace daiet::graph {

Graph generate_rmat(const RmatConfig& config) {
    DAIET_EXPECTS(config.scale >= 1 && config.scale <= 26);
    DAIET_EXPECTS(config.a + config.b + config.c < 1.0);

    const std::uint64_t n = 1ull << config.scale;
    const std::uint64_t m = n * config.edge_factor;
    Rng rng{config.seed};

    // Shuffle vertex ids so generation order carries no information.
    std::vector<VertexId> permutation(n);
    std::iota(permutation.begin(), permutation.end(), 0U);
    rng.shuffle(permutation);

    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(m);
    const double ab = config.a + config.b;
    const double abc = ab + config.c;
    for (std::uint64_t e = 0; e < m; ++e) {
        std::uint64_t src = 0;
        std::uint64_t dst = 0;
        for (std::uint32_t depth = 0; depth < config.scale; ++depth) {
            const double u = rng.next_double();
            src <<= 1;
            dst <<= 1;
            if (u < config.a) {
                // top-left quadrant
            } else if (u < ab) {
                dst |= 1;
            } else if (u < abc) {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        edges.emplace_back(permutation[src], permutation[dst]);
    }
    return Graph::from_edges(static_cast<VertexId>(n), std::move(edges),
                             config.max_weight);
}

}  // namespace daiet::graph
