// DAIET deployment configuration.
//
// The defaults mirror the paper's §5 prototype: 16K-entry key/value
// register arrays per aggregation tree, 16-byte keys with 4-byte values,
// at most 10 pairs per packet (P4 hardware parses only the first
// 200-300 B of a packet), and a spillover bucket sized to one packet.
#pragma once

#include <cstddef>
#include <cstdint>

namespace daiet {

using TreeId = std::uint16_t;

struct Config {
    /// Cells per key/value register array, per aggregation tree
    /// (paper: "We configure P4 registers to store 16K key-value pairs").
    std::size_t register_size{16 * 1024};

    /// Maximum number of aggregation trees a switch supports
    /// concurrently (the prototype runs 12, one per reducer).
    std::size_t max_trees{12};

    /// Key-value pairs per DATA packet (paper: "one DAIET packet can
    /// contain at most 10 key-value pairs").
    std::size_t max_pairs_per_packet{10};

    /// Spillover bucket capacity, in pairs (paper: "a queue of pairs
    /// with as many entries as the number of pairs that can fit in one
    /// packet").
    std::size_t spillover_capacity{10};
};

}  // namespace daiet
