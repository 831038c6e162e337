// Fixed-size intermediate records (paper §4).
//
// "We have carefully defined how the output of the map task is
// serialized in the local file, so that packets are transmitted without
// partial pairs. In fact, data cannot be deserialized during
// packetization ... therefore we use a fixed-size representation for
// the pairs, so that it is easy to calculate the offsets of pairs in
// the file and extract a number of complete pairs."
//
// IntermediateFile models that on-disk map output: a flat byte buffer
// of 20-byte records (16 B zero-padded key + 4 B value). The shuffle
// layer slices complete records straight out of the buffer without
// deserializing — exactly the paper's packetization path. Records use
// the wire's pair codec (encode_pair/decode_pair, core/protocol.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "core/protocol.hpp"

namespace daiet::mr {

/// Decode a whole number of 20-byte records onto the end of `out`.
/// Callers that know the total pair count reserve `out` once up front.
inline void decode_pairs(std::span<const std::byte> records, std::vector<KvPair>& out) {
    for (const KvPair p : PairSpan{records}) out.push_back(p);
}

class IntermediateFile {
public:
    static constexpr std::size_t kRecordSize = kPairWireSize;  // 20 bytes

    IntermediateFile() = default;

    /// A file holding `pairs` in order, written into one buffer.
    explicit IntermediateFile(std::span<const KvPair> pairs)
        : bytes_(pairs.size() * kRecordSize) {
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            encode_pair(pairs[i], bytes_.data() + i * kRecordSize);
        }
    }

    void append(const KvPair& pair) {
        const std::size_t off = bytes_.size();
        bytes_.resize(off + kRecordSize);
        encode_pair(pair, bytes_.data() + off);
    }

    std::size_t record_count() const noexcept { return bytes_.size() / kRecordSize; }
    std::size_t size_bytes() const noexcept { return bytes_.size(); }
    bool empty() const noexcept { return bytes_.empty(); }

    /// Raw view of records [first, first+n) — the packetizer's
    /// offset-arithmetic slice (no deserialization).
    std::span<const std::byte> slice(std::size_t first, std::size_t n) const {
        DAIET_EXPECTS((first + n) * kRecordSize <= bytes_.size());
        return std::span{bytes_}.subspan(first * kRecordSize, n * kRecordSize);
    }

    /// Deserialize record `i` (used by tests).
    KvPair record(std::size_t i) const {
        return PairSpan{slice(i, 1)}[0];
    }

    std::vector<KvPair> all_records() const {
        std::vector<KvPair> out;
        out.reserve(record_count());
        decode_pairs(bytes_, out);
        return out;
    }

    std::span<const std::byte> bytes() const noexcept { return bytes_; }

private:
    std::vector<std::byte> bytes_;
};

}  // namespace daiet::mr
