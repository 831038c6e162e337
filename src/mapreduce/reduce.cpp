#include "mapreduce/reduce.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <queue>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/hash.hpp"
#include "mapreduce/record.hpp"

namespace daiet::mr {

namespace {

/// Hashes a key's two 64-bit words. Only reduce_pairs uses it: its
/// output is sorted, so no iteration order escapes. std::hash<Key16>
/// stays the map-side combiner's hash, which decides packet contents.
struct KeyWordsHash {
    std::size_t operator()(const Key16& k) const noexcept {
        std::uint64_t w[2] = {};
        static_assert(sizeof w == Key16::width);
        std::memcpy(w, k.bytes().data(), sizeof w);
        return static_cast<std::size_t>(mix64(w[0] ^ mix64(w[1])));
    }
};

constexpr auto key_less = [](const KvPair& a, const KvPair& b) noexcept {
    return a.key < b.key;
};

}  // namespace

std::vector<KvPair> reduce_pairs(const std::vector<KvPair>& pairs, AggFnId fn) {
    std::unordered_map<Key16, WireValue, KeyWordsHash> table;
    table.reserve(pairs.size());
    for (const KvPair& p : pairs) {
        const auto [it, inserted] = table.try_emplace(p.key, first_value(fn, p.value));
        if (!inserted) it->second = combine(fn, it->second, p.value);
    }
    std::vector<KvPair> out;
    out.reserve(table.size());
    for (const auto& [key, value] : table) out.push_back(KvPair{key, value});
    std::sort(out.begin(), out.end(), key_less);
    return out;
}

std::vector<KvPair> merge_sorted_runs(const std::vector<std::vector<KvPair>>& runs,
                                      AggFnId fn) {
    struct Cursor {
        const std::vector<KvPair>* run;
        std::size_t pos;
    };
    const auto greater = [](const Cursor& a, const Cursor& b) {
        return (*b.run)[b.pos].key < (*a.run)[a.pos].key;
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap{greater};
    std::size_t total = 0;
    for (const auto& run : runs) {
        DAIET_EXPECTS(std::is_sorted(run.begin(), run.end(), key_less));
        total += run.size();
        if (!run.empty()) heap.push(Cursor{&run, 0});
    }

    std::vector<KvPair> out;
    out.reserve(total);
    while (!heap.empty()) {
        Cursor c = heap.top();
        heap.pop();
        const KvPair& p = (*c.run)[c.pos];
        if (!out.empty() && out.back().key == p.key) {
            out.back().value = combine(fn, out.back().value, p.value);
        } else {
            out.push_back(KvPair{p.key, first_value(fn, p.value)});
        }
        if (++c.pos < c.run->size()) heap.push(c);
    }
    return out;
}

std::vector<KvPair> sort_scan_combine(std::vector<KvPair> all, AggFnId fn) {
    sort_by_key(all);
    std::vector<KvPair> out;
    out.reserve(all.size() / 4 + 16);
    for (const KvPair& p : all) {
        if (!out.empty() && out.back().key == p.key) {
            out.back().value = combine(fn, out.back().value, p.value);
        } else {
            out.push_back(KvPair{p.key, first_value(fn, p.value)});
        }
    }
    return out;
}

std::vector<KvPair> reduce_daiet_payloads(
    const std::vector<std::vector<std::byte>>& payloads, AggFnId fn) {
    // Each vector holds one or more whole DATA payloads back to back.
    // Fixed-size pairs make offsets pure arithmetic (the same Section-4
    // property the packetizer relies on), so one walk over the
    // preambles finds every payload. The reservation bounds the pair
    // count by the byte count; its untouched tail costs no memory.
    std::size_t bytes = 0;
    for (const auto& block : payloads) bytes += block.size();
    std::vector<KvPair> all;
    all.reserve(bytes / kPairWireSize);
    for (const auto& block : payloads) {
        for (std::span<const std::byte> rest{block}; !rest.empty();) {
            DAIET_EXPECTS(rest.size() >= kPreambleSize);
            const std::size_t size = data_packet_size(static_cast<std::uint8_t>(rest[5]));
            DAIET_EXPECTS(size <= rest.size());
            const std::optional<DaietPacket> packet = decode_daiet(rest.first(size));
            DAIET_EXPECTS(packet && std::holds_alternative<DataPacket>(*packet));
            const PairSpan pairs = std::get<DataPacket>(*packet).pairs;
            for (const KvPair p : pairs) all.push_back(p);
            rest = rest.subspan(size);
        }
    }
    return sort_scan_combine(std::move(all), fn);
}

std::vector<KvPair> parse_record_stream(std::span<const std::byte> stream) {
    std::vector<KvPair> run;
    run.reserve(stream.size() / kPairWireSize);
    decode_pairs(stream, run);
    return run;
}

std::vector<KvPair> reduce_streams(const std::vector<std::vector<std::byte>>& streams,
                                   AggFnId fn) {
    std::size_t total = 0;
    for (const auto& stream : streams) total += stream.size() / kPairWireSize;
    std::vector<KvPair> all;
    all.reserve(total);
    for (const auto& stream : streams) decode_pairs(stream, all);
    return sort_scan_combine(std::move(all), fn);
}

std::vector<KvPair> reduce_sorted_streams(
    const std::vector<std::vector<std::byte>>& streams, AggFnId fn) {
    std::vector<std::vector<KvPair>> runs;
    runs.reserve(streams.size());
    for (const auto& stream : streams) {
        runs.push_back(parse_record_stream(stream));
    }
    return merge_sorted_runs(runs, fn);
}

double time_seconds(const std::function<void()>& fn, int repeats) {
    DAIET_EXPECTS(repeats >= 1);
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < repeats; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const auto stop = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(stop - start).count());
    }
    return best;
}

}  // namespace daiet::mr
