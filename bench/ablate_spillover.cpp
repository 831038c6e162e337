// Ablation A4 (§4): the spillover bucket versus naive alternatives.
// The paper argues one shared spillover queue "better employs the
// available memory ... without affecting the correctness" compared to
// per-cell collision buckets. We sweep the bucket capacity under heavy
// collision pressure on one switch chip running the DAIET program and
// report how much un-aggregated traffic leaks downstream and how often
// the bucket flushes mid-stream. Exits 1 if capacity moves any total or
// the pairs forwarded do not fold to the input's per-key counts.
#include <array>
#include <iostream>
#include <unordered_map>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/pipeline_program.hpp"

namespace {

using namespace daiet;
using Counts = std::unordered_map<Key16, std::int64_t>;

constexpr sim::HostAddr kMapperAddr = 10;
constexpr sim::HostAddr kReducerAddr = 20;

std::vector<dp::Packet> inject(dp::PipelineSwitch& chip, std::span<const std::byte> payload) {
    return chip.receive(dp::Packet{sim::build_udp_frame(kMapperAddr, kReducerAddr,
                                                        kMapperUdpPort, kDaietUdpPort,
                                                        payload)},
                        0);
}

/// Adds the pairs of the DATA packets among `packets` to `counts`;
/// returns how many there were.
std::uint64_t fold(const std::vector<dp::Packet>& packets, Counts& counts) {
    std::uint64_t pairs = 0;
    for (const dp::Packet& p : packets) {
        const auto frame = sim::parse_frame(p.payload());
        const auto packet = decode_daiet(frame->payload_of(p.payload()));
        if (const auto* data = std::get_if<DataPacket>(&*packet)) {
            for (const KvPair pair : data->pairs) counts[pair.key] += i32_from_wire(pair.value);
            pairs += data->pairs.size();
        }
    }
    return pairs;
}

}  // namespace

int main() {
    using namespace daiet::bench;

    print_figure_banner(std::cout, "Ablation A4",
                        "spillover bucket capacity under heavy collision pressure "
                        "(4K registers, 12K distinct keys, 200K pairs)",
                        "larger buckets batch collision traffic into fewer flushes; "
                        "capacity has no effect on totals (correctness invariant)");

    const std::size_t kVocab = scaled(12'000);
    const std::size_t kPairs = scaled(200'000);

    // One stream for every capacity, and its per-key counts.
    Rng rng{2718};
    std::vector<KvPair> stream;
    Counts input;
    for (std::size_t i = 0; i < kPairs; ++i) {
        stream.push_back(
            KvPair{Key16{"w" + std::to_string(rng.next_below(kVocab))}, wire_from_i32(1)});
        ++input[stream.back().key];
    }

    TextTable table{{"capacity (pairs)", "pairs spilled", "spill flushes",
                     "pairs forwarded early", "held at END", "stored+combined"}};
    std::optional<std::array<std::uint64_t, 3>> first_totals;
    bool ok = true;
    for (const std::size_t capacity : {1UL, 5UL, 10UL, 20UL, 40UL}) {
        Config cfg;
        cfg.register_size = 4096;
        cfg.max_trees = 1;
        cfg.spillover_capacity = capacity;
        dp::PipelineSwitch chip{"tor", dp::SwitchConfig{}};
        const auto program = load_daiet_program(cfg, chip);
        TreeRule rule;
        rule.num_children = 1;
        rule.out_port = 1;
        rule.flush_dst = kReducerAddr;
        program->configure_tree(1, rule);

        Counts output;
        std::uint64_t forwarded_early = 0;
        for (std::size_t off = 0; off < stream.size(); off += cfg.max_pairs_per_packet) {
            const auto batch = std::span{stream}.subspan(
                off, std::min(cfg.max_pairs_per_packet, stream.size() - off));
            forwarded_early += fold(inject(chip, serialize_data(1, batch)), output);
        }
        const std::uint64_t held = program->held_pairs(1);
        const AgentTreeStats& stats = program->tree_stats(1);
        const std::uint64_t absorbed = stats.pairs_stored + stats.pairs_combined;
        table.add_row({std::to_string(capacity), std::to_string(stats.pairs_spilled),
                       std::to_string(stats.spill_flushes),
                       std::to_string(forwarded_early), std::to_string(held),
                       std::to_string(absorbed)});
        // Capacity moves pairs between "forwarded early" and "held at
        // END", never a total or a value.
        const std::array totals{stats.pairs_spilled, absorbed, forwarded_early + held};
        if (!first_totals) first_totals = totals;
        if (totals != *first_totals) {
            std::cerr << "capacity " << capacity << ": pairs spilled, stored+combined or "
                      << "forwarded early + held differ from capacity 1\n";
            ok = false;
        }
        fold(inject(chip, serialize_end(1)), output);
        if (output != input) {
            std::cerr << "capacity " << capacity
                      << ": the pairs forwarded do not fold to the input counts\n";
            ok = false;
        }
    }
    table.print(std::cout);
    return ok ? 0 : 1;
}
