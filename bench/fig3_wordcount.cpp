// Figure 3: "Reduction on the amount of data, running time and number
// of packets received at reducers."
//
// The full §5 prototype experiment: a WordCount job with 24 mappers and
// 12 reducers shuffles its map output through (i) the original
// TCP-based exchange, (ii) UDP with the DAIET protocol but no switch
// aggregation, and (iii) DAIET on a programmable ToR with 16K-entry
// registers, 16 B keys + 4 B values and at most 10 pairs per packet.
// Per reducer we report the relative reduction DAIET achieves, and the
// box plot over the 12 reducers reproduces the figure.
#include <chrono>
#include <iostream>
#include <utility>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "mapreduce/job.hpp"

int main() {
    using namespace daiet;
    using namespace daiet::bench;
    using namespace daiet::mr;

    const SimSpeedMeter sim_speed;
    CorpusConfig cc;  // paper-shaped defaults (scaled corpus, same multiplicity)
    cc.total_words = scaled(1'200'000);
    cc.vocabulary_size = scaled(144'000);
    const Corpus corpus{cc};

    print_figure_banner(
        std::cout, "Figure 3",
        "WordCount shuffle: 24 mappers, 12 reducers, " +
            std::to_string(corpus.total_text_bytes() / (1 << 20)) +
            " MiB of input text, 16K-entry registers, 10 pairs/packet",
        "data volume -86.9..-89.3% (median ~88%); reduce time median -83.6%; "
        "packets vs UDP -88.1..-90.5% (median 90.5%); packets vs TCP median -42%");

    // Each job's wall time, to hold its phase split against.
    const auto timed_job = [&corpus](ShuffleMode mode) {
        JobOptions options;
        options.mode = mode;
        const auto start = std::chrono::steady_clock::now();
        JobResult result = run_wordcount_job(corpus, options);
        return std::pair{std::move(result),
                         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                       start)
                             .count()};
    };
    const auto [tcp, tcp_wall] = timed_job(ShuffleMode::kTcpBaseline);
    const auto [udp, udp_wall] = timed_job(ShuffleMode::kUdpNoAgg);
    const auto [daiet_run, daiet_wall] = timed_job(ShuffleMode::kDaiet);

    BenchJson json{"fig3_wordcount"};
    json.config()
        .integer("num_mappers", cc.num_mappers)
        .integer("num_reducers", cc.num_reducers)
        .integer("total_words", cc.total_words)
        .integer("vocabulary_size", cc.vocabulary_size)
        .integer("corpus_seed", cc.seed)
        .number("scale", scale_factor());

    // Per-reducer relative reductions (the 12 samples behind each box).
    Samples data_volume;
    Samples reduce_time;
    Samples packets_vs_udp;
    Samples packets_vs_tcp;
    TextTable per_reducer{{"reducer", "data_volume", "reduce_time", "pkts_vs_udp",
                           "pkts_vs_tcp"}};
    for (std::size_t r = 0; r < daiet_run.reducers.size(); ++r) {
        const auto& d = daiet_run.reducers[r];
        const auto& t = tcp.reducers[r];
        const auto& u = udp.reducers[r];
        const double dv = 1.0 - static_cast<double>(d.payload_bytes_received) /
                                    static_cast<double>(t.payload_bytes_received);
        const double rt = 1.0 - d.reduce_seconds / t.reduce_seconds;
        const double pu = 1.0 - static_cast<double>(d.frames_received) /
                                    static_cast<double>(u.frames_received);
        const double pt = 1.0 - static_cast<double>(d.frames_received) /
                                    static_cast<double>(t.frames_received);
        data_volume.add(dv);
        reduce_time.add(rt);
        packets_vs_udp.add(pu);
        packets_vs_tcp.add(pt);
        per_reducer.add_row({std::to_string(r), TextTable::pct(dv),
                             TextTable::pct(rt), TextTable::pct(pu),
                             TextTable::pct(pt)});
        json.push("reducers")
            .integer("reducer", r)
            .number("data_volume_reduction", dv)
            .number("reduce_time_reduction", rt)
            .number("packets_vs_udp_reduction", pu)
            .number("packets_vs_tcp_reduction", pt);
    }
    per_reducer.print(std::cout);

    std::cout << "\nbox plots (reduction across the 12 reducers):\n";
    TextTable boxes{{"metric", "min", "q1", "median", "q3", "max", "paper"}};
    const auto row = [&](const std::string& name, const Samples& s,
                         const std::string& paper) {
        const auto b = BoxPlot::of(s);
        boxes.add_row({name, TextTable::pct(b.min), TextTable::pct(b.q1),
                       TextTable::pct(b.median), TextTable::pct(b.q3),
                       TextTable::pct(b.max), paper});
        json.push("box_plots")
            .text("metric", name)
            .number("min", b.min)
            .number("q1", b.q1)
            .number("median", b.median)
            .number("q3", b.q3)
            .number("max", b.max);
    };
    row("data volume", data_volume, "86.9%..89.3%, median ~88%");
    row("reduce time", reduce_time, "median 83.6%");
    row("# packets (UDP baseline)", packets_vs_udp, "88.1%..90.5%, median 90.5%");
    row("# packets (TCP baseline)", packets_vs_tcp, "median 42%");
    boxes.print(std::cout);

    std::cout << "\naggregate view:\n";
    TextTable agg{{"mode", "pairs shuffled", "pairs@reducers", "payload@reducers",
                   "frames@reducers", "reduce total (ms)"}};
    for (const auto* job : {&tcp, &udp, &daiet_run}) {
        std::uint64_t pairs = 0;
        double reduce_ms = 0.0;
        for (const auto& r : job->reducers) {
            pairs += r.pairs_received;
            reduce_ms += r.reduce_seconds * 1e3;
        }
        agg.add_row({std::string{to_string(job->mode)},
                     std::to_string(job->total_pairs_shuffled), std::to_string(pairs),
                     std::to_string(job->total_payload_bytes_at_reducers()),
                     std::to_string(job->total_frames_at_reducers()),
                     TextTable::fmt(reduce_ms, 1)});
        json.push("modes")
            .text("mode", std::string{to_string(job->mode)})
            .integer("pairs_shuffled", job->total_pairs_shuffled)
            .integer("pairs_at_reducers", pairs)
            .integer("payload_bytes_at_reducers",
                     job->total_payload_bytes_at_reducers())
            .integer("frames_at_reducers", job->total_frames_at_reducers())
            .number("reduce_total_ms", reduce_ms);
    }
    agg.print(std::cout);

    // Where each job's wall time went (the phases run back to back; the
    // reduce phase includes all three timed repeats of every reducer).
    std::cout << "\nwall-time split per job (s):\n";
    TextTable split{{"mode", "map", "build", "presort", "shuffle", "reduce", "check",
                     "output", "sum", "wall"}};
    for (const auto& [job, wall] : {std::pair{&tcp, tcp_wall}, std::pair{&udp, udp_wall},
                                    std::pair{&daiet_run, daiet_wall}}) {
        const JobPhases& p = job->phases;
        split.add_row({std::string{to_string(job->mode)}, TextTable::fmt(p.map_s, 3),
                       TextTable::fmt(p.build_s, 3), TextTable::fmt(p.presort_s, 3),
                       TextTable::fmt(p.shuffle_s, 3), TextTable::fmt(p.reduce_s, 3),
                       TextTable::fmt(p.check_s, 3), TextTable::fmt(p.output_s, 3),
                       TextTable::fmt(p.sum(), 3), TextTable::fmt(wall, 3)});
        json.push("phases")
            .text("mode", std::string{to_string(job->mode)})
            .number("map_s", p.map_s)
            .number("build_s", p.build_s)
            .number("presort_s", p.presort_s)
            .number("shuffle_s", p.shuffle_s)
            .number("reduce_s", p.reduce_s)
            .number("check_s", p.check_s)
            .number("output_s", p.output_s)
            .number("sum_s", p.sum())
            .number("wall_s", wall);
    }
    split.print(std::cout);
    json.root()
        .integer("switch_sram_used_bytes", daiet_run.switch_sram_used_bytes)
        .integer("switch_recirculations", daiet_run.switch_recirculations);
    sim_speed.stamp(json);
    json.write();

    std::cout << "\nswitch: SRAM used "
              << TextTable::fmt(
                     static_cast<double>(daiet_run.switch_sram_used_bytes) / (1 << 20), 2)
              << " MiB (paper estimates ~10 MB for this configuration), "
              << daiet_run.switch_recirculations
              << " recirculations spent draining registers on END\n";
    return 0;
}
