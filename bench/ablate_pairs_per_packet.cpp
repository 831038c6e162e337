// Ablation A2 (§5 parse-depth limit): P4 hardware parses only the first
// 200-300 B of a packet, capping DAIET at ~10 pairs per packet. This
// sweep shows what deeper parsing would buy: fewer, larger packets and
// a better packet-count reduction against the TCP baseline.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/protocol.hpp"
#include "dataplane/context.hpp"
#include "mapreduce/job.hpp"

int main() {
    using namespace daiet;
    using namespace daiet::bench;
    using namespace daiet::mr;

    CorpusConfig cc;
    cc.total_words = scaled(200'000);
    cc.vocabulary_size = scaled(24'000);
    cc.num_mappers = 8;
    cc.num_reducers = 4;
    cc.register_size = 16 * 1024;
    const Corpus corpus{cc};

    print_figure_banner(std::cout, "Ablation A2",
                        "packets at reducers vs max pairs per DAIET packet",
                        "10 pairs (206 B payload) is the parse-budget sweet spot; "
                        "more pairs/packet would close the gap to TCP's large frames");

    JobOptions base;
    base.daiet.max_trees = cc.num_reducers;
    base.mode = ShuffleMode::kTcpBaseline;
    const auto tcp = run_wordcount_job(corpus, base);
    base.mode = ShuffleMode::kUdpNoAgg;
    const auto udp = run_wordcount_job(corpus, base);

    TextTable table{{"pairs/packet", "payload bytes", "frames@reducers",
                     "vs UDP baseline", "vs TCP baseline", "within parse budget"}};
    for (const std::size_t pairs : {2UL, 5UL, 10UL, 14UL, 25UL, 50UL}) {
        JobOptions opts = base;
        opts.mode = ShuffleMode::kDaiet;
        opts.daiet.max_pairs_per_packet = pairs;
        opts.daiet.spillover_capacity = pairs;
        JobResult result;
        try {
            result = run_wordcount_job(corpus, opts);
        } catch (const dp::PipelineError& e) {
            // A P4 compiler rejects a program whose pass exceeds the
            // chip's op budget; the simulator rejects it at the first
            // packet that does, and stderr names the limit.
            std::cerr << pairs << " pairs/packet: " << e.what() << "\n";
            table.add_row({std::to_string(pairs), std::to_string(data_packet_size(pairs)),
                           "-", "-", "-", "NO (pass rejected by the pipeline)"});
            continue;
        }
        const auto frames = result.total_frames_at_reducers();
        table.add_row(
            {std::to_string(pairs), std::to_string(data_packet_size(pairs)),
             std::to_string(frames),
             TextTable::pct(1.0 - static_cast<double>(frames) /
                                      static_cast<double>(udp.total_frames_at_reducers())),
             TextTable::pct(1.0 - static_cast<double>(frames) /
                                      static_cast<double>(tcp.total_frames_at_reducers())),
             data_packet_size(pairs) <= 300 ? "yes" : "NO (exceeds 200-300 B)"});
    }
    table.print(std::cout);
    return 0;
}
