// WordCount on a simulated cluster — the paper's §5 workload as a
// library user would run it: one call per shuffle transport, then a
// side-by-side comparison.
//
// Usage: wordcount_cluster [total_words] [vocabulary] [star|leaf-spine|fat-tree]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "mapreduce/job.hpp"

int main(int argc, char** argv) {
    using namespace daiet;
    using namespace daiet::mr;

    CorpusConfig cc;
    cc.total_words = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300'000;
    cc.vocabulary_size = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 36'000;
    cc.num_mappers = 12;
    cc.num_reducers = 6;
    rt::TopologyKind topology = rt::TopologyKind::kStar;
    if (argc > 3) {
        bool known = false;
        for (const auto kind : {rt::TopologyKind::kStar, rt::TopologyKind::kLeafSpine,
                                rt::TopologyKind::kFatTree}) {
            if (argv[3] == rt::to_string(kind)) {
                topology = kind;
                known = true;
            }
        }
        if (!known) {
            std::fprintf(stderr, "unknown topology \"%s\" (want star|leaf-spine|fat-tree)\n",
                         argv[3]);
            return 2;
        }
    }
    std::printf("generating corpus: %zu words, %zu distinct, %zu mappers, "
                "%zu reducers (%s fabric)\n",
                cc.total_words, cc.vocabulary_size, cc.num_mappers, cc.num_reducers,
                std::string{rt::to_string(topology)}.c_str());
    const Corpus corpus{cc};

    TextTable table{{"shuffle transport", "payload@reducers (B)", "frames@reducers",
                     "reduce total (ms)", "output keys"}};
    for (const auto mode :
         {ShuffleMode::kTcpBaseline, ShuffleMode::kUdpNoAgg, ShuffleMode::kDaiet}) {
        JobOptions options;
        options.mode = mode;
        options.daiet.max_trees = cc.num_reducers;
        options.topology = topology;
        // 18 hosts overflow a k=4 fat tree (16 slots); k=6 offers 54.
        if (topology == rt::TopologyKind::kFatTree) options.fat_tree_k = 6;
        const auto result = run_wordcount_job(corpus, options);

        double reduce_ms = 0.0;
        for (const auto& r : result.reducers) reduce_ms += r.reduce_seconds * 1e3;
        table.add_row({std::string{to_string(mode)},
                       std::to_string(result.total_payload_bytes_at_reducers()),
                       std::to_string(result.total_frames_at_reducers()),
                       TextTable::fmt(reduce_ms, 1),
                       std::to_string(result.output.size())});
    }
    table.print(std::cout);
    std::puts("\nevery run re-validates its output against a locally computed "
              "reference; a mismatch would have thrown.");
    return 0;
}
