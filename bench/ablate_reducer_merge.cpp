// Ablation A8 (EXPERIMENTS.md): sensitivity of the Figure 3 reduce-time
// result to the baseline reducer implementation.
//
// The default baseline reducer uses the same sort-based grouping code
// as the DAIET reducer (one code path, as in the paper's prototype);
// this ablation also runs a baseline that exploits mapper-side sorting
// with a k-way heap merge. Which baseline is cheaper depends on the
// sort: against the radix key sort (sort_by_key) the heap merge is the
// slower one.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "mapreduce/job.hpp"

int main() {
    using namespace daiet;
    using namespace daiet::bench;
    using namespace daiet::mr;

    CorpusConfig cc;
    cc.total_words = scaled(600'000);
    cc.vocabulary_size = scaled(72'000);
    const Corpus corpus{cc};

    print_figure_banner(std::cout, "Ablation A8",
                        "reduce-time reduction vs baseline reducer implementation",
                        "median 83.6% against a sort-based baseline (the "
                        "merge-based baseline is not in the paper)");

    JobOptions opts;
    opts.mode = ShuffleMode::kDaiet;
    const auto daiet_run = run_wordcount_job(corpus, opts);

    TextTable table{{"baseline reducer", "baseline reduce total (ms)",
                     "daiet reduce total (ms)", "median reduction"}};
    for (const bool merge : {false, true}) {
        JobOptions tcp_opts;
        tcp_opts.mode = ShuffleMode::kTcpBaseline;
        tcp_opts.baseline_merge_reducer = merge;
        const auto tcp = run_wordcount_job(corpus, tcp_opts);

        Samples reductions;
        double tcp_ms = 0.0;
        double daiet_ms = 0.0;
        for (std::size_t r = 0; r < tcp.reducers.size(); ++r) {
            tcp_ms += tcp.reducers[r].reduce_seconds * 1e3;
            daiet_ms += daiet_run.reducers[r].reduce_seconds * 1e3;
            reductions.add(1.0 - daiet_run.reducers[r].reduce_seconds /
                                     tcp.reducers[r].reduce_seconds);
        }
        table.add_row({merge ? "k-way merge of sorted runs" : "sort-based grouping",
                       TextTable::fmt(tcp_ms, 1), TextTable::fmt(daiet_ms, 1),
                       TextTable::pct(reductions.median())});
    }
    table.print(std::cout);
    return 0;
}
