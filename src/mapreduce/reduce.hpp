// Reducer-side final computation.
//
//  * sort_scan_combine: the reducer Figure 3 times, in every shuffle
//    mode. It sorts what the reducer received by key (sort_by_key), then
//    combines equal adjacent keys in one scan: even the DAIET reducer
//    receives unordered pairs, and "the intermediate results must be
//    sorted at the reducer" (§4). reduce_daiet_payloads and
//    reduce_streams wrap it with the decode of DAIET payloads or TCP
//    byte streams.
//  * merge_sorted_runs: a k-way merge of the mappers' key-sorted runs.
//    Only ablation A8 (JobOptions::baseline_merge_reducer) runs it,
//    through reduce_sorted_streams.
//  * reduce_pairs: hash grouping, then a comparison sort. The job's
//    independent reference check; never timed.
//
// All are pure functions; the job wraps the timed reduce in
// time_seconds to reproduce Figure 3's "Reduce time" box.
#pragma once

#include <functional>
#include <vector>

#include "core/aggregation.hpp"
#include "core/protocol.hpp"

namespace daiet::mr {

/// Hash-aggregate then sort by key (the reference the job checks against).
std::vector<KvPair> reduce_pairs(const std::vector<KvPair>& pairs, AggFnId fn);

/// K-way merge of key-sorted runs, combining equal keys.
std::vector<KvPair> merge_sorted_runs(const std::vector<std::vector<KvPair>>& runs,
                                      AggFnId fn);

/// Sort-based grouping: sort `all` by key, then combine equal adjacent
/// keys in one scan. This is the reducer's grouping step in every mode
/// (the paper's DAIET reducer performs "a complete sort operation", §5;
/// the baselines run the same code on more data).
std::vector<KvPair> sort_scan_combine(std::vector<KvPair> all, AggFnId fn);

/// The complete DAIET-side reduce: deserialize raw DAIET DATA payloads,
/// then sort-scan-combine. This is the function Figure 3 times. Each
/// vector holds one or more whole payloads back to back (RawCollector's
/// blocks).
std::vector<KvPair> reduce_daiet_payloads(
    const std::vector<std::vector<std::byte>>& payloads, AggFnId fn);

/// The complete baseline reduce: deserialize fixed-size records from
/// per-mapper byte streams, then sort-scan-combine. Also timed.
std::vector<KvPair> reduce_streams(const std::vector<std::vector<std::byte>>& streams,
                                   AggFnId fn);

/// Ablation variant of the baseline reduce that *exploits* mapper-side
/// sorting: deserialize, then k-way merge the sorted runs (cheaper per
/// item than sorting; see EXPERIMENTS.md ablation A8).
std::vector<KvPair> reduce_sorted_streams(
    const std::vector<std::vector<std::byte>>& streams, AggFnId fn);

/// Deserialize a flat byte stream of fixed-size records.
std::vector<KvPair> parse_record_stream(std::span<const std::byte> stream);

/// Wall-clock the callable: run it `repeats` times, return the minimum
/// duration in seconds (minimum filters scheduler noise).
double time_seconds(const std::function<void()>& fn, int repeats = 3);

}  // namespace daiet::mr
