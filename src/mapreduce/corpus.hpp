// Synthetic WordCount corpus.
//
// The paper's §5 benchmark uses "a 500 MB file containing random words
// that are not causing hash collisions" (footnote 5: "our current
// prototype does not manage collisions"). We reproduce both properties:
//   * words are random lowercase strings of bounded length (<= 16 chars,
//     the fixed key width);
//   * optionally, the vocabulary is constructed so that no two words of
//     the same reducer partition collide in the switch register index
//     (CRC-32 mod register_size), mirroring the footnote;
//   * word frequencies are uniform by default (mean multiplicity =
//     total_words / vocabulary_size is what sets the achievable data
//     reduction, 1 - 1/multiplicity) with optional Zipf skew for
//     ablations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fixed_key.hpp"
#include "common/rng.hpp"

namespace daiet::mr {

struct CorpusConfig {
    std::size_t vocabulary_size{144'000};
    std::size_t total_words{1'200'000};
    std::size_t num_mappers{24};
    std::size_t num_reducers{12};
    std::size_t min_word_length{4};
    std::size_t max_word_length{16};
    /// 0 = uniform word frequencies; > 0 = Zipf exponent.
    double zipf_exponent{0.0};
    /// Reject vocabulary words whose register index collides with an
    /// already accepted word of the same reducer partition.
    bool collision_free{true};
    /// Register size used for the collision-freedom check; must match
    /// the DAIET Config used in the experiment.
    std::size_t register_size{16 * 1024};
    std::uint64_t seed{42};
};

/// Deterministically generated corpus, pre-split across mappers.
class Corpus {
public:
    explicit Corpus(CorpusConfig config);

    const CorpusConfig& config() const noexcept { return config_; }
    const std::vector<std::string>& vocabulary() const noexcept { return vocabulary_; }

    /// Reducer partition of a word (hash partitioner, as in MapReduce).
    std::uint32_t partition_of(std::string_view word) const noexcept;

    /// The raw text for one mapper's input split (words joined by
    /// single spaces) — map tasks tokenize this, so the full WordCount
    /// pipeline runs on real text.
    std::string split_text(std::size_t mapper) const;

    /// Total bytes across all splits (the "500 MB" figure, scaled).
    std::size_t total_text_bytes() const;

    /// Ground truth: global word counts (for correctness checks).
    std::vector<std::pair<std::string, std::int64_t>> reference_counts() const;

private:
    /// Draws candidates (a length, then one letter each) until the
    /// vocabulary is full. Collision-free: one bit per (reducer
    /// partition, register cell) decides membership, and a candidate
    /// joins exactly when its bit is clear. The bitmap also deduplicates,
    /// since a repeat of an accepted word hits that word's own bit.
    /// Otherwise an open-addressed index table drops repeats. Throws
    /// std::runtime_error after vocabulary_size * 400 + 100'000 draws.
    void build_vocabulary(Rng& rng);

    CorpusConfig config_;
    std::vector<std::string> vocabulary_;
    /// Word-index stream per mapper.
    std::vector<std::vector<std::uint32_t>> splits_;
};

}  // namespace daiet::mr
