#include "mapreduce/corpus.hpp"

#include <array>
#include <bit>
#include <map>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "common/hash.hpp"
#include "core/aggregation.hpp"

namespace daiet::mr {

Corpus::Corpus(CorpusConfig config) : config_{config} {
    DAIET_EXPECTS(config_.vocabulary_size > 0);
    DAIET_EXPECTS(config_.num_mappers > 0);
    DAIET_EXPECTS(config_.num_reducers > 0);
    DAIET_EXPECTS(config_.max_word_length <= Key16::width);
    DAIET_EXPECTS(config_.min_word_length >= 1 &&
                  config_.min_word_length <= config_.max_word_length);

    Rng rng{config_.seed};
    build_vocabulary(rng);

    // Distribute word instances over mappers round-robin so every split
    // sees the global frequency distribution.
    splits_.resize(config_.num_mappers);
    const std::size_t per_mapper = config_.total_words / config_.num_mappers;
    for (auto& split : splits_) split.reserve(per_mapper + 1);

    if (config_.zipf_exponent > 0.0) {
        const ZipfSampler zipf{config_.vocabulary_size, config_.zipf_exponent};
        for (std::size_t i = 0; i < config_.total_words; ++i) {
            splits_[i % config_.num_mappers].push_back(
                static_cast<std::uint32_t>(zipf(rng)));
        }
    } else {
        for (std::size_t i = 0; i < config_.total_words; ++i) {
            splits_[i % config_.num_mappers].push_back(
                static_cast<std::uint32_t>(rng.next_below(config_.vocabulary_size)));
        }
    }
}

void Corpus::build_vocabulary(Rng& rng) {
    vocabulary_.reserve(config_.vocabulary_size);
    const std::size_t cells = config_.register_size;
    // collision_free: one bit per (reducer partition, register cell);
    // otherwise open-addressed vocabulary indices, at most half full.
    std::vector<bool> taken(config_.collision_free ? config_.num_reducers * cells : 0);
    constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
    std::vector<std::uint32_t> slots(
        config_.collision_free ? 0 : std::bit_ceil(2 * config_.vocabulary_size), kEmpty);
    const std::size_t slot_mask = slots.size() - 1;

    std::size_t rejected = 0;
    const std::size_t max_attempts = config_.vocabulary_size * 400 + 100'000;
    std::size_t attempts = 0;
    while (vocabulary_.size() < config_.vocabulary_size) {
        if (++attempts > max_attempts) {
            const std::string rejects = " (rejected " + std::to_string(rejected) +
                                        " candidates, duplicate draws included); ";
            throw std::runtime_error{
                config_.collision_free
                    ? "Corpus: cannot build a collision-free vocabulary of " +
                          std::to_string(config_.vocabulary_size) + " words into " +
                          std::to_string(config_.num_reducers) + " x " +
                          std::to_string(cells) + " register cells" + rejects +
                          "enlarge register_size or shrink the vocabulary"
                    : "Corpus: cannot draw " + std::to_string(config_.vocabulary_size) +
                          " distinct words of " + std::to_string(config_.min_word_length) +
                          "-" + std::to_string(config_.max_word_length) + " letters" +
                          rejects + "widen the word lengths or shrink the vocabulary"};
        }
        std::array<char, Key16::width> letters{};
        const auto len = static_cast<std::size_t>(
            rng.next_int(static_cast<std::int64_t>(config_.min_word_length),
                         static_cast<std::int64_t>(config_.max_word_length)));
        for (std::size_t i = 0; i < len; ++i) {
            letters[i] = static_cast<char>('a' + rng.next_below(26));
        }
        const std::string_view word{letters.data(), len};
        bool fresh = false;
        if (config_.collision_free) {
            const std::size_t bit =
                partition_of(word) * cells +
                register_index_from_crc(Crc32::compute(Key16{word}.bytes()), cells);
            fresh = !taken[bit];
            taken[bit] = true;
        } else {
            std::size_t slot = fnv1a64(word) & slot_mask;
            while (slots[slot] != kEmpty && vocabulary_[slots[slot]] != word) {
                slot = (slot + 1) & slot_mask;
            }
            fresh = slots[slot] == kEmpty;
            if (fresh) slots[slot] = static_cast<std::uint32_t>(vocabulary_.size());
        }
        if (!fresh) {
            ++rejected;
            continue;
        }
        vocabulary_.emplace_back(word);
    }
}

std::uint32_t Corpus::partition_of(std::string_view word) const noexcept {
    // FNV over the raw word (not the padded cell) — the partitioner is
    // application-level code and is independent of the switch hash.
    return static_cast<std::uint32_t>(fnv1a64(word) %
                                      static_cast<std::uint64_t>(config_.num_reducers));
}

std::string Corpus::split_text(std::size_t mapper) const {
    DAIET_EXPECTS(mapper < splits_.size());
    std::string text;
    std::size_t bytes = 0;
    for (const auto idx : splits_[mapper]) bytes += vocabulary_[idx].size() + 1;
    text.reserve(bytes);
    for (const auto idx : splits_[mapper]) {
        text += vocabulary_[idx];
        text += ' ';
    }
    if (!text.empty()) text.pop_back();
    return text;
}

std::size_t Corpus::total_text_bytes() const {
    std::size_t bytes = 0;
    for (std::size_t m = 0; m < splits_.size(); ++m) {
        for (const auto idx : splits_[m]) bytes += vocabulary_[idx].size() + 1;
    }
    return bytes;
}

std::vector<std::pair<std::string, std::int64_t>> Corpus::reference_counts() const {
    std::vector<std::int64_t> counts(vocabulary_.size(), 0);
    for (const auto& split : splits_) {
        for (const auto idx : split) ++counts[idx];
    }
    std::map<std::string, std::int64_t> sorted;
    for (std::size_t i = 0; i < vocabulary_.size(); ++i) {
        if (counts[i] > 0) sorted.emplace(vocabulary_[i], counts[i]);
    }
    return {sorted.begin(), sorted.end()};
}

}  // namespace daiet::mr
