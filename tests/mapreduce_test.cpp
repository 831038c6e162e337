// Tests for the MapReduce substrate: corpus, fixed-size records,
// WordCount map task, reduce implementations and the full job.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <set>
#include <string>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/aggregation.hpp"
#include "core/worker.hpp"
#include "mapreduce/collector.hpp"
#include "mapreduce/corpus.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/record.hpp"
#include "mapreduce/reduce.hpp"
#include "mapreduce/wordcount.hpp"
#include "netsim/network.hpp"

namespace daiet::mr {
namespace {

CorpusConfig small_corpus() {
    CorpusConfig cc;
    cc.vocabulary_size = 500;
    cc.total_words = 5000;
    cc.num_mappers = 4;
    cc.num_reducers = 3;
    cc.register_size = 1024;
    return cc;
}

// -------------------------------------------------------------- corpus

TEST(Corpus, VocabularyHasRequestedShape) {
    const Corpus corpus{small_corpus()};
    EXPECT_EQ(corpus.vocabulary().size(), 500U);
    for (const auto& w : corpus.vocabulary()) {
        EXPECT_GE(w.size(), 4U);
        EXPECT_LE(w.size(), 16U);
        for (const char c : w) {
            EXPECT_GE(c, 'a');
            EXPECT_LE(c, 'z');
        }
    }
}

TEST(Corpus, CollisionFreePerPartition) {
    // Footnote 5: no two words of the same reducer partition may share
    // a switch register cell.
    const auto cc = small_corpus();
    const Corpus corpus{cc};
    std::vector<std::set<std::size_t>> cells(cc.num_reducers);
    for (const auto& w : corpus.vocabulary()) {
        const auto part = corpus.partition_of(w);
        const auto cell = register_index_from_crc(Crc32::compute(Key16{w}.bytes()),
                                                  cc.register_size);
        EXPECT_TRUE(cells[part].insert(cell).second)
            << "collision for word " << w;
    }
}

TEST(Corpus, DeterministicForSeed) {
    const Corpus a{small_corpus()};
    const Corpus b{small_corpus()};
    EXPECT_EQ(a.vocabulary(), b.vocabulary());
    EXPECT_EQ(a.split_text(0), b.split_text(0));
}

TEST(Corpus, SplitsPartitionTheStream) {
    const auto cc = small_corpus();
    const Corpus corpus{cc};
    std::size_t words = 0;
    for (std::size_t m = 0; m < cc.num_mappers; ++m) {
        const auto text = corpus.split_text(m);
        words += static_cast<std::size_t>(
                     std::count(text.begin(), text.end(), ' ')) + 1;
    }
    EXPECT_EQ(words, cc.total_words);
}

TEST(Corpus, ReferenceCountsSumToTotal) {
    const auto cc = small_corpus();
    const Corpus corpus{cc};
    std::int64_t total = 0;
    for (const auto& [word, count] : corpus.reference_counts()) total += count;
    EXPECT_EQ(total, static_cast<std::int64_t>(cc.total_words));
}

TEST(Corpus, ImpossibleCollisionFreeConfigThrows) {
    CorpusConfig cc = small_corpus();
    cc.vocabulary_size = 100;
    cc.register_size = 8;  // 3 partitions x 8 cells < 100 words
    EXPECT_THROW(Corpus{cc}, std::runtime_error);
}

/// Vocabulary with enough duplicate draws to exercise deduplication:
/// lengths 1-2 leave only 702 distinct words for 400 slots.
CorpusConfig short_word_corpus(bool collision_free) {
    CorpusConfig cc = small_corpus();
    cc.vocabulary_size = 400;
    cc.min_word_length = 1;
    cc.max_word_length = 2;
    cc.register_size = 1 << 16;
    cc.collision_free = collision_free;
    return cc;
}

TEST(Corpus, WordsAreDistinct) {
    for (const bool collision_free : {true, false}) {
        const Corpus corpus{short_word_corpus(collision_free)};
        const std::set<std::string> distinct(corpus.vocabulary().begin(),
                                             corpus.vocabulary().end());
        EXPECT_EQ(distinct.size(), corpus.vocabulary().size())
            << "collision_free=" << collision_free;
    }
}

/// The message of a vocabulary build that gives up.
std::string corpus_error(const CorpusConfig& cc) {
    try {
        const Corpus corpus{cc};
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    ADD_FAILURE() << "the vocabulary build did not give up";
    return {};
}

/// Each mode names what limits it: the register cells when words must
/// not collide, the word lengths when they may.
TEST(Corpus, ImpossibleVocabularyNamesItsLimit) {
    CorpusConfig cc = short_word_corpus(/*collision_free=*/false);
    cc.vocabulary_size = 800;  // 26 + 26 * 26 = 702 distinct words
    const std::string lengths = corpus_error(cc);
    EXPECT_NE(lengths.find("1-2 letters"), std::string::npos) << lengths;
    EXPECT_EQ(lengths.find("register"), std::string::npos) << lengths;

    cc = small_corpus();
    cc.vocabulary_size = 100;
    cc.register_size = 8;
    const std::string cells = corpus_error(cc);
    EXPECT_NE(cells.find("3 x 8 register cells"), std::string::npos) << cells;
}

/// FNV-1a over every word, each followed by a newline.
std::uint64_t vocabulary_digest(const Corpus& corpus) {
    std::string joined;
    for (const auto& w : corpus.vocabulary()) joined.append(w).push_back('\n');
    return fnv1a64(joined);
}

/// FNV-1a over the split digests, in mapper order.
std::uint64_t splits_digest(const Corpus& corpus) {
    std::string joined;
    for (std::size_t m = 0; m < corpus.config().num_mappers; ++m) {
        joined.append(std::to_string(fnv1a64(corpus.split_text(m)))).push_back('\n');
    }
    return fnv1a64(joined);
}

struct GoldenCorpus {
    bool collision_free;
    std::uint64_t seed;
    std::uint64_t vocabulary;
    std::uint64_t splits;
};

TEST(Corpus, GoldenDigests) {
    // Pins the generated text: Figure 3's shape (the CorpusConfig
    // defaults: 144K words, 1.2M total, 24 mappers, 12 reducers) and
    // ablate_register_size's collisions-allowed shape, two seeds each.
    constexpr std::array<GoldenCorpus, 4> kGolden{{
        {true, 42, 0x7df3f5480bb571d8ULL, 0xdc6a86d6967eb91aULL},
        {true, 7, 0x6715d308e7b4c162ULL, 0xb3b6fd5fff2544d1ULL},
        {false, 42, 0xb25813313274c194ULL, 0xc9e1098b46b4082bULL},
        {false, 7, 0x052e1cff5262d828ULL, 0x9d49036d1f83fe80ULL},
    }};
    for (const auto& golden : kGolden) {
        CorpusConfig cc;
        if (!golden.collision_free) {
            cc.total_words = 200'000;
            cc.vocabulary_size = 24'000;
            cc.num_mappers = 8;
            cc.num_reducers = 4;
            cc.collision_free = false;
        }
        cc.seed = golden.seed;
        const Corpus corpus{cc};
        SCOPED_TRACE(::testing::Message() << "collision_free=" << golden.collision_free
                                          << " seed=" << golden.seed);
        EXPECT_EQ(vocabulary_digest(corpus), golden.vocabulary) << std::hex
            << "0x" << vocabulary_digest(corpus);
        EXPECT_EQ(splits_digest(corpus), golden.splits) << std::hex
            << "0x" << splits_digest(corpus);
    }
}

TEST(Corpus, ZipfSkewsFrequencies) {
    CorpusConfig cc = small_corpus();
    cc.zipf_exponent = 1.1;
    const Corpus corpus{cc};
    const auto counts = corpus.reference_counts();
    std::int64_t max_count = 0;
    for (const auto& [w, c] : counts) max_count = std::max(max_count, c);
    const double mean =
        static_cast<double>(cc.total_words) / static_cast<double>(counts.size());
    EXPECT_GT(static_cast<double>(max_count), mean * 10);
}

// ------------------------------------------------------------- records

TEST(IntermediateFile, AppendAndReadBack) {
    IntermediateFile file;
    file.append(KvPair{Key16{"word"}, wire_from_i32(3)});
    file.append(KvPair{Key16{"x"}, wire_from_i32(-1)});
    EXPECT_EQ(file.record_count(), 2U);
    EXPECT_EQ(file.size_bytes(), 40U);
    EXPECT_EQ(file.record(0).key.to_string(), "word");
    EXPECT_EQ(i32_from_wire(file.record(1).value), -1);
}

TEST(IntermediateFile, SliceIsOffsetArithmetic) {
    IntermediateFile file;
    for (int i = 0; i < 10; ++i) {
        file.append(KvPair{Key16{"k" + std::to_string(i)}, wire_from_i32(i)});
    }
    const auto slice = file.slice(3, 2);
    EXPECT_EQ(slice.size(), 2 * IntermediateFile::kRecordSize);
    const auto parsed = parse_record_stream(slice);
    ASSERT_EQ(parsed.size(), 2U);
    EXPECT_EQ(parsed[0].key.to_string(), "k3");
    EXPECT_EQ(parsed[1].key.to_string(), "k4");
}

TEST(IntermediateFile, RecordLayoutMatchesWireFormat) {
    // A file slice must be directly embeddable in a DATA packet.
    IntermediateFile file;
    const KvPair p{Key16{"abc"}, wire_from_i32(0x01020304)};
    file.append(p);
    const auto from_wire = serialize_data(1, std::vector{p});
    const auto body = std::span{from_wire}.subspan(kPreambleSize);
    EXPECT_TRUE(std::equal(body.begin(), body.end(), file.bytes().begin()));
}

// ------------------------------------------------------------ map task

TEST(WordCountMap, CountsEveryToken) {
    const Corpus corpus{small_corpus()};
    const auto out = run_wordcount_map("alpha beta alpha", corpus, 3);
    EXPECT_EQ(out.words_processed, 3U);
    std::size_t records = 0;
    for (const auto& f : out.partitions) records += f.record_count();
    EXPECT_EQ(records, 3U);
}

TEST(WordCountMap, PartitionsByHash) {
    const Corpus corpus{small_corpus()};
    const auto out = run_wordcount_map(corpus.split_text(0), corpus, 3);
    for (std::size_t part = 0; part < 3; ++part) {
        for (std::size_t i = 0; i < out.partitions[part].record_count(); ++i) {
            const auto word = out.partitions[part].record(i).key.to_string();
            EXPECT_EQ(corpus.partition_of(word), part);
        }
    }
}

TEST(WordCountMap, CombinerPreAggregates) {
    const Corpus corpus{small_corpus()};
    const std::string text = "dog cat dog dog cat bird";
    const auto plain = run_wordcount_map(text, corpus, 3, false);
    const auto combined = run_wordcount_map(text, corpus, 3, true);

    const auto total_records = [](const MapOutput& out) {
        std::size_t n = 0;
        for (const auto& f : out.partitions) n += f.record_count();
        return n;
    };
    EXPECT_EQ(total_records(plain), 6U);
    EXPECT_EQ(total_records(combined), 3U);

    // Same totals either way.
    const auto totals = [](const MapOutput& out) {
        std::map<std::string, std::int64_t> t;
        for (const auto& f : out.partitions) {
            for (std::size_t i = 0; i < f.record_count(); ++i) {
                const auto rec = f.record(i);
                t[rec.key.to_string()] += i32_from_wire(rec.value);
            }
        }
        return t;
    };
    EXPECT_EQ(totals(plain), totals(combined));
    EXPECT_EQ(totals(plain),
              (std::map<std::string, std::int64_t>{{"dog", 3}, {"cat", 2}, {"bird", 1}}));
}

// -------------------------------------------------------------- reduce

TEST(Reduce, SortScanCombineGroupsKeys) {
    std::vector<KvPair> pairs{
        {Key16{"b"}, wire_from_i32(1)},
        {Key16{"a"}, wire_from_i32(2)},
        {Key16{"b"}, wire_from_i32(3)},
        {Key16{"a"}, wire_from_i32(4)},
    };
    const auto out = sort_scan_combine(pairs, AggFnId::kSumI32);
    ASSERT_EQ(out.size(), 2U);
    EXPECT_EQ(out[0].key.to_string(), "a");
    EXPECT_EQ(i32_from_wire(out[0].value), 6);
    EXPECT_EQ(out[1].key.to_string(), "b");
    EXPECT_EQ(i32_from_wire(out[1].value), 4);
}

TEST(Reduce, AllImplementationsAgree) {
    // Property: hash-based, sort-based and merge-based reducers compute
    // the same result on a random workload.
    Rng rng{7};
    std::vector<KvPair> all;
    std::vector<std::vector<KvPair>> runs(4);
    for (int i = 0; i < 2000; ++i) {
        KvPair p{Key16{"w" + std::to_string(rng.next_below(100))},
                 wire_from_i32(static_cast<std::int32_t>(rng.next_int(1, 5)))};
        all.push_back(p);
        runs[rng.next_below(4)].push_back(p);
    }
    for (auto& run : runs) {
        std::sort(run.begin(), run.end(),
                  [](const KvPair& a, const KvPair& b) { return a.key < b.key; });
    }
    const auto hash_based = reduce_pairs(all, AggFnId::kSumI32);
    const auto sort_based = sort_scan_combine(all, AggFnId::kSumI32);
    const auto merge_based = merge_sorted_runs(runs, AggFnId::kSumI32);
    EXPECT_EQ(hash_based, sort_based);
    EXPECT_EQ(hash_based, merge_based);
}

TEST(Reduce, StreamVariantsAgree) {
    Rng rng{8};
    std::vector<std::vector<std::byte>> streams;
    std::vector<KvPair> all;
    for (int s = 0; s < 3; ++s) {
        IntermediateFile f;
        std::vector<KvPair> run;
        for (int i = 0; i < 500; ++i) {
            run.push_back(KvPair{Key16{"k" + std::to_string(rng.next_below(60))},
                                 wire_from_i32(1)});
        }
        std::sort(run.begin(), run.end(),
                  [](const KvPair& a, const KvPair& b) { return a.key < b.key; });
        for (const auto& p : run) {
            f.append(p);
            all.push_back(p);
        }
        streams.emplace_back(f.bytes().begin(), f.bytes().end());
    }
    EXPECT_EQ(reduce_streams(streams, AggFnId::kSumI32),
              sort_scan_combine(all, AggFnId::kSumI32));
    EXPECT_EQ(reduce_sorted_streams(streams, AggFnId::kSumI32),
              sort_scan_combine(all, AggFnId::kSumI32));
}

TEST(Reduce, DaietPayloadVariantAgrees) {
    Rng rng{9};
    std::vector<KvPair> all;
    std::vector<std::vector<std::byte>> payloads;
    for (int n = 0; n < 50; ++n) {
        std::vector<KvPair> packet;
        const auto count = 1 + rng.next_below(10);
        for (std::uint64_t i = 0; i < count; ++i) {
            packet.push_back(KvPair{Key16{"k" + std::to_string(rng.next_below(40))},
                                    wire_from_i32(2)});
        }
        all.insert(all.end(), packet.begin(), packet.end());
        payloads.push_back(serialize_data(1, packet));
    }
    EXPECT_EQ(reduce_daiet_payloads(payloads, AggFnId::kSumI32),
              sort_scan_combine(all, AggFnId::kSumI32));
}

/// `count` DATA payloads of 1-10 pairs each over a 40-key vocabulary.
std::vector<std::vector<std::byte>> random_payloads(Rng& rng, int count) {
    std::vector<std::vector<std::byte>> payloads;
    for (int n = 0; n < count; ++n) {
        std::vector<KvPair> packet;
        const auto pairs = 1 + rng.next_below(10);
        for (std::uint64_t i = 0; i < pairs; ++i) {
            packet.push_back(KvPair{Key16{"k" + std::to_string(rng.next_below(40))},
                                    wire_from_i32(static_cast<std::int32_t>(i + 1))});
        }
        payloads.push_back(serialize_data(5, packet));
    }
    return payloads;
}

TEST(Reduce, DaietPayloadBlocksMatchOnePayloadPerVector) {
    Rng rng{31};
    const auto payloads = random_payloads(rng, 300);
    // The same payloads concatenated back to back, 1-20 to a block.
    std::vector<std::vector<std::byte>> blocks;
    for (std::size_t i = 0; i < payloads.size();) {
        auto& block = blocks.emplace_back();
        for (auto k = 1 + rng.next_below(20); k > 0 && i < payloads.size(); --k, ++i) {
            block.insert(block.end(), payloads[i].begin(), payloads[i].end());
        }
    }
    ASSERT_LT(blocks.size(), payloads.size());
    const auto expected = reduce_daiet_payloads(payloads, AggFnId::kSumI32);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(reduce_daiet_payloads(blocks, AggFnId::kSumI32), expected);
}

/// Two hosts on a plain L2 star: h0 sends, h1 collects.
struct CollectorStar {
    sim::Network net;
    sim::StarTopology topo = sim::make_star(net, 2, sim::l2_switches(net));

    CollectorStar() { net.install_routes(); }
    void send(std::span<const std::byte> payload) {
        topo.hosts[0]->udp_send(topo.hosts[1]->addr(), kMapperUdpPort, kDaietUdpPort,
                                payload);
    }
};

TEST(RawCollector, BlocksHoldWholePayloadsOnly) {
    CollectorStar star;
    RawCollector rx{*star.topo.hosts[1], 5, 1};
    Rng rng{32};
    const auto payloads = random_payloads(rng, 2000);
    std::vector<std::byte> sent;
    std::uint32_t pairs = 0;
    for (const auto& payload : payloads) {
        star.send(payload);
        sent.insert(sent.end(), payload.begin(), payload.end());
        pairs += static_cast<std::uint8_t>(payload[5]);
    }
    star.send(serialize_end(5, pairs));
    star.net.run();
    ASSERT_TRUE(rx.complete());
    EXPECT_TRUE(rx.clean());
    EXPECT_EQ(rx.data_packets(), payloads.size());

    // Several blocks, each a whole number of payloads within the cap,
    // together the payloads in arrival order.
    ASSERT_GT(rx.blocks().size(), 2U);
    std::vector<std::byte> received;
    for (const auto& block : rx.blocks()) {
        EXPECT_LE(block.size(), RawCollector::kBlockBytes);
        std::size_t off = 0;
        while (off + kPreambleSize <= block.size()) {
            off += data_packet_size(static_cast<std::uint8_t>(block[off + 5]));
        }
        EXPECT_EQ(off, block.size());
        received.insert(received.end(), block.begin(), block.end());
    }
    EXPECT_EQ(received, sent);
    EXPECT_EQ(reduce_daiet_payloads(rx.blocks(), AggFnId::kSumI32),
              reduce_daiet_payloads(payloads, AggFnId::kSumI32));
}

TEST(RawCollector, IgnoresAndCountsMalformedPayloads) {
    const auto data = serialize_data(5, std::vector{KvPair{Key16{"x"}, 1}});
    const auto end = serialize_end(5, 1);
    std::vector<std::pair<const char*, std::vector<std::byte>>> bad;
    bad.emplace_back("truncated DATA", std::vector<std::byte>{data.begin(), data.end() - 1});
    bad.emplace_back("n = 0", std::vector<std::byte>{data.begin(), data.begin() + kPreambleSize});
    bad.back().second[5] = std::byte{0};
    bad.emplace_back("unknown type", data);
    bad.back().second[2] = std::byte{3};
    bad.emplace_back("truncated END", std::vector<std::byte>{end.begin(), end.end() - 2});
    for (const auto& [name, payload] : bad) {
        SCOPED_TRACE(name);
        CollectorStar star;
        RawCollector rx{*star.topo.hosts[1], 5, 1};
        star.send(payload);
        star.net.run();
        EXPECT_EQ(rx.malformed(), 1U);
        EXPECT_EQ(rx.data_packets(), 0U);
        EXPECT_EQ(rx.ends(), 0U);

        // The next round collects exactly and reads clean.
        Config cfg;
        MapperSender tx{*star.topo.hosts[0], cfg, 5, star.topo.hosts[1]->addr()};
        tx.send_all(std::vector{KvPair{Key16{"a"}, wire_from_i32(1)},
                                KvPair{Key16{"a"}, wire_from_i32(2)}});
        tx.finish();
        star.net.run();
        EXPECT_TRUE(rx.complete());
        EXPECT_TRUE(rx.clean());
        EXPECT_EQ(reduce_daiet_payloads(rx.blocks(), AggFnId::kSumI32),
                  (std::vector{KvPair{Key16{"a"}, wire_from_i32(3)}}));
    }
}

TEST(RawCollector, RoundThatLostAMalformedPayloadReadsDirty) {
    CollectorStar star;
    RawCollector rx{*star.topo.hosts[1], 5, 1};
    auto truncated = serialize_data(5, std::vector{KvPair{Key16{"x"}, 1}});
    truncated.pop_back();
    star.send(truncated);
    star.send(serialize_end(5, 1));  // declares the lost pair
    star.net.run();
    EXPECT_TRUE(rx.complete());
    EXPECT_FALSE(rx.clean());
    EXPECT_EQ(rx.malformed(), 1U);
}

TEST(Reduce, AllReducersAgreeOnFullWidthKeys) {
    // Property: every reducer computes the same result when keys use all
    // 16 bytes. The short ASCII keys above leave bytes 8-15 zero; here a
    // third of the vocabulary shares its first 8 bytes with an earlier
    // key, so the second word decides many compares.
    Rng rng{15};
    std::vector<Key16> vocab;
    for (int i = 0; i < 150; ++i) {
        std::array<std::byte, Key16::width> raw{};
        for (auto& b : raw) b = static_cast<std::byte>(rng.next_below(256));
        if (i % 3 == 0 && !vocab.empty()) {
            const Key16& prefix = vocab[rng.next_below(vocab.size())];
            std::copy_n(prefix.bytes().begin(), 8, raw.begin());
        }
        vocab.push_back(Key16{std::span<const std::byte>{raw}});
    }
    std::vector<KvPair> all;
    std::vector<std::vector<KvPair>> runs(4);
    for (int i = 0; i < 3000; ++i) {
        const KvPair p{vocab[rng.next_below(vocab.size())],
                       wire_from_i32(static_cast<std::int32_t>(rng.next_int(-5, 5)))};
        all.push_back(p);
        runs[rng.next_below(runs.size())].push_back(p);
    }
    std::vector<std::vector<std::byte>> streams;
    for (auto& run : runs) {
        std::sort(run.begin(), run.end(),
                  [](const KvPair& a, const KvPair& b) { return a.key < b.key; });
        const IntermediateFile file{run};
        streams.emplace_back(file.bytes().begin(), file.bytes().end());
    }
    std::vector<std::vector<std::byte>> payloads;
    for (std::size_t off = 0; off < all.size(); off += 10) {
        payloads.push_back(serialize_data(
            1, std::span{all}.subspan(off, std::min<std::size_t>(10, all.size() - off))));
    }

    const auto expected = reduce_pairs(all, AggFnId::kSumI32);
    EXPECT_GT(expected.size(), 100U);
    for (std::size_t i = 1; i < expected.size(); ++i) {
        ASSERT_TRUE(std::ranges::lexicographical_compare(expected[i - 1].key.bytes(),
                                                         expected[i].key.bytes()));
    }
    EXPECT_EQ(sort_scan_combine(all, AggFnId::kSumI32), expected);
    EXPECT_EQ(merge_sorted_runs(runs, AggFnId::kSumI32), expected);
    EXPECT_EQ(reduce_streams(streams, AggFnId::kSumI32), expected);
    EXPECT_EQ(reduce_sorted_streams(streams, AggFnId::kSumI32), expected);
    EXPECT_EQ(reduce_daiet_payloads(payloads, AggFnId::kSumI32), expected);
}

TEST(Reduce, AllReducersAgreeOnEmptyInput) {
    const std::vector<KvPair> none;
    EXPECT_TRUE(reduce_pairs(none, AggFnId::kSumI32).empty());
    EXPECT_TRUE(sort_scan_combine(none, AggFnId::kSumI32).empty());
    // No runs or streams at all, then one empty run or stream.
    EXPECT_TRUE(merge_sorted_runs({}, AggFnId::kSumI32).empty());
    EXPECT_TRUE(merge_sorted_runs({{}}, AggFnId::kSumI32).empty());
    EXPECT_TRUE(reduce_streams({}, AggFnId::kSumI32).empty());
    EXPECT_TRUE(reduce_streams({{}}, AggFnId::kSumI32).empty());
    EXPECT_TRUE(reduce_sorted_streams({}, AggFnId::kSumI32).empty());
    EXPECT_TRUE(reduce_sorted_streams({{}}, AggFnId::kSumI32).empty());
    // An empty payload list.
    EXPECT_TRUE(reduce_daiet_payloads({}, AggFnId::kSumI32).empty());
}

TEST(Reduce, TimeSecondsMeasuresWork) {
    const double secs = time_seconds([] {
        volatile double x = 0;
        for (int i = 0; i < 100000; ++i) x = x + 1.0;
    });
    EXPECT_GT(secs, 0.0);
    EXPECT_LT(secs, 1.0);
}

// ----------------------------------------------------------- full jobs

struct JobModeTest : public ::testing::TestWithParam<ShuffleMode> {};

TEST_P(JobModeTest, ProducesCorrectOutputAndSaneMetrics) {
    CorpusConfig cc = small_corpus();
    const Corpus corpus{cc};
    JobOptions opts;
    opts.mode = GetParam();
    opts.daiet.register_size = 1024;
    opts.daiet.max_trees = 3;
    const auto result = run_wordcount_job(corpus, opts);

    // The job itself validates per-reducer output against a local
    // reference; validate the merged output against the corpus too.
    const auto expected = corpus.reference_counts();
    ASSERT_EQ(result.output.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(result.output[i].first, expected[i].first);
        EXPECT_EQ(result.output[i].second, expected[i].second);
    }
    EXPECT_EQ(result.reducers.size(), cc.num_reducers);
    EXPECT_EQ(result.total_pairs_shuffled, cc.total_words);
    for (const auto& r : result.reducers) {
        EXPECT_GT(r.frames_received, 0U);
        EXPECT_GT(r.payload_bytes_received, 0U);
        EXPECT_GT(r.reduce_seconds, 0.0);
    }
}

TEST_P(JobModeTest, PhasesSplitTheWallTime) {
    const Corpus corpus{small_corpus()};
    JobOptions opts;
    opts.mode = GetParam();
    opts.daiet.register_size = 1024;
    opts.daiet.max_trees = 3;
    const auto start = std::chrono::steady_clock::now();
    const auto result = run_wordcount_job(corpus, opts);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    const JobPhases& p = result.phases;
    for (const double phase : {p.map_s, p.build_s, p.presort_s, p.shuffle_s, p.reduce_s,
                               p.check_s, p.output_s}) {
        EXPECT_GE(phase, 0.0);
    }
    if (GetParam() == ShuffleMode::kTcpBaseline) {
        EXPECT_GT(p.presort_s, 0.0);
    } else {
        EXPECT_EQ(p.presort_s, 0.0);
    }
    EXPECT_GT(p.shuffle_s, 0.0);
    // The timed repeats of every reducer run inside the reduce phase.
    double timed = 0.0;
    for (const auto& r : result.reducers) timed += r.reduce_seconds;
    EXPECT_GE(p.reduce_s, timed);
    EXPECT_LE(p.sum(), wall);
}

INSTANTIATE_TEST_SUITE_P(AllModes, JobModeTest,
                         ::testing::Values(ShuffleMode::kTcpBaseline,
                                           ShuffleMode::kUdpNoAgg,
                                           ShuffleMode::kDaiet),
                         [](const auto& info) {
                             std::string name{to_string(info.param)};
                             std::replace(name.begin(), name.end(), '-', '_');
                             return name;
                         });

TEST(Job, DaietReducesDataVolume) {
    CorpusConfig cc = small_corpus();
    cc.total_words = 10000;  // multiplicity 20 -> deep aggregation
    const Corpus corpus{cc};
    JobOptions base;
    base.mode = ShuffleMode::kUdpNoAgg;
    base.daiet.register_size = 1024;
    base.daiet.max_trees = 3;
    JobOptions daiet = base;
    daiet.mode = ShuffleMode::kDaiet;

    const auto r_base = run_wordcount_job(corpus, base);
    const auto r_daiet = run_wordcount_job(corpus, daiet);
    EXPECT_LT(r_daiet.total_payload_bytes_at_reducers(),
              r_base.total_payload_bytes_at_reducers() / 4);
    EXPECT_LT(r_daiet.total_frames_at_reducers(),
              r_base.total_frames_at_reducers() / 4);
}

TEST(Job, WorkerCombinerShrinksShuffleButNotOutput) {
    CorpusConfig cc = small_corpus();
    cc.total_words = 10000;
    const Corpus corpus{cc};
    JobOptions plain;
    plain.mode = ShuffleMode::kUdpNoAgg;
    plain.daiet.max_trees = 3;
    JobOptions combined = plain;
    combined.worker_combiner = true;

    const auto r_plain = run_wordcount_job(corpus, plain);
    const auto r_comb = run_wordcount_job(corpus, combined);
    EXPECT_LT(r_comb.total_pairs_shuffled, r_plain.total_pairs_shuffled);
    EXPECT_EQ(r_comb.output, r_plain.output);
}

TEST(Job, LeafSpineDaietAggregatesAtEveryLevel) {
    CorpusConfig cc = small_corpus();
    const Corpus corpus{cc};
    JobOptions opts;
    opts.mode = ShuffleMode::kDaiet;
    opts.daiet.register_size = 1024;
    opts.daiet.max_trees = 3;
    opts.topology = rt::TopologyKind::kLeafSpine;
    opts.n_leaf = 2;
    opts.n_spine = 2;
    const auto result = run_wordcount_job(corpus, opts);
    const auto expected = corpus.reference_counts();
    ASSERT_EQ(result.output.size(), expected.size());
    EXPECT_EQ(result.output.front().first, expected.front().first);
}

TEST(Job, UdpBaselineNotLimitedBySwitchTreeBudget) {
    // The plain-UDP baseline runs on L2 switches where tree ids consume
    // no registers; fewer register slots than reducers must not matter.
    CorpusConfig cc = small_corpus();  // 3 reducers
    const Corpus corpus{cc};
    JobOptions opts;
    opts.mode = ShuffleMode::kUdpNoAgg;
    opts.daiet.max_trees = 1;
    const auto result = run_wordcount_job(corpus, opts);
    EXPECT_EQ(result.output.size(), corpus.reference_counts().size());
}

TEST(Job, TcpBaselineMergeReducerVariant) {
    CorpusConfig cc = small_corpus();
    const Corpus corpus{cc};
    JobOptions opts;
    opts.mode = ShuffleMode::kTcpBaseline;
    opts.baseline_merge_reducer = true;
    const auto result = run_wordcount_job(corpus, opts);
    EXPECT_EQ(result.output.size(), corpus.reference_counts().size());
}

}  // namespace
}  // namespace daiet::mr
