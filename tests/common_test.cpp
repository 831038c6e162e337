// Unit and property tests for src/common.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/fixed_key.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace daiet {
namespace {

// ---------------------------------------------------------------- rng

TEST(Rng, IsDeterministicForSameSeed) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a{1};
    Rng b{2};
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
    Rng rng{7};
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.next_below(bound), bound);
        }
    }
}

TEST(Rng, NextBelowOneAlwaysZero) {
    Rng rng{7};
    for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0U);
}

TEST(Rng, NextIntCoversClosedRange) {
    Rng rng{3};
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.next_int(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5U);
}

TEST(Rng, NextDoubleInUnitInterval) {
    Rng rng{11};
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliMatchesProbability) {
    Rng rng{5};
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMomentsAreStandard) {
    Rng rng{13};
    constexpr int kN = 50000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < kN; ++i) {
        const double x = rng.next_gaussian();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / kN;
    const double stddev = std::sqrt((sum_sq - kN * mean * mean) / (kN - 1));
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(stddev, 1.0, 0.03);
}

TEST(Rng, ForkIsDeterministicAndDivergesFromParent) {
    Rng a{21};
    Rng child_a = a.fork();
    Rng b{21};
    Rng child_b = b.fork();
    int child_matches = 0;
    int parent_matches = 0;
    for (int i = 0; i < 100; ++i) {
        const auto va = child_a.next_u64();
        if (va == child_b.next_u64()) ++child_matches;
        if (va == a.next_u64()) ++parent_matches;
    }
    EXPECT_EQ(child_matches, 100) << "fork must be deterministic";
    EXPECT_LT(parent_matches, 3) << "child must not track the parent stream";
}

TEST(Rng, ShufflePreservesElements) {
    Rng rng{17};
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    auto copy = v;
    rng.shuffle(copy);
    EXPECT_NE(copy, v) << "astronomically unlikely to be identity";
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, v);
}

TEST(ZipfSampler, UniformWhenExponentZero) {
    ZipfSampler zipf{10, 0.0};
    Rng rng{1};
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / 50000.0, 0.1, 0.02);
    }
}

TEST(ZipfSampler, SkewFavorsLowRanks) {
    ZipfSampler zipf{1000, 1.0};
    Rng rng{2};
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
    EXPECT_GT(counts[0], counts[9] * 2);
    EXPECT_GT(counts[0], counts[99] * 10);
}

TEST(ZipfSampler, AllRanksReachable) {
    ZipfSampler zipf{5, 0.5};
    Rng rng{3};
    std::set<std::size_t> seen;
    for (int i = 0; i < 10000; ++i) seen.insert(zipf(rng));
    EXPECT_EQ(seen.size(), 5U);
}

// --------------------------------------------------------------- hash

TEST(Hash, Fnv1a64MatchesKnownVectors) {
    // Standard FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, Crc32MatchesKnownVectors) {
    // CRC-32/ISO-HDLC ("123456789" -> 0xCBF43926).
    EXPECT_EQ(Crc32::compute("123456789"), 0xCBF43926U);
    EXPECT_EQ(Crc32::compute(""), 0x00000000U);
    EXPECT_EQ(Crc32::compute("The quick brown fox jumps over the lazy dog"),
              0x414FA339U);
}

TEST(Hash, SpanAndStringViewAgree) {
    const std::string s = "daiet";
    EXPECT_EQ(Crc32::compute(s), Crc32::compute(as_bytes(s)));
    EXPECT_EQ(fnv1a64(s), fnv1a64(as_bytes(s)));
}

TEST(Hash, Mix64IsInjectiveOnSample) {
    std::unordered_set<std::uint64_t> outputs;
    for (std::uint64_t i = 0; i < 10000; ++i) outputs.insert(mix64(i));
    EXPECT_EQ(outputs.size(), 10000U);
}

// -------------------------------------------------------------- bytes

TEST(Bytes, RoundTripScalars) {
    ByteWriter w;
    w.put_u8(0xAB);
    w.put_u16(0x1234);
    w.put_u32(0xDEADBEEF);
    w.put_u64(0x0123456789ABCDEFULL);

    ByteReader r{w.bytes()};
    EXPECT_EQ(r.get_u8(), 0xAB);
    EXPECT_EQ(r.get_u16(), 0x1234);
    EXPECT_EQ(r.get_u32(), 0xDEADBEEFU);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
    EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, BigEndianLayout) {
    ByteWriter w;
    w.put_u16(0x0102);
    const auto bytes = w.bytes();
    EXPECT_EQ(static_cast<int>(bytes[0]), 1);
    EXPECT_EQ(static_cast<int>(bytes[1]), 2);
}

TEST(Bytes, ReaderThrowsPastEnd) {
    ByteWriter w;
    w.put_u16(7);
    ByteReader r{w.bytes()};
    r.get_u8();
    EXPECT_THROW(r.get_u32(), BufferError);
}

TEST(Bytes, WriterCapacityEnforced) {
    ByteWriter w{4};
    w.put_u32(1);
    EXPECT_THROW(w.put_u8(1), BufferError);
}

TEST(Bytes, StringsAndRawBytes) {
    ByteWriter w;
    w.put_string("hello");
    w.put_bytes(as_bytes("abc"));
    ByteReader r{w.bytes()};
    const auto hello = r.get_bytes(5);
    EXPECT_TRUE(std::equal(hello.begin(), hello.end(), as_bytes("hello").begin()));
    EXPECT_EQ(r.remaining(), 3U);
    r.skip(3);
    EXPECT_TRUE(r.exhausted());
}

// ----------------------------------------------------------- FixedKey

TEST(FixedKey, DefaultIsEmptySentinel) {
    Key16 k;
    EXPECT_TRUE(k.empty());
    EXPECT_EQ(k.to_string(), "");
}

TEST(FixedKey, RoundTripsShortStrings) {
    Key16 k{"hello"};
    EXPECT_FALSE(k.empty());
    EXPECT_EQ(k.to_string(), "hello");
}

TEST(FixedKey, ExactWidthString) {
    const std::string s(16, 'x');
    Key16 k{s};
    EXPECT_EQ(k.to_string(), s);
}

TEST(FixedKey, RejectsOverlongStrings) {
    EXPECT_THROW(Key16{std::string(17, 'x')}, std::length_error);
}

TEST(FixedKey, OrderingIsLexicographic) {
    EXPECT_LT(Key16{"abc"}, Key16{"abd"});
    EXPECT_LT(Key16{"ab"}, Key16{"abc"});  // zero-padding sorts first
    EXPECT_EQ(Key16{"same"}, Key16{"same"});
}

TEST(FixedKey, U64RoundTrip) {
    for (const std::uint64_t v : {0ULL, 1ULL, 0xFFFFFFFFFFFFFFFFULL, 12345678ULL}) {
        EXPECT_EQ(Key16::from_u64(v).to_u64(), v);
    }
}

TEST(FixedKey, HashConsistentWithEquality) {
    Key16 a{"hello"};
    Key16 b{"hello"};
    EXPECT_EQ(std::hash<Key16>{}(a), std::hash<Key16>{}(b));
}

TEST(FixedKey, MemcmpOrderingMatchesArrayOrdering) {
    // Property: <=> agrees with byte-array lexicographic comparison on
    // random keys.
    Rng rng{5};
    for (int i = 0; i < 2000; ++i) {
        const auto a = Key16::from_u64(rng.next_u64());
        const auto b = Key16::from_u64(rng.next_u64());
        const bool lt = std::lexicographical_compare(
            a.bytes().begin(), a.bytes().end(), b.bytes().begin(), b.bytes().end());
        EXPECT_EQ(a < b, lt);
    }
}

/// 16 random bytes, drawn from `alphabet` when it is non-empty.
Key16 random_key16(Rng& rng, std::span<const std::uint8_t> alphabet = {}) {
    std::array<std::byte, 16> raw{};
    for (auto& b : raw) {
        b = static_cast<std::byte>(alphabet.empty()
                                       ? rng.next_below(256)
                                       : alphabet[rng.next_below(alphabet.size())]);
    }
    return Key16{std::span<const std::byte>{raw}};
}

/// `k` with bytes [from, 16) redrawn at random.
Key16 redraw_suffix(Rng& rng, const Key16& k, std::size_t from) {
    std::array<std::byte, 16> raw{};
    std::copy(k.bytes().begin(), k.bytes().end(), raw.begin());
    for (std::size_t i = from; i < raw.size(); ++i) {
        raw[i] = static_cast<std::byte>(rng.next_below(256));
    }
    return Key16{std::span<const std::byte>{raw}};
}

TEST(FixedKey, WordOrderingMatchesByteOrderOnFullWidthKeys) {
    // Property: <=> is byte-lexicographic order over all 16 bytes. The
    // pairs cover arbitrary bytes (>= 0x80 included), keys equal in
    // bytes 0-7 that differ only in bytes 8-15, first differences at
    // the word boundary (bytes 7 and 8), and equal keys.
    constexpr std::uint8_t kEdgeBytes[] = {0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff};
    Rng rng{15};
    for (int i = 0; i < 10000; ++i) {
        const Key16 a = i % 5 == 4 ? random_key16(rng, kEdgeBytes) : random_key16(rng);
        Key16 b;
        switch (i % 5) {
            case 0: b = random_key16(rng); break;
            case 1: b = redraw_suffix(rng, a, 8); break;  // same first word
            case 2: b = redraw_suffix(rng, a, 7 + rng.next_below(2)); break;
            case 3: b = a; break;
            default: b = random_key16(rng, kEdgeBytes); break;
        }
        const bool lt = std::ranges::lexicographical_compare(a.bytes(), b.bytes());
        const bool gt = std::ranges::lexicographical_compare(b.bytes(), a.bytes());
        EXPECT_EQ(a < b, lt) << "pair " << i;
        EXPECT_EQ(a > b, gt) << "pair " << i;
        EXPECT_EQ(a == b, !lt && !gt) << "pair " << i;
        EXPECT_EQ((a <=> b) == std::strong_ordering::equal, a == b) << "pair " << i;
    }
}

TEST(FixedKey, SortGivesByteLexicographicOrder) {
    constexpr std::uint8_t kEdgeBytes[] = {0x00, 0x7f, 0x80, 0xff};
    Rng rng{16};
    std::vector<Key16> keys;
    for (int i = 0; i < 4000; ++i) {
        keys.push_back(i % 2 == 0 ? random_key16(rng) : random_key16(rng, kEdgeBytes));
        if (i % 3 == 0) keys.push_back(redraw_suffix(rng, keys.back(), 8));
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 1; i < keys.size(); ++i) {
        ASSERT_FALSE(std::ranges::lexicographical_compare(keys[i].bytes(),
                                                          keys[i - 1].bytes()))
            << "keys " << i - 1 << " and " << i << " out of byte order";
    }
}

TEST(FixedKey, EmptyIsAllZeroBytes) {
    EXPECT_TRUE(Key16{std::string(16, '\0')}.empty());
    for (std::size_t i = 0; i < Key16::width; ++i) {
        std::array<std::byte, 16> raw{};
        raw[i] = std::byte{0x80};
        EXPECT_FALSE(Key16{std::span<const std::byte>{raw}}.empty()) << "byte " << i;
    }
}

// -------------------------------------------------------------- stats

TEST(LogHistogram, ExactCountSumMinMax) {
    LogHistogram h;
    EXPECT_TRUE(h.empty());
    for (int i = 1; i <= 1000; ++i) h.add(i);
    EXPECT_EQ(h.count(), 1000U);
    EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(LogHistogram, QuantilesTrackExactWithinRelativeError) {
    // The log-bucketed quantiles must track the exact (sorted-sample)
    // quantiles within the documented ~1.6% relative error.
    Rng rng{23};
    LogHistogram h;
    Samples exact;
    for (int i = 0; i < 20000; ++i) {
        // Latency-shaped: lognormal-ish spread over several octaves.
        const double v = std::exp(rng.next_gaussian() * 1.5 + 10.0);
        h.add(v);
        exact.add(v);
    }
    for (const double q : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        const double want = exact.percentile(q);
        const double got = h.percentile(q);
        EXPECT_NEAR(got, want, want * 0.02) << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(h.quantile(0.0), exact.min());
    EXPECT_DOUBLE_EQ(h.quantile(1.0), exact.max());
}

TEST(LogHistogram, MergeEqualsCombinedStream) {
    Rng rng{31};
    LogHistogram a;
    LogHistogram b;
    LogHistogram all;
    for (int i = 0; i < 4000; ++i) {
        const double v = std::exp(rng.next_gaussian() + 5.0);
        (i % 2 == 0 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    // Sums differ only by float addition order.
    EXPECT_NEAR(a.sum(), all.sum(), all.sum() * 1e-12);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.percentile(99.0), all.percentile(99.0));

    LogHistogram empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    empty.merge(a);
    EXPECT_EQ(empty.count(), all.count());
    EXPECT_DOUBLE_EQ(empty.min(), all.min());
}

TEST(Samples, ExactPercentiles) {
    Samples s;
    for (int i = 1; i <= 100; ++i) s.add(i);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(25), 25.75, 1e-9);
}

TEST(Samples, SingleElement) {
    Samples s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.median(), 7.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(BoxPlot, FiveNumberSummary) {
    Samples s;
    for (int i = 0; i <= 10; ++i) s.add(i);
    const auto box = BoxPlot::of(s);
    EXPECT_DOUBLE_EQ(box.min, 0.0);
    EXPECT_DOUBLE_EQ(box.median, 5.0);
    EXPECT_DOUBLE_EQ(box.max, 10.0);
    EXPECT_DOUBLE_EQ(box.q1, 2.5);
    EXPECT_DOUBLE_EQ(box.q3, 7.5);
    EXPECT_EQ(box.n, 11U);
    EXPECT_FALSE(box.to_string().empty());
}

// -------------------------------------------------------------- table

TEST(TextTable, RendersAlignedColumns) {
    TextTable t{{"name", "value"}};
    t.add_row({"alpha", "1"});
    t.add_row({"b", "10000"});
    const auto text = t.render();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("10000"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
    EXPECT_EQ(t.rows(), 2U);
}

TEST(TextTable, Formatters) {
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.885, 1), "88.5%");
}

}  // namespace
}  // namespace daiet
