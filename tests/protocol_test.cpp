// Tests for the DAIET wire protocol and aggregation functions, and a
// mutation fuzz of every tenant's wire parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <exception>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/aggregation.hpp"
#include "core/protocol.hpp"
#include "directory/protocol.hpp"
#include "kvcache/protocol.hpp"
#include "telemetry/protocol.hpp"

namespace daiet {
namespace {

// ----------------------------------------------------------- protocol

TEST(Protocol, DataRoundTrip) {
    std::vector<KvPair> pairs;
    for (int i = 0; i < 7; ++i) {
        pairs.push_back(KvPair{Key16{"key" + std::to_string(i)},
                               wire_from_i32(i * 10)});
    }
    const auto bytes = serialize_data(42, pairs);
    EXPECT_EQ(bytes.size(), data_packet_size(7));
    EXPECT_TRUE(looks_like_daiet(bytes));

    const auto parsed = parse_packet(bytes);
    const auto* data = std::get_if<DataPacket>(&parsed);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->tree_id, 42);
    EXPECT_EQ(data->pairs, pairs);
}

TEST(Protocol, EndRoundTrip) {
    const auto bytes = serialize_end(7, 123456, true);
    EXPECT_EQ(bytes.size(), kEndPacketSize);
    const auto parsed = parse_packet(bytes);
    const auto* end = std::get_if<EndPacket>(&parsed);
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(end->tree_id, 7);
    EXPECT_EQ(end->declared_pairs, 123456U);
    EXPECT_TRUE(end->dirty);
}

TEST(Protocol, EndDefaultsAreCleanZero) {
    const auto parsed = parse_packet(serialize_end(3));
    const auto* end = std::get_if<EndPacket>(&parsed);
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(end->declared_pairs, 0U);
    EXPECT_FALSE(end->dirty);
}

TEST(Protocol, TenPairPacketFitsParseBudget) {
    // §5: hardware parses 200-300 B; 10 pairs must stay within that.
    EXPECT_LE(data_packet_size(10), 300U);
    EXPECT_EQ(data_packet_size(10), 206U);
}

TEST(Protocol, RejectsBadMagic) {
    auto bytes = serialize_end(1);
    bytes[0] = std::byte{0x00};
    EXPECT_FALSE(looks_like_daiet(bytes));
    EXPECT_THROW(parse_packet(bytes), BufferError);
}

TEST(Protocol, RejectsTruncatedData) {
    const std::vector<KvPair> pairs{KvPair{Key16{"a"}, 1}, KvPair{Key16{"b"}, 2}};
    auto bytes = serialize_data(1, pairs);
    bytes.resize(bytes.size() - 5);
    EXPECT_THROW(parse_packet(bytes), BufferError);
}

TEST(Protocol, RejectsZeroEntryData) {
    ByteWriter w;
    w.put_u16(kDaietMagic);
    w.put_u8(static_cast<std::uint8_t>(PacketType::kData));
    w.put_u16(1);
    w.put_u8(0);
    EXPECT_THROW(parse_packet(w.bytes()), BufferError);
}

TEST(Protocol, RejectsUnknownType) {
    ByteWriter w;
    w.put_u16(kDaietMagic);
    w.put_u8(99);
    w.put_u16(1);
    w.put_u8(0);
    EXPECT_THROW(parse_packet(w.bytes()), BufferError);
}

TEST(Protocol, ShortBufferIsNotDaiet) {
    const std::vector<std::byte> tiny(3);
    EXPECT_FALSE(looks_like_daiet(tiny));
}

TEST(Protocol, RandomRoundTripProperty) {
    Rng rng{99};
    for (int iter = 0; iter < 200; ++iter) {
        const auto n = 1 + rng.next_below(10);
        std::vector<KvPair> pairs;
        for (std::uint64_t i = 0; i < n; ++i) {
            pairs.push_back(KvPair{Key16::from_u64(rng.next_u64() | 1),
                                   static_cast<WireValue>(rng.next_u64())});
        }
        const auto tree = static_cast<TreeId>(rng.next_below(65536));
        const auto bytes = serialize_data(tree, pairs);
        const auto parsed = parse_packet(bytes);
        const auto* data = std::get_if<DataPacket>(&parsed);
        ASSERT_NE(data, nullptr);
        EXPECT_EQ(data->tree_id, tree);
        EXPECT_EQ(data->pairs, pairs);
    }
}

// ------------------------------------------------------------ key sort

TEST(KvPairSort, MatchesComparisonSort) {
    // sort_by_key must give exactly std::stable_sort's sequence by
    // operator<=>. Values number the pairs, so an unstable order of equal
    // keys shows too.
    Rng rng{2020};
    const auto check = [](const char* input, std::vector<Key16> keys) {
        std::vector<KvPair> pairs;
        for (const Key16& key : keys) {
            pairs.push_back(KvPair{key, static_cast<WireValue>(pairs.size())});
        }
        std::vector<KvPair> expected = pairs;
        std::stable_sort(expected.begin(), expected.end(),
                         [](const KvPair& a, const KvPair& b) { return a.key < b.key; });
        sort_by_key(pairs);
        EXPECT_TRUE(pairs == expected) << input << ", " << pairs.size() << " pairs";
    };
    const auto key_of = [](const std::array<std::byte, Key16::width>& raw) {
        return Key16{std::span<const std::byte>{raw}};
    };
    // Few byte values, half of them zero or >= 0x80: long shared
    // prefixes, zeros mid-key and deep buckets under every byte value.
    const auto random_key = [&] {
        static constexpr std::array<std::uint8_t, 6> alphabet{0x00, 0x00, 0x01,
                                                              0x7f, 0x80, 0xff};
        std::array<std::byte, Key16::width> raw{};
        const bool narrow = rng.next_below(2) == 0;
        for (auto& b : raw) {
            b = static_cast<std::byte>(narrow ? alphabet[rng.next_below(alphabet.size())]
                                              : rng.next_below(256));
        }
        return key_of(raw);
    };
    std::array<std::byte, Key16::width> prefix{};
    for (auto& b : prefix) b = static_cast<std::byte>(rng.next_below(256));
    const auto shared_prefix_key = [&] {
        std::array<std::byte, Key16::width> raw = prefix;
        raw.back() = static_cast<std::byte>(rng.next_below(256));
        return key_of(raw);
    };
    std::vector<Key16> few;
    for (int i = 0; i < 5; ++i) few.push_back(random_key());
    few.push_back(Key16{});

    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kKeySortCutoff - 1,
                                kKeySortCutoff, kKeySortCutoff + 1, std::size_t{100'000}}) {
        std::vector<Key16> random, shared, zeros, duplicates;
        for (std::size_t i = 0; i < n; ++i) {
            random.push_back(random_key());
            shared.push_back(shared_prefix_key());
            zeros.push_back(Key16{});
            duplicates.push_back(few[rng.next_below(few.size())]);
        }
        check("random bytes", random);
        check("15-byte shared prefix", shared);
        check("all-zero keys", zeros);
        check("duplicates", duplicates);
    }

    // Each scatter pass moves a bucket into the other buffer, so these
    // shapes finish buckets in the scratch half, which must be copied
    // back. bytes(b0, b1, b2) is a key with those leading bytes.
    const auto bytes = [&](std::uint8_t b0, std::uint8_t b1, std::uint8_t b2) {
        std::array<std::byte, Key16::width> raw{};
        raw[0] = std::byte{b0};
        raw[1] = std::byte{b1};
        raw[2] = std::byte{b2};
        return key_of(raw);
    };
    // Two buckets of 100 at byte 0, two of 50 under each at byte 1, then
    // a last scatter at byte 2 into scratch, all singletons.
    std::vector<Key16> three_passes;
    for (int i = 0; i < 200; ++i) {
        three_passes.push_back(bytes(static_cast<std::uint8_t>(i % 2),
                                     static_cast<std::uint8_t>(i / 2 % 2),
                                     static_cast<std::uint8_t>(255 - i / 4)));
    }
    check("last scatter into scratch", three_passes);
    // 40 copies of one key next to 40 distinct ones: after one pass the
    // copies sit in scratch and share every further byte (depth == width).
    std::vector<Key16> equal_run;
    for (int i = 0; i < 80; ++i) {
        equal_run.push_back(i % 2 == 0 ? bytes(9, 9, 9)
                                       : bytes(static_cast<std::uint8_t>(10 + i), 0, 0));
    }
    check("equal run after one pass", equal_run);
    // Singletons after the first pass (in scratch) and after a second
    // pass over a 50-key bucket (back home).
    std::vector<Key16> both_halves;
    for (int i = 0; i < 60; ++i) {
        both_halves.push_back(i < 10 ? bytes(static_cast<std::uint8_t>(200 - i), 0, 0)
                                     : bytes(7, static_cast<std::uint8_t>(i * 3), 0));
    }
    check("singletons in both halves", both_halves);
}

// ------------------------------------------------------- parser fuzzing

/// Seeded mutation fuzz of one wire parser: every truncation of each
/// golden message, then 5K random byte-flip (half of them biased to the
/// header bytes) and truncate mutations of each. A mutant must either
/// parse or throw BufferError, never any other exception; UB is left to
/// the sanitizer build. `on_parsed(msg, mutant)` checks every successful
/// parse. Returns how many mutants were {rejected, parsed}.
template <typename Parse, typename OnParsed>
std::array<std::size_t, 2> fuzz_parser(const std::vector<std::vector<std::byte>>& golden,
                                       Parse parse, OnParsed on_parsed) {
    std::array<std::size_t, 2> verdicts{};
    const auto verdict = [&](std::span<const std::byte> m) {
        try {
            on_parsed(parse(m), m);
            ++verdicts[1];
        } catch (const BufferError&) {
            ++verdicts[0];
        } catch (const std::exception& e) {
            ADD_FAILURE() << "non-BufferError exception: " << e.what();
        }
    };
    Rng rng{2017};
    for (const std::vector<std::byte>& bytes : golden) {
        for (std::size_t len = 0; len <= bytes.size(); ++len) verdict({bytes.data(), len});
        for (int i = 0; i < 5000; ++i) {
            std::vector<std::byte> m = bytes;
            const std::size_t reach =
                rng.next_below(2) == 0 ? std::min<std::size_t>(m.size(), 16) : m.size();
            for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
                m[rng.next_below(reach)] ^= static_cast<std::byte>(1 + rng.next_below(255));
            }
            if (rng.next_below(2) == 0) m.resize(rng.next_below(m.size() + 1));
            verdict(m);
        }
    }
    return verdicts;
}

std::vector<std::byte> bytes_of(std::span<const std::byte> s) { return {s.begin(), s.end()}; }

TEST(Parsers, KvParserSurvivesMutationAndRoundTrips) {
    std::vector<std::vector<std::byte>> golden;
    for (const kv::KvOp op :
         {kv::KvOp::kGet, kv::KvOp::kGetReply, kv::KvOp::kPut, kv::KvOp::kPutAck}) {
        kv::KvMessage msg;
        msg.op = op;
        msg.flags = kv::kKvFlagFound | kv::kKvFlagFromSwitch;
        msg.req_id = 0x01020304;
        msg.seq = 0x0a0b0c0d;
        msg.key = Key16{"user:fuzz"};
        msg.value = 0xdeadbeef;
        golden.push_back(bytes_of(kv::serialize_kv(msg)));
        // A valid message re-serializes byte-identically.
        EXPECT_EQ(bytes_of(kv::serialize_kv(kv::parse_kv(golden.back()))), golden.back());
    }
    // Every field is stored raw, so any mutant that parses does too.
    const auto v = fuzz_parser(golden, kv::parse_kv, [](const kv::KvMessage& msg, auto m) {
        EXPECT_EQ(bytes_of(kv::serialize_kv(msg)), bytes_of(m));
    });
    EXPECT_GT(v[0], 0U);
    EXPECT_GT(v[1], 0U);
}

TEST(Parsers, DirectoryParserSurvivesMutation) {
    std::vector<std::vector<std::byte>> golden;
    for (const dir::DirectoryOp op : {dir::DirectoryOp::kNack, dir::DirectoryOp::kInvalidate}) {
        dir::DirectoryMessage msg;
        msg.op = op;
        msg.seq = 0xfeedf00d;
        msg.tag = 0x0102030405060708ULL;
        msg.key = Key16{"user:fuzz"};
        golden.push_back(bytes_of(dir::serialize_directory(msg)));
    }
    const auto v = fuzz_parser(golden, dir::parse_directory,
                               [](const dir::DirectoryMessage&, auto) {});
    EXPECT_GT(v[0], 0U);
    EXPECT_GT(v[1], 0U);
}

TEST(Parsers, TelemetryParserSurvivesMutation) {
    using namespace telemetry;
    SummaryRecord summary;
    summary.frames_observed = 1234;
    summary.kv_gets = 56;
    const std::vector<PortStatRecord> ports{{.port = 1, .frames = 9, .bytes = 900},
                                            {.port = 2, .queue_drops = 3, .ecn_marks = 4}};
    const std::vector<HotKeyRecord> keys{{Key16{"hot:a"}, 40}, {Key16{"hot:b"}, 7},
                                         {Key16{"hot:c"}, 2}};
    const std::vector<std::vector<std::byte>> golden{
        serialize_probe(3, 17), serialize_summary(3, 17, summary),
        serialize_port_stats(3, 17, ports), serialize_hot_keys(3, 17, keys)};
    const auto v = fuzz_parser(golden, parse_telemetry, [](const TelemetryMessage&, auto) {});
    EXPECT_GT(v[0], 0U);
    EXPECT_GT(v[1], 0U);
}

TEST(Parsers, DaietParserSurvivesMutation) {
    std::vector<KvPair> pairs;
    for (int i = 0; i < 10; ++i) {
        pairs.push_back(KvPair{Key16{"key" + std::to_string(i)}, wire_from_i32(i)});
    }
    const std::vector<std::vector<std::byte>> golden{
        serialize_data(42, std::span{pairs}.first(3)), serialize_data(7, pairs),
        bytes_of(serialize_end(42, 30, true))};
    const auto v = fuzz_parser(golden, parse_packet, [](const DaietPacket&, auto) {});
    EXPECT_GT(v[0], 0U);
    EXPECT_GT(v[1], 0U);
}

// -------------------------------------------------------- aggregation

TEST(Aggregation, SumI32) {
    EXPECT_EQ(i32_from_wire(combine(AggFnId::kSumI32, wire_from_i32(5),
                                    wire_from_i32(7))),
              12);
    EXPECT_EQ(i32_from_wire(combine(AggFnId::kSumI32, wire_from_i32(-5),
                                    wire_from_i32(3))),
              -2);
}

TEST(Aggregation, SumI32WrapsWithoutUb) {
    const auto big = wire_from_i32(std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(i32_from_wire(combine(AggFnId::kSumI32, big, wire_from_i32(1))),
              std::numeric_limits<std::int32_t>::min());
}

TEST(Aggregation, SumF32) {
    const auto r = combine(AggFnId::kSumF32, wire_from_f32(1.5F), wire_from_f32(2.25F));
    EXPECT_FLOAT_EQ(f32_from_wire(r), 3.75F);
}

TEST(Aggregation, MinMax) {
    EXPECT_EQ(i32_from_wire(combine(AggFnId::kMinI32, wire_from_i32(5),
                                    wire_from_i32(-7))),
              -7);
    EXPECT_EQ(i32_from_wire(combine(AggFnId::kMaxI32, wire_from_i32(5),
                                    wire_from_i32(-7))),
              5);
}

TEST(Aggregation, CountIgnoresValue) {
    WireValue acc = first_value(AggFnId::kCount, wire_from_i32(999));
    EXPECT_EQ(i32_from_wire(acc), 1);
    acc = combine(AggFnId::kCount, acc, wire_from_i32(12345));
    EXPECT_EQ(i32_from_wire(acc), 2);
}

TEST(Aggregation, IdentityIsNeutral) {
    Rng rng{3};
    for (const auto fn : {AggFnId::kSumI32, AggFnId::kSumF32, AggFnId::kMinI32,
                          AggFnId::kMaxI32}) {
        for (int i = 0; i < 100; ++i) {
            WireValue v = static_cast<WireValue>(rng.next_u64());
            if (fn == AggFnId::kSumF32) {
                v = wire_from_f32(static_cast<float>(rng.next_gaussian()));
            }
            EXPECT_EQ(combine(fn, identity_of(fn), v), v)
                << "fn=" << to_string(fn);
        }
    }
}

TEST(Aggregation, CommutativeProperty) {
    Rng rng{4};
    for (const auto fn : {AggFnId::kSumI32, AggFnId::kMinI32, AggFnId::kMaxI32}) {
        for (int i = 0; i < 200; ++i) {
            const auto a = static_cast<WireValue>(rng.next_u64());
            const auto b = static_cast<WireValue>(rng.next_u64());
            EXPECT_EQ(combine(fn, a, b), combine(fn, b, a)) << to_string(fn);
        }
    }
}

TEST(Aggregation, AssociativeProperty) {
    Rng rng{5};
    for (const auto fn : {AggFnId::kSumI32, AggFnId::kMinI32, AggFnId::kMaxI32}) {
        for (int i = 0; i < 200; ++i) {
            const auto a = static_cast<WireValue>(rng.next_u64());
            const auto b = static_cast<WireValue>(rng.next_u64());
            const auto c = static_cast<WireValue>(rng.next_u64());
            EXPECT_EQ(combine(fn, combine(fn, a, b), c),
                      combine(fn, a, combine(fn, b, c)))
                << to_string(fn);
        }
    }
}

TEST(Aggregation, Names) {
    EXPECT_EQ(to_string(AggFnId::kSumI32), "sum_i32");
    EXPECT_EQ(to_string(AggFnId::kSumF32), "sum_f32");
    EXPECT_EQ(to_string(AggFnId::kMinI32), "min_i32");
    EXPECT_EQ(to_string(AggFnId::kMaxI32), "max_i32");
    EXPECT_EQ(to_string(AggFnId::kCount), "count");
}

}  // namespace
}  // namespace daiet
