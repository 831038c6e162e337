// Tests for the DAIET wire protocol and aggregation functions, and a
// table-driven sweep of every payload kind's decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <initializer_list>
#include <span>
#include <type_traits>
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
    const auto parsed = decode_daiet(bytes).value();
    const auto* data = std::get_if<DataPacket>(&parsed);
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->tree_id, 42);
    EXPECT_EQ(data->pairs, pairs);
}

TEST(Protocol, EndRoundTrip) {
    const auto bytes = serialize_end(7, 123456, true);
    EXPECT_EQ(bytes.size(), kEndPacketSize);
    const auto parsed = decode_daiet(bytes).value();
    const auto* end = std::get_if<EndPacket>(&parsed);
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(end->tree_id, 7);
    EXPECT_EQ(end->declared_pairs, 123456U);
    EXPECT_TRUE(end->dirty);
}

TEST(Protocol, EndDefaultsAreCleanZero) {
    const auto parsed = decode_daiet(serialize_end(3)).value();
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
    EXPECT_FALSE(decode_daiet(bytes));
}

TEST(Protocol, RejectsTruncatedData) {
    const std::vector<KvPair> pairs{KvPair{Key16{"a"}, 1}, KvPair{Key16{"b"}, 2}};
    auto bytes = serialize_data(1, pairs);
    bytes.resize(bytes.size() - 5);
    EXPECT_FALSE(decode_daiet(bytes));
}

TEST(Protocol, RejectsZeroEntryData) {
    ByteWriter w;
    w.put_u16(kDaietMagic);
    w.put_u8(static_cast<std::uint8_t>(PacketType::kData));
    w.put_u16(1);
    w.put_u8(0);
    EXPECT_FALSE(decode_daiet(w.bytes()));
}

TEST(Protocol, RejectsUnknownType) {
    ByteWriter w;
    w.put_u16(kDaietMagic);
    w.put_u8(99);
    w.put_u16(1);
    w.put_u8(0);
    EXPECT_FALSE(decode_daiet(w.bytes()));
}

TEST(Protocol, ShortBufferIsNotDaiet) {
    const std::vector<std::byte> tiny(3);
    EXPECT_FALSE(decode_daiet(tiny));
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
        const auto parsed = decode_daiet(bytes).value();
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

// ------------------------------------------------------ decoder fuzzing

// A decoder rejects bad bytes by returning nothing; none may throw.
static_assert(noexcept(kv::decode_kv({})));
static_assert(noexcept(dir::decode_directory({})));
static_assert(noexcept(telemetry::decode_telemetry({})));
static_assert(noexcept(decode_daiet({})));

std::vector<std::byte> bytes_of(std::span<const std::byte> s) { return {s.begin(), s.end()}; }

/// One valid wire of every op of each payload kind.
std::vector<std::vector<std::byte>> kv_wires() {
    std::vector<std::vector<std::byte>> out;
    for (const kv::KvOp op :
         {kv::KvOp::kGet, kv::KvOp::kGetReply, kv::KvOp::kPut, kv::KvOp::kPutAck}) {
        kv::KvMessage msg;
        msg.op = op;
        msg.flags = kv::kKvFlagFound | kv::kKvFlagFromSwitch;
        msg.req_id = 0x01020304;
        msg.seq = 0x0a0b0c0d;
        msg.key = Key16{"user:fuzz"};
        msg.value = 0xdeadbeef;
        out.push_back(bytes_of(kv::serialize_kv(msg)));
    }
    return out;
}

std::vector<std::vector<std::byte>> directory_wires() {
    std::vector<std::vector<std::byte>> out;
    for (const dir::DirectoryOp op : {dir::DirectoryOp::kNack, dir::DirectoryOp::kInvalidate}) {
        dir::DirectoryMessage msg;
        msg.op = op;
        msg.flags = 0x5a;
        msg.seq = 0xfeedf00d;
        msg.tag = 0x0102030405060708ULL;
        msg.key = Key16{"user:fuzz"};
        out.push_back(bytes_of(dir::serialize_directory(msg)));
    }
    return out;
}

std::vector<std::vector<std::byte>> telemetry_wires() {
    using namespace telemetry;
    SummaryRecord summary;
    summary.frames_observed = 1234;
    summary.bytes_observed = 0x0102030405060708ULL;
    summary.kv_gets = 56;
    summary.hot_dropped = 9;
    const std::vector<PortStatRecord> ports{{.port = 1, .frames = 9, .bytes = 900},
                                            {.port = 2, .queue_drops = 3, .ecn_marks = 4,
                                             .watermark_bytes = 77}};
    const std::vector<HotKeyRecord> keys{{Key16{"hot:a"}, 40}, {Key16{"hot:b"}, 7},
                                         {Key16{"hot:c"}, 2}};
    return {serialize_probe(3, 17), serialize_summary(3, 17, summary),
            serialize_port_stats(3, 17, ports), serialize_hot_keys(3, 17, keys)};
}

std::vector<std::vector<std::byte>> daiet_wires() {
    std::vector<KvPair> pairs;
    for (int i = 0; i < 10; ++i) {
        pairs.push_back(KvPair{Key16{"key" + std::to_string(i)}, wire_from_i32(i)});
    }
    return {serialize_data(42, std::span{pairs}.first(3)), serialize_data(7, pairs),
            bytes_of(serialize_end(42, 30, true))};
}

/// What a decoded message serializes back to.
std::vector<std::byte> reencode(const kv::KvMessage& m) { return bytes_of(kv::serialize_kv(m)); }
std::vector<std::byte> reencode(const dir::DirectoryMessage& m) {
    return bytes_of(dir::serialize_directory(m));
}
std::vector<std::byte> reencode(const telemetry::TelemetryMessage& m) {
    using namespace telemetry;
    switch (m.op) {
        case TelemetryOp::kProbe: return serialize_probe(m.switch_node, m.window);
        case TelemetryOp::kSummary:
            return serialize_summary(m.switch_node, m.window, m.summary);
        case TelemetryOp::kPortStats:
            return serialize_port_stats(m.switch_node, m.window, m.ports);
        case TelemetryOp::kHotKeys:
            return serialize_hot_keys(m.switch_node, m.window, m.hot_keys);
    }
    return {};
}
std::vector<std::byte> reencode(const DaietPacket& p) {
    if (const auto* data = std::get_if<DataPacket>(&p)) {
        return serialize_data(data->tree_id, std::vector<KvPair>(data->pairs.begin(),
                                                                 data->pairs.end()));
    }
    const auto& end = std::get<EndPacket>(p);
    return bytes_of(serialize_end(end.tree_id, end.declared_pairs, end.dirty));
}

/// True when `msg`, decoded from `wire`, serializes back to the bytes
/// it was decoded from. Decoders ignore trailing bytes (kv, directory,
/// telemetry), a probe's and a summary's count byte and an END's entry
/// count, and read any nonzero END dirty byte as set, so those bytes
/// are compared as the serializer writes them.
template <typename Message>
bool reencodes_to(const Message& msg, std::span<const std::byte> wire) {
    std::vector<std::byte> expected = bytes_of(wire);
    const std::vector<std::byte> again = reencode(msg);
    if (expected.size() < again.size()) return false;
    expected.resize(again.size());
    if constexpr (std::is_same_v<Message, telemetry::TelemetryMessage>) {
        if (msg.op == telemetry::TelemetryOp::kProbe) expected[3] = std::byte{0};
        if (msg.op == telemetry::TelemetryOp::kSummary) expected[3] = std::byte{1};
    }
    if constexpr (std::is_same_v<Message, DaietPacket>) {
        if (std::holds_alternative<EndPacket>(msg)) {
            expected[5] = std::byte{0};
            if (expected.back() != std::byte{0}) expected.back() = std::byte{1};
        }
    }
    return again == expected;
}

/// Table-driven sweep of one decoder over bad and good bytes: every
/// prefix of every golden wire (only the whole wire decodes), every op
/// byte 0-255 on each (an unknown op never decodes, the wire's own op
/// decodes to the wire), 5K seeded byte-flip and truncate mutants of
/// each (half biased to the header) and 2K seeded random payloads (half
/// behind the kind's magic). Every case either returns nothing or a
/// message that re-encodes to its bytes; decoders are noexcept, so a
/// throw would end the test binary. Returns how many cases were
/// {rejected, decoded}.
template <typename Decode>
std::array<std::size_t, 2> sweep_decoder(const std::vector<std::vector<std::byte>>& golden,
                                         Decode decode, std::uint16_t magic,
                                         std::initializer_list<std::uint8_t> known_ops) {
    std::array<std::size_t, 2> verdicts{};
    const auto verdict = [&](std::span<const std::byte> m) {
        const auto msg = decode(m);
        ++verdicts[msg.has_value()];
        if (msg) {
            EXPECT_TRUE(reencodes_to(*msg, m)) << "a " << m.size() << "-byte payload";
        }
        return msg.has_value();
    };
    const auto known = [&](std::uint8_t op) {
        return std::find(known_ops.begin(), known_ops.end(), op) != known_ops.end();
    };
    Rng rng{2017};
    for (const std::vector<std::byte>& bytes : golden) {
        for (std::size_t len = 0; len <= bytes.size(); ++len) {
            EXPECT_EQ(verdict({bytes.data(), len}), len == bytes.size()) << "prefix " << len;
        }
        for (int op = 0; op < 256; ++op) {
            std::vector<std::byte> m = bytes;
            m[2] = static_cast<std::byte>(op);
            const bool decoded = verdict(m);
            if (!known(static_cast<std::uint8_t>(op))) {
                EXPECT_FALSE(decoded) << "op " << op;
            }
            if (m[2] == bytes[2]) {
                EXPECT_TRUE(decoded) << "op " << op;
            }
        }
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
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::byte> m(rng.next_below(300));
        for (std::byte& b : m) b = static_cast<std::byte>(rng.next_below(256));
        if (m.size() >= 3 && rng.next_below(2) == 0) {
            m[0] = static_cast<std::byte>(magic >> 8);
            m[1] = static_cast<std::byte>(magic & 0xff);
            m[2] = static_cast<std::byte>(*(known_ops.begin() +
                                            rng.next_below(known_ops.size())));
        }
        verdict(m);
    }
    return verdicts;
}

TEST(Decoders, KvSurvivesEveryPrefixOpByteAndRandomBytes) {
    const auto v = sweep_decoder(kv_wires(), kv::decode_kv, kv::kKvMagic, {1, 2, 3, 4});
    EXPECT_GT(v[0], 0U);
    EXPECT_GT(v[1], 0U);
}

TEST(Decoders, DirectorySurvivesEveryPrefixOpByteAndRandomBytes) {
    const auto v = sweep_decoder(directory_wires(), dir::decode_directory,
                                 dir::kDirectoryMagic, {1, 2});
    EXPECT_GT(v[0], 0U);
    EXPECT_GT(v[1], 0U);
}

TEST(Decoders, TelemetrySurvivesEveryPrefixOpByteAndRandomBytes) {
    const auto v = sweep_decoder(telemetry_wires(), telemetry::decode_telemetry,
                                 telemetry::kTelemetryMagic, {1, 2, 3, 4});
    EXPECT_GT(v[0], 0U);
    EXPECT_GT(v[1], 0U);
}

TEST(Decoders, DaietSurvivesEveryPrefixOpByteAndRandomBytes) {
    const auto v = sweep_decoder(daiet_wires(), decode_daiet, kDaietMagic, {1, 2});
    EXPECT_GT(v[0], 0U);
    EXPECT_GT(v[1], 0U);
}

// The two payloads that once passed a magic-and-size check and then
// threw from the parser behind it.
TEST(Decoders, RejectUnknownDirectoryOpAndShortPortStats) {
    auto nack = directory_wires().front();
    nack[2] = std::byte{9};
    EXPECT_FALSE(dir::decode_directory(nack));
    auto ports = telemetry::serialize_port_stats(3, 17, {});
    ports[3] = std::byte{5};  // five records declared, none present
    EXPECT_FALSE(telemetry::decode_telemetry(ports));
}

TEST(Decoders, RoundTripEveryOpOfEveryKind) {
    for (const auto& wire : kv_wires()) {
        const auto msg = kv::decode_kv(wire);
        ASSERT_TRUE(msg);
        EXPECT_EQ(static_cast<std::uint8_t>(msg->op), std::to_integer<std::uint8_t>(wire[2]));
        EXPECT_EQ(reencode(*msg), wire);
    }
    for (const auto& wire : directory_wires()) {
        const auto msg = dir::decode_directory(wire);
        ASSERT_TRUE(msg);
        EXPECT_EQ(static_cast<std::uint8_t>(msg->op), std::to_integer<std::uint8_t>(wire[2]));
        EXPECT_EQ(msg->flags, 0x5a);
        EXPECT_EQ(reencode(*msg), wire);
    }
    for (const auto& wire : telemetry_wires()) {
        const auto msg = telemetry::decode_telemetry(wire);
        ASSERT_TRUE(msg);
        EXPECT_EQ(static_cast<std::uint8_t>(msg->op), std::to_integer<std::uint8_t>(wire[2]));
        EXPECT_EQ(msg->switch_node, 3U);
        EXPECT_EQ(msg->window, 17U);
        EXPECT_EQ(reencode(*msg), wire);
    }
    for (const auto& wire : daiet_wires()) {
        const auto packet = decode_daiet(wire);
        ASSERT_TRUE(packet);
        EXPECT_EQ(packet->index() == 0 ? PacketType::kData : PacketType::kEnd,
                  static_cast<PacketType>(wire[2]));
        EXPECT_EQ(reencode(*packet), wire);
    }
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
