// Tests for the end-host library: MapperSender packetization and
// ReducerReceiver collection/aggregation/completion.
#include <gtest/gtest.h>

#include "core/worker.hpp"
#include "netsim/network.hpp"

namespace daiet {
namespace {

struct WorkerFixture : public ::testing::Test {
    sim::Network net;
    sim::StarTopology topo;
    Config cfg;

    void SetUp() override {
        topo = make_star(net, 3, l2_switches(net));  // plain L2: frames pass untouched
        net.install_routes();
        cfg.max_pairs_per_packet = 10;
    }

    sim::Host& mapper(std::size_t i = 0) { return *topo.hosts[i]; }
    sim::Host& reducer() { return *topo.hosts[2]; }
};

KvPair kv(const std::string& k, std::int32_t v) {
    return KvPair{Key16{k}, wire_from_i32(v)};
}

TEST_F(WorkerFixture, PacketizesAtConfiguredSize) {
    ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 1};
    MapperSender tx{mapper(), cfg, 5, reducer().addr()};
    for (int i = 0; i < 23; ++i) tx.send(kv("k" + std::to_string(i), 1));
    tx.finish();
    net.run();

    EXPECT_EQ(tx.stats().pairs_sent, 23U);
    EXPECT_EQ(tx.stats().data_packets_sent, 3U);  // 10 + 10 + 3
    EXPECT_EQ(tx.stats().end_packets_sent, 1U);
    EXPECT_EQ(rx.stats().data_packets_received, 3U);
    EXPECT_EQ(rx.stats().pairs_received, 23U);
    EXPECT_TRUE(rx.complete());
}

TEST_F(WorkerFixture, ReceiverAggregatesDuplicates) {
    ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 1};
    MapperSender tx{mapper(), cfg, 5, reducer().addr()};
    for (int i = 0; i < 30; ++i) tx.send(kv("dup", 2));
    tx.finish();
    net.run();
    ASSERT_EQ(rx.aggregated().size(), 1U);
    EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"dup"})), 60);
}

TEST_F(WorkerFixture, SortedResultIsSortedByKey) {
    ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 1};
    MapperSender tx{mapper(), cfg, 5, reducer().addr()};
    tx.send(kv("zebra", 1));
    tx.send(kv("apple", 2));
    tx.send(kv("mango", 3));
    tx.finish();
    net.run();
    const auto sorted = rx.sorted_result();
    ASSERT_EQ(sorted.size(), 3U);
    EXPECT_EQ(sorted[0].key.to_string(), "apple");
    EXPECT_EQ(sorted[1].key.to_string(), "mango");
    EXPECT_EQ(sorted[2].key.to_string(), "zebra");
}

TEST_F(WorkerFixture, CompletionFiresOnLastEnd) {
    ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 2};
    int completions = 0;
    rx.on_complete = [&] { ++completions; };

    MapperSender tx0{mapper(0), cfg, 5, reducer().addr()};
    MapperSender tx1{mapper(1), cfg, 5, reducer().addr()};
    tx0.send(kv("a", 1));
    tx0.finish();
    net.run();
    EXPECT_FALSE(rx.complete());
    EXPECT_EQ(completions, 0);

    tx1.send(kv("b", 1));
    tx1.finish();
    net.run();
    EXPECT_TRUE(rx.complete());
    EXPECT_EQ(completions, 1);
}

TEST_F(WorkerFixture, SendSerializedMatchesPairwiseSend) {
    // The zero-deserialization path must produce byte-identical traffic
    // to per-pair sends of the same records.
    std::vector<KvPair> pairs;
    for (int i = 0; i < 17; ++i) pairs.push_back(kv("w" + std::to_string(i), i));

    ByteWriter raw;
    for (const auto& p : pairs) {
        raw.put_bytes(p.key.bytes());
        raw.put_u32(p.value);
    }

    ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 2};
    MapperSender a{mapper(0), cfg, 5, reducer().addr()};
    MapperSender b{mapper(1), cfg, 5, reducer().addr()};
    a.send_all(pairs);
    a.finish();
    b.send_serialized(raw.bytes());
    b.finish();
    net.run();

    EXPECT_EQ(a.stats().data_packets_sent, b.stats().data_packets_sent);
    EXPECT_EQ(a.stats().pairs_sent, b.stats().pairs_sent);
    EXPECT_EQ(a.stats().payload_bytes_sent, b.stats().payload_bytes_sent);
    // Each key arrived twice and summed.
    for (const auto& p : pairs) {
        EXPECT_EQ(i32_from_wire(rx.aggregated().at(p.key)),
                  2 * i32_from_wire(p.value));
    }
}

TEST_F(WorkerFixture, MixedTreeTrafficIsFiltered) {
    ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 1};
    MapperSender right{mapper(0), cfg, 5, reducer().addr()};
    MapperSender wrong{mapper(1), cfg, 6, reducer().addr()};  // other tree
    right.send(kv("mine", 1));
    wrong.send(kv("other", 1));
    right.finish();
    wrong.finish();
    net.run();
    EXPECT_EQ(rx.aggregated().size(), 1U);
    EXPECT_TRUE(rx.aggregated().contains(Key16{"mine"}));
}

TEST_F(WorkerFixture, EmptyStreamJustEnds) {
    ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 1};
    MapperSender tx{mapper(), cfg, 5, reducer().addr()};
    tx.finish();
    net.run();
    EXPECT_TRUE(rx.complete());
    EXPECT_TRUE(rx.aggregated().empty());
    EXPECT_EQ(tx.stats().data_packets_sent, 0U);
}

TEST_F(WorkerFixture, PayloadSizesStayUnderParseBudget) {
    ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 1};
    MapperSender tx{mapper(), cfg, 5, reducer().addr()};
    for (int i = 0; i < 100; ++i) tx.send(kv("k" + std::to_string(i), 1));
    tx.finish();
    net.run();
    // 10 full packets of 206 B payload + END of 11 B.
    EXPECT_EQ(tx.stats().payload_bytes_sent, 10 * 206U + kEndPacketSize);
}

/// One malformed DAIET payload of each kind decode_daiet rejects, for
/// tree 5.
std::vector<std::pair<const char*, std::vector<std::byte>>> malformed_payloads() {
    const auto data = serialize_data(5, std::vector{kv("x", 1), kv("y", 1)});
    std::vector<std::pair<const char*, std::vector<std::byte>>> out;
    out.emplace_back("truncated DATA", std::vector<std::byte>{data.begin(), data.end() - 3});
    out.emplace_back("n = 0", std::vector<std::byte>{data.begin(), data.begin() + kPreambleSize});
    out.back().second[5] = std::byte{0};
    out.emplace_back("unknown type", data);
    out.back().second[2] = std::byte{7};
    const auto end = serialize_end(5, 2);
    out.emplace_back("truncated END", std::vector<std::byte>{end.begin(), end.end() - 1});
    return out;
}

TEST_F(WorkerFixture, ReceiverIgnoresAndCountsMalformedPayloads) {
    for (const auto& [name, payload] : malformed_payloads()) {
        SCOPED_TRACE(name);
        ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 1};
        mapper().udp_send(reducer().addr(), kMapperUdpPort, kDaietUdpPort, payload);
        net.run();
        EXPECT_EQ(rx.stats().malformed_packets, 1U);
        EXPECT_EQ(rx.stats().data_packets_received, 0U);
        EXPECT_EQ(rx.stats().end_packets_received, 0U);

        // The next round aggregates exactly and reads clean.
        MapperSender tx{mapper(), cfg, 5, reducer().addr()};
        tx.send_all(std::vector{kv("a", 1), kv("b", 2), kv("a", 3)});
        tx.finish();
        net.run();
        EXPECT_TRUE(rx.complete());
        EXPECT_TRUE(rx.clean());
        ASSERT_EQ(rx.aggregated().size(), 2U);
        EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"a"})), 4);
        EXPECT_EQ(i32_from_wire(rx.aggregated().at(Key16{"b"})), 2);
    }
}

TEST_F(WorkerFixture, RoundThatLostAMalformedPayloadReadsDirty) {
    ReducerReceiver rx{reducer(), 5, AggFnId::kSumI32, 1};
    auto truncated = serialize_data(5, std::vector{kv("a", 1), kv("b", 2)});
    truncated.pop_back();
    mapper().udp_send(reducer().addr(), kMapperUdpPort, kDaietUdpPort, truncated);
    mapper().udp_send(reducer().addr(), kMapperUdpPort, kDaietUdpPort,
                      serialize_end(5, 2));  // declares the two lost pairs
    net.run();
    EXPECT_TRUE(rx.complete());
    EXPECT_FALSE(rx.clean());
    EXPECT_EQ(rx.stats().malformed_packets, 1U);
}

}  // namespace
}  // namespace daiet
