// Tests for the simplified TCP model: handshake, segmentation, ACK
// policy, teardown, byte conservation and loss recovery.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "dataplane/pipeline.hpp"
#include "netsim/network.hpp"
#include "netsim/tcp.hpp"

namespace daiet::sim {
namespace {

struct TcpFixture : public ::testing::Test {
    Network net{123};
    StarTopology topo;
    Host* client{nullptr};
    Host* server{nullptr};
    std::vector<std::byte> received;
    int accepted{0};
    int closed{0};

    void SetUp() override {
        topo = make_star(net, 2, l2_switches(net));
        net.install_routes();
        client = topo.hosts[0];
        server = topo.hosts[1];
        server->tcp_listen(80, [this](TcpConnection& conn) {
            ++accepted;
            conn.on_data = [this](std::span<const std::byte> data) {
                received.insert(received.end(), data.begin(), data.end());
            };
            conn.on_closed = [this] { ++closed; };
        });
    }

    static std::vector<std::byte> pattern(std::size_t n) {
        std::vector<std::byte> data(n);
        for (std::size_t i = 0; i < n; ++i) {
            data[i] = static_cast<std::byte>(i * 131 + 7);
        }
        return data;
    }
};

TEST_F(TcpFixture, HandshakeEstablishesBothSides) {
    auto& conn = client->tcp_connect(server->addr(), 80);
    bool established = false;
    conn.on_established = [&] { established = true; };
    net.run();
    EXPECT_TRUE(established);
    EXPECT_EQ(accepted, 1);
    EXPECT_EQ(conn.state(), TcpConnection::State::kEstablished);
}

TEST_F(TcpFixture, SmallTransferArrivesIntact) {
    auto& conn = client->tcp_connect(server->addr(), 80);
    const auto data = pattern(100);
    conn.send(data);
    conn.close();
    net.run();
    EXPECT_EQ(received, data);
    EXPECT_EQ(closed, 1);
    EXPECT_EQ(conn.state(), TcpConnection::State::kDone);
}

TEST_F(TcpFixture, SendBeforeEstablishedIsBuffered) {
    auto& conn = client->tcp_connect(server->addr(), 80);
    const auto data = pattern(5000);
    conn.send(data);  // still in SYN_SENT
    conn.close();
    net.run();
    EXPECT_EQ(received, data);
}

TEST_F(TcpFixture, LargeTransferSegmentsAtMss) {
    auto& conn = client->tcp_connect(server->addr(), 80);
    const auto data = pattern(100 * 1000);
    conn.send(data);
    conn.close();
    net.run();
    EXPECT_EQ(received, data);
    // ceil(100000/1460) = 69 data segments, plus SYN and FIN.
    EXPECT_EQ(conn.stats().payload_bytes_sent, 100000U);
    EXPECT_GE(conn.stats().segments_sent, 69U + 2U);
    EXPECT_EQ(conn.stats().segments_retransmitted, 0U);
}

TEST_F(TcpFixture, ChunkedWritesProduceOneSegmentPerChunk) {
    // Nagle-off semantics: each application write below the MSS leaves
    // immediately as its own segment.
    auto& conn = client->tcp_connect(server->addr(), 80);
    const auto data = pattern(10 * 512);
    bool started = false;
    conn.on_established = [&] {
        started = true;
        for (std::size_t off = 0; off < data.size(); off += 512) {
            conn.send(std::span{data}.subspan(off, 512));
        }
        conn.close();
    };
    net.run();
    EXPECT_TRUE(started);
    EXPECT_EQ(received, data);
    // SYN + handshake ACK + 10 data + FIN + ACK of the peer's FIN.
    EXPECT_EQ(conn.stats().segments_sent, 14U);
    EXPECT_EQ(conn.stats().acks_sent, 2U);
    EXPECT_EQ(conn.stats().payload_bytes_sent, data.size());
}

/// A star's switch that records every TCP segment crossing it and
/// forwards by the installed routes.
struct SegmentRecorder : dp::PipelineProgram, RouteSink {
    struct Segment {
        HostAddr src;
        std::uint32_t seq;
        std::uint32_t ack;
        std::uint8_t flags;
        std::vector<std::byte> payload;
        friend bool operator==(const Segment&, const Segment&) = default;
    };
    std::vector<Segment> segments;
    std::unordered_map<HostAddr, dp::PortId> routes;

    void install_route(HostAddr dst, std::span<const dp::PortId> ports) override {
        routes[dst] = ports.front();
    }
    void on_packet(dp::PacketContext& ctx) override {
        const auto frame = parse_frame(ctx.packet().payload());
        if (frame && frame->tcp) {
            const auto payload = frame->payload_of(ctx.packet().payload());
            segments.push_back({frame->ip.src, frame->tcp->seq, frame->tcp->ack,
                                frame->tcp->flags, {payload.begin(), payload.end()}});
        }
        ctx.set_egress(routes.at(frame->ip.dst));
    }
    std::string name() const override { return "segment_recorder"; }
};

/// Every segment of one 5,000-byte transfer and close, the bytes sent
/// either before the handshake completes or from on_established.
std::vector<SegmentRecorder::Segment> transfer_segments(bool send_before_established) {
    Network net{123};
    auto recorder = std::make_shared<SegmentRecorder>();
    const auto topo = make_star(net, 2, [&](const std::string& name, std::size_t) {
        auto& sw = net.add_pipeline_switch(name, dp::SwitchConfig{});
        sw.chip().load_program(recorder);
        return &sw;
    });
    net.install_routes();
    topo.hosts[1]->tcp_listen(80, [](TcpConnection&) {});
    auto& conn = topo.hosts[0]->tcp_connect(topo.hosts[1]->addr(), 80);
    const auto data = TcpFixture::pattern(5000);
    if (send_before_established) {
        conn.send(data);
        conn.close();
    } else {
        conn.on_established = [&] {
            conn.send(data);
            conn.close();
        };
    }
    net.run();
    EXPECT_EQ(conn.state(), TcpConnection::State::kDone);
    return recorder->segments;
}

// A send after establishment segments straight from the caller's span;
// one queued before it goes through the send queue. Both must put the
// same segments on the wire: sequence numbers, flags and bytes.
TEST(TcpSendPath, SendsBeforeAndAfterEstablishmentPutIdenticalSegments) {
    const auto queued = transfer_segments(true);
    const auto direct = transfer_segments(false);
    std::size_t data_segments = 0;
    for (const auto& seg : direct) data_segments += seg.payload.empty() ? 0 : 1;
    EXPECT_EQ(data_segments, 4U);  // 5,000 B at the 1,460 B MSS
    EXPECT_TRUE(queued == direct);
}

TEST_F(TcpFixture, DelayedAckReducesAckCount) {
    auto& conn = client->tcp_connect(server->addr(), 80);
    const auto data = pattern(20 * 1460);  // exactly 20 full segments
    conn.send(data);
    conn.close();
    net.run();
    EXPECT_EQ(received, data);
    // Server ACK count: handshake ACK is counted on the client; server
    // sends roughly one ACK per two data segments plus FIN handling.
    const auto server_tx = server->counters().tcp_frames_tx;
    EXPECT_LE(server_tx, 20U);  // far fewer than one ACK per segment + overhead
    EXPECT_GE(server_tx, 10U);
}

TEST_F(TcpFixture, ByteConservationManySizes) {
    // Property: for a spread of transfer sizes, every byte arrives
    // exactly once, in order.
    for (const std::size_t size : {1UL, 100UL, 1459UL, 1460UL, 1461UL, 14600UL,
                                   50000UL}) {
        received.clear();
        auto& conn = client->tcp_connect(server->addr(), 80);
        const auto data = pattern(size);
        conn.send(data);
        conn.close();
        net.run();
        EXPECT_EQ(received.size(), size);
        EXPECT_EQ(received, data) << "size=" << size;
    }
}

TEST_F(TcpFixture, MultipleConcurrentConnections) {
    std::vector<std::vector<std::byte>> chunks;
    for (int i = 0; i < 8; ++i) chunks.push_back(pattern(1000 + 997U * static_cast<unsigned>(i)));
    std::size_t total = 0;
    for (auto& c : chunks) total += c.size();
    for (auto& c : chunks) {
        auto& conn = client->tcp_connect(server->addr(), 80);
        conn.send(c);
        conn.close();
    }
    net.run();
    EXPECT_EQ(closed, 8);
    EXPECT_EQ(received.size(), total);
}

TEST(TcpLoss, RetransmissionRecoversSingleLoss) {
    // A lossy link: TCP must still deliver everything via go-back-N.
    Network net{5};
    LinkParams params;
    params.loss_probability = 0.05;
    auto topo = make_star(net, 2, l2_switches(net), params);
    net.install_routes();
    auto* client = topo.hosts[0];
    auto* server = topo.hosts[1];
    std::vector<std::byte> received;
    int closed = 0;
    server->tcp_listen(80, [&](TcpConnection& conn) {
        conn.on_data = [&](std::span<const std::byte> data) {
            received.insert(received.end(), data.begin(), data.end());
        };
        conn.on_closed = [&] { ++closed; };
    });
    auto& conn = client->tcp_connect(server->addr(), 80);
    std::vector<std::byte> data(120000);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(i);
    }
    conn.send(data);
    conn.close();
    net.run();
    EXPECT_EQ(received, data);
    EXPECT_GT(conn.stats().segments_retransmitted, 0U);
    EXPECT_EQ(closed, 1);
}

TEST(TcpLoss, GivesUpAfterMaxRetries) {
    // A dead link (100% loss): the connection must terminate instead of
    // retrying forever.
    Network net{6};
    LinkParams params;
    params.loss_probability = 1.0;
    auto topo = make_star(net, 2, l2_switches(net), params);
    net.install_routes();
    auto& conn = topo.hosts[0]->tcp_connect(topo.hosts[1]->addr(), 80);
    bool closed = false;
    conn.on_closed = [&] { closed = true; };
    net.run();
    EXPECT_TRUE(closed);
    EXPECT_EQ(conn.state(), TcpConnection::State::kDone);
}

TEST(TcpPacketAccounting, CountsMatchExpectedShape) {
    // The Figure 3 packet-count baseline depends on this arithmetic:
    // data segments at the app write granularity + handshake + FIN.
    Network net;
    auto topo = make_star(net, 2, l2_switches(net));
    net.install_routes();
    auto* client = topo.hosts[0];
    auto* server = topo.hosts[1];
    server->tcp_listen(80, [](TcpConnection& conn) {
        conn.on_data = [](std::span<const std::byte>) {};
    });
    auto& conn = client->tcp_connect(server->addr(), 80);
    std::vector<std::byte> data(10240);
    conn.on_established = [&] {
        for (std::size_t off = 0; off < data.size(); off += 1024) {
            conn.send(std::span{data}.subspan(off, 1024));
        }
        conn.close();
    };
    net.run();
    // Server receives: SYN, handshake-ACK, 10 data segments, FIN, and
    // the final ACK of its own FIN = 14 frames.
    EXPECT_EQ(server->counters().tcp_frames_rx, 14U);
}

}  // namespace
}  // namespace daiet::sim
