// Tests for the discrete-event network simulator: event ordering,
// links (timing, queueing, loss), wire formats, hosts/UDP, L2
// switching, route installation and ECMP.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "netsim/headers.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"

namespace daiet::sim {
namespace {

// ----------------------------------------------------------- simulator

TEST(Simulator, ExecutesInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(30, [&] { order.push_back(3); });
    sim.schedule_at(10, [&] { order.push_back(1); });
    sim.schedule_at(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(5, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
    Simulator sim;
    int fired = 0;
    sim.schedule_at(10, [&] {
        sim.schedule_after(5, [&] { ++fired; });
    });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 15U);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
    Simulator sim;
    int fired = 0;
    sim.schedule_at(10, [&] { ++fired; });
    sim.schedule_at(100, [&] { ++fired; });
    sim.run_until(50);
    EXPECT_EQ(fired, 1);
    // The clock must land exactly on the deadline even though the last
    // executed event fired earlier (periodic pollers depend on this).
    EXPECT_EQ(sim.now(), 50U);
    EXPECT_FALSE(sim.idle());
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInPastIsFatal) {
    Simulator sim;
    sim.schedule_at(10, [&] {
        EXPECT_DEATH(sim.schedule_at(5, [] {}), "precondition");
    });
    sim.run();
}

// ------------------------------------------------------------- headers

// Test-only reference decoders: one field at a time through a
// bounds-checked ByteReader, mirroring each header's serialize().
// parse_frame_into() does the same work with one size check per layer
// and direct loads, and must agree with these on every input.
MacAddr reference_mac(ByteReader& r) {
    MacAddr mac = 0;
    for (int i = 0; i < 6; ++i) mac = mac << 8 | r.get_u8();
    return mac;
}

EthernetHeader reference_ethernet(ByteReader& r) {
    EthernetHeader h;
    h.dst = reference_mac(r);
    h.src = reference_mac(r);
    h.ethertype = r.get_u16();
    return h;
}

Ipv4Header reference_ipv4(ByteReader& r) {
    Ipv4Header h;
    if (r.get_u8() != 0x45) throw BufferError{"Ipv4Header: unsupported version/IHL"};
    h.ecn = r.get_u8() & 0x03;  // DSCP ignored, ECN kept
    h.total_length = r.get_u16();
    r.skip(4);  // id + flags/frag
    h.ttl = r.get_u8();
    h.protocol = r.get_u8();
    r.skip(2);  // checksum
    h.src = r.get_u32();
    h.dst = r.get_u32();
    return h;
}

UdpHeader reference_udp(ByteReader& r) {
    UdpHeader h;
    h.src_port = r.get_u16();
    h.dst_port = r.get_u16();
    h.length = r.get_u16();
    r.skip(2);  // checksum
    return h;
}

TcpHeader reference_tcp(ByteReader& r) {
    TcpHeader h;
    h.src_port = r.get_u16();
    h.dst_port = r.get_u16();
    h.seq = r.get_u32();
    h.ack = r.get_u32();
    if (r.get_u8() != 0x50) throw BufferError{"TcpHeader: options not supported"};
    h.flags = r.get_u8();
    h.window = r.get_u16();
    r.skip(4);  // checksum + urgent
    return h;
}

TEST(Headers, EthernetRoundTrip) {
    ByteWriter w;
    EthernetHeader h{.dst = 0xAABBCCDDEEFF, .src = 0x112233445566, .ethertype = 0x0800};
    h.serialize(w);
    EXPECT_EQ(w.size(), EthernetHeader::kSize);
    ByteReader r{w.bytes()};
    const auto parsed = reference_ethernet(r);
    EXPECT_EQ(parsed.dst, h.dst);
    EXPECT_EQ(parsed.src, h.src);
    EXPECT_EQ(parsed.ethertype, h.ethertype);
}

TEST(Headers, Ipv4RoundTrip) {
    ByteWriter w;
    Ipv4Header h;
    h.total_length = 1500;
    h.ttl = 17;
    h.protocol = kIpProtoTcp;
    h.src = 42;
    h.dst = 77;
    h.serialize(w);
    EXPECT_EQ(w.size(), Ipv4Header::kSize);
    ByteReader r{w.bytes()};
    const auto parsed = reference_ipv4(r);
    EXPECT_EQ(parsed.total_length, 1500);
    EXPECT_EQ(parsed.ttl, 17);
    EXPECT_EQ(parsed.protocol, kIpProtoTcp);
    EXPECT_EQ(parsed.src, 42U);
    EXPECT_EQ(parsed.dst, 77U);
}

TEST(Headers, UdpFrameLayout) {
    const auto payload = as_bytes("payload");
    const auto frame = build_udp_frame(1, 2, 1111, 2222, payload);
    EXPECT_EQ(frame.size(), kUdpFrameOverhead + 7);
    const auto parsed = parse_frame(frame);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->udp.has_value());
    EXPECT_EQ(parsed->ip.src, 1U);
    EXPECT_EQ(parsed->ip.dst, 2U);
    EXPECT_EQ(parsed->udp->src_port, 1111);
    EXPECT_EQ(parsed->udp->dst_port, 2222);
    EXPECT_EQ(parsed->udp->length, UdpHeader::kSize + 7);
    const auto body = parsed->payload_of(frame);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(body.data()), body.size()),
              "payload");
}

TEST(Headers, TcpFrameLayout) {
    TcpHeader tcp;
    tcp.src_port = 10;
    tcp.dst_port = 20;
    tcp.seq = 1000;
    tcp.ack = 2000;
    tcp.flags = TcpHeader::kFlagAck | TcpHeader::kFlagPsh;
    const auto frame = build_tcp_frame(3, 4, tcp, as_bytes("x"));
    EXPECT_EQ(frame.size(), kTcpFrameOverhead + 1);
    const auto parsed = parse_frame(frame);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->tcp.has_value());
    EXPECT_EQ(parsed->tcp->seq, 1000U);
    EXPECT_EQ(parsed->tcp->ack, 2000U);
    EXPECT_TRUE(parsed->tcp->ack_flag());
    EXPECT_FALSE(parsed->tcp->syn());
}

TEST(Headers, LengthFieldsRejectPayloadsTheyCannotHold) {
    // At the limit the IPv4 total length is exactly 0xffff.
    std::vector<std::byte> payload(kMaxUdpPayload);
    const auto udp = parse_frame(build_udp_frame(1, 2, 3, 4, payload));
    ASSERT_TRUE(udp.has_value());
    ASSERT_TRUE(udp->udp.has_value());
    EXPECT_EQ(udp->ip.total_length, 0xffff);
    EXPECT_EQ(udp->udp->length, 0xffff - Ipv4Header::kSize);
    payload.push_back(std::byte{0});
    EXPECT_THROW(build_udp_frame(1, 2, 3, 4, payload), BufferError);

    payload.resize(kMaxTcpPayload);
    const auto tcp = parse_frame(build_tcp_frame(1, 2, TcpHeader{}, payload));
    ASSERT_TRUE(tcp.has_value());
    EXPECT_EQ(tcp->ip.total_length, 0xffff);
    payload.push_back(std::byte{0});
    EXPECT_THROW(build_tcp_frame(1, 2, TcpHeader{}, payload), BufferError);
}

TEST(Headers, NonIpv4ReturnsNullopt) {
    ByteWriter w;
    EthernetHeader{.dst = 1, .src = 2, .ethertype = 0x86DD}.serialize(w);
    w.put_bytes(std::vector<std::byte>(40));
    EXPECT_FALSE(parse_frame(w.bytes()).has_value());
}

TEST(Headers, TruncatedFrameThrows) {
    const auto frame = build_udp_frame(1, 2, 1, 2, as_bytes("abc"));
    std::vector<std::byte> cut{frame.begin(), frame.begin() + 20};
    EXPECT_THROW(parse_frame(cut), BufferError);
}

// The reference decoders composed through one ByteReader.
std::optional<ParsedFrame> reference_parse_frame(std::span<const std::byte> frame) {
    ByteReader r{frame};
    ParsedFrame out;
    out.eth = reference_ethernet(r);
    if (out.eth.ethertype != kEtherTypeIpv4) return std::nullopt;
    out.ip = reference_ipv4(r);
    if (out.ip.protocol == kIpProtoUdp) {
        out.udp = reference_udp(r);
    } else if (out.ip.protocol == kIpProtoTcp) {
        out.tcp = reference_tcp(r);
    }
    out.payload_offset = r.position();
    return out;
}

/// A parser's verdict flattened for ==: {0} BufferError, {1} not IPv4,
/// or {2, every parsed header field..., payload offset}.
template <typename Parser>
std::vector<std::uint64_t> outcome_of(Parser parse, std::span<const std::byte> frame) {
    std::optional<ParsedFrame> p;
    try {
        p = parse(frame);
    } catch (const BufferError&) {
        return {0};
    }
    if (!p) return {1};
    std::vector<std::uint64_t> out{2,         p->eth.dst, p->eth.src,  p->eth.ethertype,
                                   p->ip.ecn, p->ip.ttl,  p->ip.total_length,
                                   p->ip.protocol, p->ip.src, p->ip.dst, p->payload_offset};
    if (p->udp) out.insert(out.end(), {p->udp->src_port, p->udp->dst_port, p->udp->length});
    if (p->tcp) {
        out.insert(out.end(), {p->tcp->src_port, p->tcp->dst_port, p->tcp->seq,
                               p->tcp->ack, p->tcp->flags, p->tcp->window});
    }
    return out;
}

// Seeded mutation fuzz of parse_frame_into() against the reference
// parser: every truncation of a golden UDP and TCP frame, then 20K
// random byte-flip (biased to the header bytes) and truncate mutations
// of each. Headers, payload offset, non-IPv4 and BufferError must agree.
// The fast parser writes into one ParsedFrame reused across all frames,
// as the per-thread packet context does, prefilled before each parse
// with the latest UDP and TCP headers seen and a bogus payload offset:
// a field it failed to reset would leak into its verdict.
TEST(Headers, ParseFrameMatchesReferenceParserOnMutatedFrames) {
    const FrameBuf golden[] = {
        build_udp_frame(7, 9, 5000, 6000, as_bytes("udp payload bytes")),
        build_tcp_frame(3, 4,
                        TcpHeader{.src_port = 4321, .dst_port = 80, .seq = 0x01020304,
                                  .ack = 0x0a0b0c0d, .flags = TcpHeader::kFlagAck},
                        as_bytes("tcp payload")),
    };
    std::optional<UdpHeader> last_udp = parse_frame(golden[0])->udp;
    std::optional<TcpHeader> last_tcp = parse_frame(golden[1])->tcp;
    ParsedFrame reused;
    const auto parse_fast =
        [&](std::span<const std::byte> f) -> std::optional<ParsedFrame> {
        reused.udp = last_udp;
        reused.tcp = last_tcp;
        reused.payload_offset = ~std::size_t{0};
        if (!parse_frame_into(f, reused)) return std::nullopt;
        if (reused.udp) last_udp = reused.udp;
        if (reused.tcp) last_tcp = reused.tcp;
        return reused;
    };
    std::size_t seen[3] = {};  // per verdict: the mutations reach all three
    Rng rng{2017};
    for (const FrameBuf& frame : golden) {
        const std::vector<std::byte> bytes{frame.begin(), frame.end()};
        for (std::size_t len = 0; len <= bytes.size(); ++len) {
            const std::span<const std::byte> cut{bytes.data(), len};
            ASSERT_EQ(outcome_of(parse_fast, cut), outcome_of(reference_parse_frame, cut))
                << "truncated to " << len;
        }
        for (int i = 0; i < 20000; ++i) {
            std::vector<std::byte> m = bytes;
            for (std::uint64_t k = 1 + rng.next_below(4); k > 0; --k) {
                m[rng.next_below(std::min<std::size_t>(m.size(), 64))] ^=
                    static_cast<std::byte>(1 + rng.next_below(255));
            }
            if (rng.next_below(2) == 0) m.resize(rng.next_below(m.size() + 1));
            const auto want = outcome_of(reference_parse_frame, m);
            ASSERT_EQ(outcome_of(parse_fast, m), want) << "mutation " << i;
            ++seen[want[0]];
        }
    }
    for (const std::size_t n : seen) EXPECT_GT(n, 0U);
}

// ------------------------------------------------------- links & hosts

TEST(Network, UdpDeliveryAcrossStar) {
    Network net;
    auto topo = make_star(net, 3, l2_switches(net));
    net.install_routes();

    std::string received;
    HostAddr from = 0;
    topo.hosts[2]->udp_bind(9000, [&](HostAddr src, std::uint16_t, auto payload) {
        from = src;
        received.assign(reinterpret_cast<const char*>(payload.data()), payload.size());
    });
    topo.hosts[0]->udp_send(topo.hosts[2]->addr(), 1234, 9000, as_bytes("ping"));
    net.run();
    EXPECT_EQ(received, "ping");
    EXPECT_EQ(from, topo.hosts[0]->addr());
    EXPECT_EQ(topo.hosts[2]->counters().udp_frames_rx, 1U);
    EXPECT_EQ(topo.hosts[0]->counters().udp_frames_tx, 1U);
}

TEST(Network, LinkTimingMatchesBandwidthAndDelay) {
    Network net;
    LinkParams params;
    params.gbps = 1.0;                        // 1 Gb/s: 8 ns per byte
    params.propagation_delay = 1000;          // 1 us
    auto topo = make_star(net, 2, l2_switches(net), params);
    net.install_routes();

    SimTime arrival = 0;
    topo.hosts[1]->udp_bind(9, [&](HostAddr, std::uint16_t, auto) {
        arrival = net.simulator().now();
    });
    const std::vector<std::byte> payload(58);  // frame = 42 + 58 = 100 bytes
    topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, payload);
    net.run();
    // Two hops: each 100 B * 8 ns/B serialization + 1 us propagation.
    EXPECT_EQ(arrival, 2 * (800 + 1000));
}

TEST(Network, FifoOrderingPreserved) {
    Network net;
    auto topo = make_star(net, 2, l2_switches(net));
    net.install_routes();
    std::vector<int> order;
    topo.hosts[1]->udp_bind(9, [&](HostAddr, std::uint16_t, auto payload) {
        order.push_back(static_cast<int>(payload[0]));
    });
    for (int i = 0; i < 20; ++i) {
        const std::byte b{static_cast<unsigned char>(i)};
        topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, std::span{&b, 1});
    }
    net.run();
    ASSERT_EQ(order.size(), 20U);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Network, DropTailQueueDropsExcess) {
    Network net;
    LinkParams params;
    params.gbps = 0.001;  // slow link so the queue builds up
    params.queue_bytes = 300;
    auto topo = make_star(net, 2, l2_switches(net), params);
    net.install_routes();
    int delivered = 0;
    topo.hosts[1]->udp_bind(9, [&](HostAddr, std::uint16_t, auto) { ++delivered; });
    const std::vector<std::byte> payload(58);  // 100 B frames
    for (int i = 0; i < 10; ++i) {
        topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, payload);
    }
    net.run();
    EXPECT_LT(delivered, 10);
    EXPECT_GT(delivered, 0);
    const auto& stats = net.links()[0]->stats(0);
    EXPECT_EQ(stats.frames_dropped_queue + static_cast<std::uint64_t>(delivered), 10U);
}

TEST(Network, LossInjectionDropsFraction) {
    Network net{77};
    LinkParams params;
    params.loss_probability = 0.5;
    auto topo = make_star(net, 2, l2_switches(net), params);
    net.install_routes();
    int delivered = 0;
    topo.hosts[1]->udp_bind(9, [&](HostAddr, std::uint16_t, auto) { ++delivered; });
    const std::vector<std::byte> payload(10);
    for (int i = 0; i < 400; ++i) {
        topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, payload);
    }
    net.run();
    // Two lossy hops: expected delivery rate 0.25.
    EXPECT_NEAR(delivered / 400.0, 0.25, 0.08);
}

TEST(Network, UnknownDestinationDropsAtSwitch) {
    Network net;
    auto topo = make_star(net, 2, l2_switches(net));
    net.install_routes();
    topo.hosts[0]->udp_send(999, 9, 9, as_bytes("x"));
    net.run();
    auto* sw = dynamic_cast<L2Switch*>(topo.tor);
    ASSERT_NE(sw, nullptr);
    EXPECT_EQ(sw->stats().frames_dropped_no_route, 1U);
}

TEST(Network, UnboundPortCountsUnclaimed) {
    Network net;
    auto topo = make_star(net, 2, l2_switches(net));
    net.install_routes();
    topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 1234, as_bytes("x"));
    net.run();
    EXPECT_EQ(topo.hosts[1]->counters().frames_rx_unclaimed, 1U);
}

// ----------------------------------------------------------- leaf-spine

TEST(LeafSpine, AllPairsReachable) {
    Network net;
    auto topo = make_leaf_spine(net, 3, 2, 6, l2_switches(net));
    net.install_routes();
    int received = 0;
    for (auto* h : topo.hosts) {
        h->udp_bind(9, [&](HostAddr, std::uint16_t, auto) { ++received; });
    }
    int sent = 0;
    for (auto* src : topo.hosts) {
        for (auto* dst : topo.hosts) {
            if (src == dst) continue;
            src->udp_send(dst->addr(), 9, 9, as_bytes("m"));
            ++sent;
        }
    }
    net.run();
    EXPECT_EQ(received, sent);
}

TEST(LeafSpine, EcmpSpreadsFlowsAcrossSpines) {
    Network net;
    auto topo = make_leaf_spine(net, 2, 2, 8, l2_switches(net));
    net.install_routes();
    for (auto* h : topo.hosts) {
        h->udp_bind(9, [](HostAddr, std::uint16_t, auto) {});
    }
    // Many flows with distinct ports from rack 0 to rack 1.
    for (std::uint16_t flow = 0; flow < 64; ++flow) {
        topo.hosts[0]->udp_send(topo.hosts[7]->addr(),
                                static_cast<std::uint16_t>(1000 + flow), 9,
                                as_bytes("x"));
    }
    net.run();
    // Count frames forwarded by each spine; both must see traffic.
    std::vector<std::uint64_t> spine_counts;
    for (auto* spine : topo.spines) {
        auto* sw = dynamic_cast<L2Switch*>(spine);
        ASSERT_NE(sw, nullptr);
        spine_counts.push_back(sw->stats().frames_forwarded);
    }
    EXPECT_EQ(spine_counts[0] + spine_counts[1], 64U);
    EXPECT_GT(spine_counts[0], 10U);
    EXPECT_GT(spine_counts[1], 10U);
}

TEST(LeafSpine, SameLeafTrafficStaysLocal) {
    Network net;
    auto topo = make_leaf_spine(net, 2, 2, 4, l2_switches(net));
    net.install_routes();
    topo.hosts[1]->udp_bind(9, [](HostAddr, std::uint16_t, auto) {});
    topo.hosts[0]->udp_send(topo.hosts[1]->addr(), 9, 9, as_bytes("x"));
    net.run();
    for (auto* spine : topo.spines) {
        auto* sw = dynamic_cast<L2Switch*>(spine);
        EXPECT_EQ(sw->stats().frames_forwarded, 0U);
    }
}

TEST(Network, HostByAddrLookup) {
    Network net;
    auto topo = make_star(net, 3, l2_switches(net));
    EXPECT_EQ(net.host_by_addr(topo.hosts[1]->addr()), topo.hosts[1]);
    EXPECT_EQ(net.host_by_addr(0), nullptr);
    EXPECT_EQ(net.host_by_addr(999), nullptr);
}

TEST(Network, EdgeSwitchOfFindsTheTor) {
    Network net;
    auto topo = make_leaf_spine(net, 2, 2, 4, l2_switches(net));
    net.install_routes();
    EXPECT_EQ(net.edge_switch_of(*topo.hosts[0]), topo.leaves[0]);
    EXPECT_EQ(net.edge_switch_of(*topo.hosts[3]), topo.leaves[1]);
}

// ----------------------------------------------- switch vaddr edge cases

TEST(SwitchVaddr, DuplicateRegistrationToAnotherNodeThrows) {
    Network net;
    auto topo = make_leaf_spine(net, 2, 2, 2, l2_switches(net));
    net.install_routes();
    constexpr HostAddr kVaddr = 0xF0000123u;
    net.install_switch_address(*topo.spines[0], kVaddr);
    // Re-registering the same (node, vaddr) pair is a reinstall, fine.
    EXPECT_NO_THROW(net.install_switch_address(*topo.spines[0], kVaddr));
    // Pointing the same vaddr at a different node is a deployment
    // conflict (two services fighting over one address) and must be
    // rejected before any route is overwritten.
    EXPECT_THROW(net.install_switch_address(*topo.spines[1], kVaddr),
                 std::runtime_error);
}

TEST(SwitchVaddr, CollidingWithAHostAddressThrows) {
    Network net;
    auto topo = make_leaf_spine(net, 2, 2, 2, l2_switches(net));
    net.install_routes();
    EXPECT_THROW(net.install_switch_address(*topo.spines[0],
                                            topo.hosts[0]->addr()),
                 std::runtime_error);
}

TEST(SwitchVaddr, ProbingAnUnclaimedVaddrDropsAtTheTarget) {
    Network net;
    auto topo = make_leaf_spine(net, 2, 2, 4, l2_switches(net));
    net.install_routes();
    // A vaddr on a plain L2 switch with no resident program claiming
    // it: frames route *toward* the target and die there (the target
    // has no route for its own vaddr, by design), with no delivery, no
    // reply and no wedged simulation.
    constexpr HostAddr kVaddr = 0xF0000777u;
    net.install_switch_address(*topo.spines[1], kVaddr);
    Host& probe_src = *topo.hosts[0];
    std::vector<std::byte> payload{16, std::byte{0x5A}};
    bool delivered = false;
    for (Host* host : net.hosts()) {
        host->udp_bind(7100, [&](HostAddr, std::uint16_t,
                                 std::span<const std::byte>) {
            delivered = true;
        });
    }
    probe_src.udp_send(kVaddr, 7100, 7100, payload);
    const SimTime end = net.run();  // quiesces instead of looping
    EXPECT_GT(end, 0u);
    EXPECT_FALSE(delivered);
    for (Host* host : net.hosts()) {
        EXPECT_EQ(host->counters().frames_rx_unclaimed, 0u);
        host->udp_unbind(7100);
    }
}

// --------------------------------------------------- event queue details

// The fast-path queue fronts a timing wheel with a far-future overflow
// heap (see simulator.hpp). Events beyond the wheel window must migrate
// in as the window advances, and quiet stretches must jump the window
// rather than walking empty buckets — in both cases firing in exact
// (time, seq) order.
TEST(Simulator, FarFutureEventsFireInOrder) {
    Simulator sim;
    std::vector<std::uint64_t> order;
    const SimTime times[] = {5 * kMillisecond,       100,
                             20 * kMicrosecond,      kMillisecond,
                             50,                     16 * kMicrosecond + 3,
                             300};
    for (const SimTime t : times) {
        sim.schedule_at(t, [&order, t] { order.push_back(t); });
    }
    // Nested schedules from the running region: one near, one far.
    sim.schedule_at(60, [&] {
        sim.schedule_after(2 * kMillisecond, [&] {
            order.push_back(2 * kMillisecond + 60);
        });
        sim.schedule_after(5, [&] { order.push_back(65); });
    });
    sim.run();
    ASSERT_EQ(order.size(), 9u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(sim.now(), 5 * kMillisecond);
}

// run_until() can park the queue's cursor at an event far in the
// future; events scheduled afterwards for an earlier instant must still
// fire first, tie-broken by scheduling order.
TEST(Simulator, EarlierSchedulesAfterRunUntilStillFireFirst) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(50 * kMicrosecond, [&] { order.push_back(3); });
    sim.run_until(10);
    EXPECT_EQ(sim.now(), 10u);
    sim.schedule_at(20, [&] { order.push_back(1); });
    sim.schedule_at(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SmallActionsStayInlineLargeOnesAreBoxed) {
    Simulator sim;
    int fired = 0;
    sim.schedule_at(1, [&fired] { ++fired; });
    sim.run();
    EXPECT_EQ(sim.actions_heap_allocated(), 0u);
    std::array<std::byte, 64> big{};  // over the 48-byte inline buffer
    sim.schedule_at(2, [big, &fired] {
        fired += static_cast<int>(big[0] == std::byte{0});
    });
    sim.run();
    EXPECT_EQ(sim.actions_heap_allocated(), 1u);
    EXPECT_EQ(fired, 2);
}

// Test-only reference for the Simulator's ordering contract: a textbook
// std::priority_queue over (at, seq) driven with the Simulator's run /
// run_until / run_window semantics. The timing wheel and its overflow
// heap must reproduce its pop order and clock exactly.
class ReferenceQueue {
public:
    using Log = std::vector<std::pair<std::uint64_t, SimTime>>;  // (id, fired at)

    /// Same-instant, sub-tick (< one 64 ns wheel bucket), in-window
    /// (< 16 us, the wheel span) and far-future (overflow heap) delays.
    static SimTime random_delay(Rng& rng) {
        switch (rng.next_below(4)) {
            case 0: return 0;
            case 1: return 1 + rng.next_below(63);
            case 2: return 64 + rng.next_below(16 * kMicrosecond - 64);
            default: return 16 * kMicrosecond + 1 + rng.next_below(2 * kMillisecond);
        }
    }

    /// The (delay, id) children an event schedules when it fires: a pure
    /// function of its id (low 3 bits = tree depth), so both queues grow
    /// identical trees.
    static std::vector<std::pair<SimTime, std::uint64_t>> children_of(std::uint64_t id) {
        if ((id & 7) >= 4) return {};
        Rng rng{id};
        std::vector<std::pair<SimTime, std::uint64_t>> out(rng.next_below(3));
        for (auto& [delay, child] : out) {
            delay = random_delay(rng);
            child = (rng.next_u64() << 3) | ((id & 7) + 1);
        }
        return out;
    }

    void schedule_at(SimTime at, std::uint64_t id) { q_.push({at, seq_++, id}); }
    void run() { run_window(Simulator::kNever); }
    void run_until(SimTime deadline) {
        while (!q_.empty() && q_.top().at <= deadline) fire();
        now_ = std::max(now_, deadline);
    }
    void run_window(SimTime end) {
        while (!q_.empty() && q_.top().at < end) fire();
    }

    SimTime now() const noexcept { return now_; }
    bool idle() const noexcept { return q_.empty(); }
    SimTime next_event_at() const { return idle() ? Simulator::kNever : q_.top().at; }
    const Log& fired() const noexcept { return fired_; }

private:
    struct Entry {
        SimTime at;
        std::uint64_t seq;
        std::uint64_t id;
        bool operator>(const Entry& o) const noexcept {
            return at != o.at ? at > o.at : seq > o.seq;
        }
    };

    void fire() {
        const Entry e = q_.top();
        q_.pop();
        now_ = e.at;
        fired_.emplace_back(e.id, now_);
        for (const auto& [delay, child] : children_of(e.id)) schedule_at(now_ + delay, child);
    }

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> q_;
    std::uint64_t seq_{0};
    SimTime now_{0};
    Log fired_;
};

/// The Simulator side of the replay: each event logs itself and
/// schedules its children from inside the running action.
struct ScriptedSimulator {
    Simulator sim;
    ReferenceQueue::Log fired;

    void schedule_at(SimTime at, std::uint64_t id) {
        sim.schedule_at(at, [this, id] {
            fired.emplace_back(id, sim.now());
            for (const auto& [delay, child] : ReferenceQueue::children_of(id)) {
                schedule_at(sim.now() + delay, child);
            }
        });
    }
};

// Randomized scripts mix outside schedule_at bursts with run_until,
// run_window and run calls; events nest further schedules from inside
// running actions. After every step the pop log, now(), idle() and (on
// a random half of the steps, so both a polled and an unpolled queue
// are exercised) next_event_at() must equal the reference's.
TEST(Simulator, MatchesReferenceQueueOnRandomSchedules) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ScriptedSimulator s;
        ReferenceQueue ref;
        Rng rng{seed};
        for (int step = 0; step < 80; ++step) {
            const std::uint64_t op = rng.next_below(20);
            const SimTime at = s.sim.now() + ReferenceQueue::random_delay(rng);
            if (op < 10) {
                for (std::uint64_t n = 1 + rng.next_below(8); n > 0; --n) {
                    const SimTime t = s.sim.now() + ReferenceQueue::random_delay(rng);
                    const std::uint64_t id = rng.next_u64() << 3;  // depth 0
                    s.schedule_at(t, id);
                    ref.schedule_at(t, id);
                }
            } else if (op < 15) {
                s.sim.run_until(at);
                ref.run_until(at);
            } else if (op < 19) {
                s.sim.run_window(at);
                ref.run_window(at);
            } else {
                s.sim.run();
                ref.run();
            }
            SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
            ASSERT_EQ(s.fired, ref.fired());
            ASSERT_EQ(s.sim.now(), ref.now());
            ASSERT_EQ(s.sim.idle(), ref.idle());
            if (rng.next_below(2) == 0) {
                ASSERT_EQ(s.sim.next_event_at(), ref.next_event_at());
            }
        }
        s.sim.run();
        ref.run();
        ASSERT_EQ(s.fired, ref.fired()) << "seed " << seed;
        EXPECT_EQ(s.sim.now(), ref.now());
        EXPECT_EQ(s.sim.events_executed(), ref.fired().size());
        EXPECT_GT(ref.fired().size(), 100U);
    }
}

// ------------------------------------------------------- timers & pool

TEST(Host, CancelledTimerReclaimsItsTombstoneEarly) {
    Network net;
    auto topo = make_star(net, 2, l2_switches(net));
    net.install_routes();
    Host& host = *topo.hosts[0];
    int fired = 0;
    auto cancelled = host.timer_after(1000, [&] { ++fired; });
    auto kept = host.timer_after(1000, [&] { ++fired; });
    cancelled->cancel();
    // The callback (and its captures) died at cancel time, not at the
    // original fire time.
    EXPECT_EQ(host.timer_tombstones_reclaimed(), 1u);
    // Dropping the last handle reclaims too.
    host.timer_after(2000, [&] { ++fired; });
    EXPECT_EQ(host.timer_tombstones_reclaimed(), 2u);
    net.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(host.timer_tombstones_reclaimed(), 2u);
}

TEST(FrameBuf, PoolReusesSlabsAndCopiesOnWrite) {
    FrameBuf::trim_pool();
    const auto s0 = FrameBuf::pool_stats();
    const std::byte* parked = nullptr;
    {
        const FrameBuf a = FrameBuf::allocate(100);  // 128 B class
        parked = a.data();
    }
    const auto s1 = FrameBuf::pool_stats();
    EXPECT_EQ(s1.slab_allocs, s0.slab_allocs + 1);
    EXPECT_EQ(s1.free_slabs, s0.free_slabs + 1);

    // A frame of another class never takes the parked slab...
    FrameBuf hello = FrameBuf::copy_of(as_bytes("hello"));  // 64 B class
    const auto s2 = FrameBuf::pool_stats();
    EXPECT_NE(hello.data(), parked);
    EXPECT_EQ(hello.capacity(), 64U);
    EXPECT_EQ(s2.reuses, s1.reuses);
    EXPECT_EQ(s2.slab_allocs, s1.slab_allocs + 1);

    // ...and a frame of its own class does.
    {
        const FrameBuf b = FrameBuf::allocate(128);
        EXPECT_EQ(b.data(), parked);
        EXPECT_EQ(FrameBuf::pool_stats().reuses, s2.reuses + 1);
    }

    // The copy-on-write clone of a 5-byte frame lands in the 64 B
    // class, not in the parked 128 B slab.
    FrameBuf shared = hello;  // refcount bump, not a copy
    EXPECT_FALSE(hello.unique());
    shared.mutable_bytes()[0] = std::byte{'H'};  // copy-on-write
    EXPECT_TRUE(shared.unique());
    EXPECT_NE(shared.data(), parked);
    EXPECT_EQ(shared.capacity(), 64U);
    EXPECT_EQ(static_cast<char>(hello.bytes()[0]), 'h');
    EXPECT_EQ(static_cast<char>(shared.bytes()[0]), 'H');
    const auto s3 = FrameBuf::pool_stats();
    EXPECT_EQ(s3.cow_copies, s2.cow_copies + 1);
    EXPECT_EQ(s3.free_slabs, s2.free_slabs);  // the 128 B slab is still parked
}

TEST(FrameBuf, SizeClassBoundaries) {
    // {request size, class capacity}: each size lands in the smallest
    // class that holds it, and a slab it frees is reused by a frame at
    // the other end of the same class.
    const std::pair<std::size_t, std::size_t> cases[] = {
        {1, 64},       {64, 64},      {65, 128},     {250, 256},
        {1078, 1088},  {1089, 1536},  {1514, 1536},  {2048, 2048}};
    for (const auto& [size, capacity] : cases) {
        FrameBuf::trim_pool();
        const std::byte* freed = nullptr;
        {
            const FrameBuf f = FrameBuf::allocate(size);
            EXPECT_EQ(f.size(), size);
            EXPECT_EQ(f.capacity(), capacity) << "size " << size;
            freed = f.data();
        }
        const FrameBuf g = FrameBuf::allocate(capacity);
        EXPECT_EQ(g.data(), freed) << "size " << size;
    }
}

TEST(FrameBuf, OversizeAllocationsBypassThePool) {
    const auto s0 = FrameBuf::pool_stats();
    {
        const FrameBuf big = FrameBuf::allocate(FrameBuf::kSlabCapacity + 1);
        EXPECT_EQ(big.size(), FrameBuf::kSlabCapacity + 1);
        EXPECT_EQ(big.capacity(), FrameBuf::kSlabCapacity + 1);
        EXPECT_EQ(FrameBuf::pool_stats().live_bytes, s0.live_bytes);
    }
    const auto s1 = FrameBuf::pool_stats();
    EXPECT_EQ(s1.oversize_allocs, s0.oversize_allocs + 1);
    EXPECT_EQ(s1.free_slabs, s0.free_slabs);  // freed, never pooled
}

/// Resident set of this process, from /proc/self/statm.
std::size_t resident_bytes() {
    std::ifstream statm{"/proc/self/statm"};
    std::size_t size_pages = 0;
    std::size_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(FrameBuf, SmallFramesTakeSmallSlabs) {
    // 100K live 60-byte frames: ~11 MB in 64 B slabs, ~200 MB if every
    // frame took a full kSlabCapacity slab. ThreadSanitizer (GCC) adds
    // ~4 bytes of shadow per heap byte, so its bound is scaled.
#if defined(__SANITIZE_THREAD__)
    constexpr std::size_t kRssBound = 128U << 20;
#else
    constexpr std::size_t kRssBound = 32U << 20;
#endif
    constexpr std::size_t kFrames = 100000;
    FrameBuf::trim_pool();
    std::vector<FrameBuf> live;
    live.reserve(kFrames);
    const auto s0 = FrameBuf::pool_stats();
    const std::size_t before = resident_bytes();
    for (std::size_t i = 0; i < kFrames; ++i) {
        FrameBuf f = FrameBuf::allocate(60);
        std::ranges::fill(f.mutable_bytes(), static_cast<std::byte>(i));
        live.push_back(std::move(f));
    }
    const std::size_t after = resident_bytes();
    EXPECT_LT(after - std::min(before, after), kRssBound);

    const auto s1 = FrameBuf::pool_stats();
    EXPECT_EQ(s1.live_bytes - s0.live_bytes, static_cast<std::int64_t>(kFrames * 64));
    EXPECT_GE(s1.peak_live_bytes, s1.live_bytes);
    live.clear();
    const auto s2 = FrameBuf::pool_stats();
    EXPECT_EQ(s2.live_bytes, s0.live_bytes);
    EXPECT_EQ(s2.peak_live_bytes, s1.peak_live_bytes);  // a high-water mark
    FrameBuf::trim_pool();
}

// --------------------------------------------------------- determinism

struct LossyRunOutcome {
    std::uint64_t signature;
    std::uint64_t events;
    SimTime final_time;

    bool operator==(const LossyRunOutcome&) const = default;
};

// A lossy leaf-spine fabric with ping-pong traffic and a timer mix:
// every delivery (who, from whom, payload head, when) folds into one
// FNV signature, so any divergence in event order shows up.
LossyRunOutcome run_lossy_leaf_spine() {
    Network net{1234};
    LinkParams params;
    params.loss_probability = 0.02;
    auto topo = make_leaf_spine(net, 4, 2, 16, l2_switches(net), params);
    net.install_routes();

    std::uint64_t sig = 0xcbf29ce484222325ULL;
    const auto fold = [&sig](std::uint64_t v) {
        sig = (sig ^ v) * 0x100000001b3ULL;
    };
    const std::size_t n = topo.hosts.size();
    for (std::size_t h = 0; h < n; ++h) {
        topo.hosts[h]->udp_bind(
            7000, [&, h](HostAddr src, std::uint16_t, auto payload) {
                fold(h);
                fold(src);
                fold(std::to_integer<std::uint64_t>(payload[0]));
                fold(net.simulator().now());
                if (payload.size() > 1) {  // echo back, one byte shorter
                    const std::vector<std::byte> next(payload.begin(),
                                                      payload.end() - 1);
                    topo.hosts[h]->udp_send(src, 7000, 7000, next);
                }
            });
    }
    std::vector<TimerRef> timers;
    for (std::size_t h = 0; h < n; ++h) {
        const std::vector<std::byte> payload(
            8, std::byte{static_cast<unsigned char>(h)});
        net.simulator().schedule_at(10 + h * 137, [&topo, h, n, payload] {
            topo.hosts[h]->udp_send(topo.hosts[(h + 1) % n]->addr(), 7000,
                                    7000, payload);
        });
        // A live timer injecting late traffic, and a cancelled one whose
        // tombstone must not disturb the schedule.
        timers.push_back(topo.hosts[h]->timer_after(
            30 * kMicrosecond + h, [&topo, h, n, payload] {
                topo.hosts[h]->udp_send(topo.hosts[(h + 2) % n]->addr(), 7000,
                                        7000, payload);
            }));
        auto doomed = topo.hosts[h]->timer_after(90 * kMicrosecond, [] {});
        doomed->cancel();
    }
    net.run();
    fold(net.simulator().now());
    return {sig, net.simulator().events_executed(), net.simulator().now()};
}

TEST(Determinism, IdenticalSeedsReproduceBitExactly) {
    const LossyRunOutcome first = run_lossy_leaf_spine();
    const LossyRunOutcome second = run_lossy_leaf_spine();
    EXPECT_GT(first.events, 100u);  // the workload actually ran
    EXPECT_EQ(first, second);
}

// ------------------------------------------------- parallel simulation

// The same lossy leaf-spine replay, partitioned rack-per-shard. The
// signature folds per host (one host's deliveries execute on one shard
// in a deterministic order; a fabric-global fold order would depend on
// the thread interleaving) and the per-host signatures combine in host
// order after the run.
LossyRunOutcome run_lossy_leaf_spine_parallel(std::size_t threads,
                                              bool partition = true) {
    constexpr std::size_t kLeaves = 4;
    constexpr std::size_t kSpines = 2;
    constexpr std::size_t kHostsPerLeaf = 4;
    Network net{1234};
    LinkParams params;
    params.loss_probability = 0.02;
    auto topo = make_leaf_spine(net, kLeaves, kSpines, kLeaves * kHostsPerLeaf,
                                l2_switches(net), params);
    net.install_routes();

    if (partition) {
        // The ClusterRuntime plan: a leaf plus its rack of hosts per
        // shard, spines dealt round-robin across the rack shards.
        std::vector<std::uint32_t> shard_of(net.nodes().size(), 0);
        for (std::size_t s = 0; s < topo.spines.size(); ++s) {
            shard_of[topo.spines[s]->id()] =
                static_cast<std::uint32_t>(s % kLeaves);
        }
        for (std::size_t l = 0; l < topo.leaves.size(); ++l) {
            shard_of[topo.leaves[l]->id()] = static_cast<std::uint32_t>(l);
        }
        for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
            shard_of[topo.hosts[h]->id()] =
                static_cast<std::uint32_t>(h / kHostsPerLeaf);
        }
        net.enable_parallel(shard_of, threads);
    }

    const std::size_t n = topo.hosts.size();
    std::vector<std::uint64_t> host_sig(n, 0xcbf29ce484222325ULL);
    const auto fold = [](std::uint64_t& sig, std::uint64_t v) {
        sig = (sig ^ v) * 0x100000001b3ULL;
    };
    for (std::size_t h = 0; h < n; ++h) {
        topo.hosts[h]->udp_bind(
            7000, [&, h](HostAddr src, std::uint16_t, auto payload) {
                fold(host_sig[h], src);
                fold(host_sig[h], std::to_integer<std::uint64_t>(payload[0]));
                fold(host_sig[h], topo.hosts[h]->simulator().now());
                if (payload.size() > 1) {
                    const std::vector<std::byte> next(payload.begin(),
                                                      payload.end() - 1);
                    topo.hosts[h]->udp_send(src, 7000, 7000, next);
                }
            });
    }
    std::vector<TimerRef> timers;
    for (std::size_t h = 0; h < n; ++h) {
        const std::vector<std::byte> payload(
            8, std::byte{static_cast<unsigned char>(h)});
        // Kickoffs go through each host's own simulator: scheduling on
        // another shard's queue mid-run is exactly what the windowed
        // scheme forbids.
        topo.hosts[h]->simulator().schedule_at(10 + h * 137, [&topo, h, n, payload] {
            topo.hosts[h]->udp_send(topo.hosts[(h + 1) % n]->addr(), 7000,
                                    7000, payload);
        });
        timers.push_back(topo.hosts[h]->timer_after(
            30 * kMicrosecond + h, [&topo, h, n, payload] {
                topo.hosts[h]->udp_send(topo.hosts[(h + 2) % n]->addr(), 7000,
                                        7000, payload);
            }));
        auto doomed = topo.hosts[h]->timer_after(90 * kMicrosecond, [] {});
        doomed->cancel();
    }
    net.run();
    std::uint64_t sig = 0xcbf29ce484222325ULL;
    for (std::size_t h = 0; h < n; ++h) fold(sig, host_sig[h]);
    fold(sig, net.now());
    return {sig, net.events_executed(), net.now()};
}

// The tentpole's gate: the partition fixes the shard count and with it
// the event graph, so 1-, 2- and 4-thread runs of one partition must
// agree on the event count, the delivery signature and the final
// simulated time, bit for bit.
TEST(ParallelSim, ThreadCountsProduceIdenticalOutcomes) {
    const LossyRunOutcome one = run_lossy_leaf_spine_parallel(1);
    const LossyRunOutcome two = run_lossy_leaf_spine_parallel(2);
    const LossyRunOutcome four = run_lossy_leaf_spine_parallel(4);
    EXPECT_GT(one.events, 100u);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, four);
    // The windows never inflate a shard clock past its last event, so
    // the fabric-wide final time matches the unpartitioned run exactly
    // (event counts differ: boundary deliveries cost one bookkeeping
    // event each, which is why the partitioned runs form their own
    // parity group).
    const LossyRunOutcome seq = run_lossy_leaf_spine_parallel(1, false);
    EXPECT_EQ(seq.final_time, one.final_time);
}

// Two senders on different shards, arrivals at the same instant: the
// barrier drain delivers mailboxes in (destination, source-shard, FIFO)
// order, so the tie breaks toward the lower source shard — on every
// thread count.
struct RaceOutcome {
    std::vector<HostAddr> order;  ///< sources in order of arrival at h0
    HostAddr h1{0};
    HostAddr h2{0};
};

RaceOutcome run_equal_timestamp_race(std::size_t threads) {
    Network net{7};
    auto topo = make_star(net, 3, l2_switches(net));
    net.install_routes();
    // h0 + tor on shard 0; h1 and h2 alone on shards 1 and 2.
    std::vector<std::uint32_t> shard_of(net.nodes().size(), 0);
    shard_of[topo.hosts[1]->id()] = 1;
    shard_of[topo.hosts[2]->id()] = 2;
    net.enable_parallel(shard_of, threads);

    RaceOutcome out;
    out.h1 = topo.hosts[1]->addr();
    out.h2 = topo.hosts[2]->addr();
    topo.hosts[0]->udp_bind(7000, [&out](HostAddr src, std::uint16_t, auto) {
        out.order.push_back(src);
    });
    const std::vector<std::byte> payload(4, std::byte{0x5a});
    for (const std::size_t h : {std::size_t{1}, std::size_t{2}}) {
        topo.hosts[h]->simulator().schedule_at(50, [&topo, h, payload] {
            topo.hosts[h]->udp_send(topo.hosts[0]->addr(), 7000, 7000, payload);
        });
    }
    net.run();
    return out;
}

TEST(ParallelSim, EqualTimestampCrossShardArrivalsOrderBySourceShard) {
    const RaceOutcome one = run_equal_timestamp_race(1);
    ASSERT_EQ(one.order.size(), 2u);
    EXPECT_EQ(one.order[0], one.h1);
    EXPECT_EQ(one.order[1], one.h2);
    EXPECT_EQ(run_equal_timestamp_race(2).order, one.order);
    EXPECT_EQ(run_equal_timestamp_race(4).order, one.order);
}

// A shard plan that puts the whole fabric in one shard (a star's only
// legal plan: no cut has positive lookahead) must degrade to the plain
// sequential run — same signature, same event count, no windows.
TEST(ParallelSim, SingleShardPlanDegradesToSequential) {
    const auto run = [](bool partition) {
        Network net{99};
        auto topo = make_star(net, 4, l2_switches(net));
        net.install_routes();
        if (partition) {
            net.enable_parallel(
                std::vector<std::uint32_t>(net.nodes().size(), 0), 4);
        }
        std::uint64_t sig = 0xcbf29ce484222325ULL;
        for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
            topo.hosts[h]->udp_bind(7000, [&sig, h](HostAddr src, std::uint16_t,
                                                    auto payload) {
                sig = (sig ^ (h * 1315423911u + src +
                              std::to_integer<std::uint64_t>(payload[0]))) *
                      0x100000001b3ULL;
            });
        }
        const std::vector<std::byte> payload(6, std::byte{0x11});
        for (std::size_t h = 0; h < topo.hosts.size(); ++h) {
            topo.hosts[h]->simulator().schedule_at(h * 13, [&topo, h, payload] {
                topo.hosts[h]->udp_send(
                    topo.hosts[(h + 1) % topo.hosts.size()]->addr(), 7000, 7000,
                    payload);
            });
        }
        net.run();
        return std::tuple{sig, net.events_executed(), net.now()};
    };
    const auto partitioned = run(true);
    const auto plain = run(false);
    EXPECT_EQ(partitioned, plain);
    EXPECT_GT(std::get<2>(partitioned), 0u);
}

// The tracer records from one thread only, so a partitioned run refuses
// to start while tracing is on; the same fabric runs once it is off.
TEST(ParallelSim, RefusesToRunWhileTracing) {
    Network net{5};
    auto topo = make_star(net, 3, l2_switches(net));
    net.install_routes();
    std::vector<std::uint32_t> shard_of(net.nodes().size(), 0);
    shard_of[topo.hosts[2]->id()] = 1;
    net.enable_parallel(shard_of, 2);
    int delivered = 0;
    topo.hosts[0]->udp_bind(7000, [&delivered](HostAddr, std::uint16_t, auto) {
        ++delivered;
    });
    const std::vector<std::byte> payload(4, std::byte{0x5a});
    topo.hosts[2]->simulator().schedule_at(50, [&topo, payload] {
        topo.hosts[2]->udp_send(topo.hosts[0]->addr(), 7000, 7000, payload);
    });

    trace::tracer().enable_full();
    EXPECT_THROW(net.run(), std::runtime_error);
    trace::tracer().disable();
    EXPECT_EQ(delivered, 0);
    net.run();
    EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace daiet::sim
