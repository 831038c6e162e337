// Tests for the RMT-style dataplane model: SRAM accounting, registers,
// match-action tables, the per-pass operation budget, the single-
// application rule and recirculation.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <optional>

#include "common/bytes.hpp"
#include "core/protocol.hpp"
#include "dataplane/match_table.hpp"
#include "dataplane/pipeline.hpp"
#include "dataplane/pipeline_switch.hpp"
#include "dataplane/register_array.hpp"
#include "dataplane/resources.hpp"
#include "netsim/headers.hpp"

namespace daiet::dp {
namespace {

// ---------------------------------------------------------------- SRAM

TEST(SramBook, TracksReservations) {
    SramBook book{1000};
    book.reserve("a", 400);
    book.reserve("b", 600);
    EXPECT_EQ(book.used_bytes(), 1000U);
}

TEST(SramBook, ThrowsWhenBudgetExceeded) {
    SramBook book{100};
    book.reserve("a", 80);
    EXPECT_THROW(book.reserve("b", 21), ResourceError);
    EXPECT_EQ(book.used_bytes(), 80U);
}

TEST(SramBook, UnlimitedWhenZero) {
    SramBook book{0};
    book.reserve("huge", 1ULL << 40);
    EXPECT_EQ(book.used_bytes(), 1ULL << 40);
}

TEST(SramBook, ReleaseReturnsCapacity) {
    SramBook book{100};
    book.reserve("a", 100);
    book.release(50);
    book.reserve("b", 50);
    EXPECT_EQ(book.used_bytes(), 100U);
}

// ----------------------------------------------------------- registers

TEST(RegisterArray, ReservesFootprintFromBook) {
    SramBook book{0};
    RegisterArray<std::uint32_t> reg{"r", 1024, book};
    EXPECT_EQ(book.used_bytes(), 1024 * sizeof(std::uint32_t));
    EXPECT_EQ(reg.footprint_bytes(), 4096U);
}

TEST(RegisterArray, ReleasesOnDestruction) {
    SramBook book{0};
    {
        RegisterArray<std::uint64_t> reg{"r", 10, book};
        EXPECT_EQ(book.used_bytes(), 80U);
    }
    EXPECT_EQ(book.used_bytes(), 0U);
}

TEST(RegisterArray, OversizedAllocationRejected) {
    SramBook book{100};
    EXPECT_THROW((RegisterArray<std::uint64_t>{"big", 1000, book}), ResourceError);
}

TEST(RegisterArray, ReadWriteThroughContextCountsOps) {
    SramBook book{0};
    RegisterArray<std::uint32_t> reg{"r", 8, book};
    Packet p;
    PacketContext ctx{p, 0};
    reg.write(ctx, 3, 99);
    EXPECT_EQ(reg.read(ctx, 3), 99U);
    EXPECT_EQ(ctx.pass_ops().of(OpKind::kRegisterWrite), 1U);
    EXPECT_EQ(ctx.pass_ops().of(OpKind::kRegisterRead), 1U);
}

TEST(RegisterArray, ControlPlanePokeBypassesOpCounting) {
    SramBook book{0};
    RegisterArray<std::uint32_t> reg{"r", 4, book};
    reg.poke(2, 7);
    EXPECT_EQ(reg.peek(2), 7U);
    reg.poke(3, 1);
    reg.clear();
    EXPECT_EQ(reg.peek(2), 0U);
    EXPECT_EQ(reg.peek(3), 0U);
}

/// A fresh array reads as all-zero cells (the empty cell), also when
/// its storage follows an array of the same size that was written and
/// freed; its SRAM charge is size * sizeof(T).
template <typename T>
void expect_fresh_array_reads_zero(std::size_t size) {
    SramBook book{0};
    std::array<unsigned char, sizeof(T)> ones;
    ones.fill(0xA5);
    const auto dirty = std::bit_cast<T>(ones);
    {
        RegisterArray<T> used{"used", size, book};
        for (std::size_t i = 0; i < size; ++i) used.poke(i, dirty);
    }
    EXPECT_EQ(book.used_bytes(), 0U);
    RegisterArray<T> reg{"r", size, book};
    EXPECT_EQ(book.used_bytes(), size * sizeof(T));
    EXPECT_EQ(reg.footprint_bytes(), size * sizeof(T));
    const T zero{};
    for (std::size_t i = 0; i < size; ++i) {
        ASSERT_EQ(std::memcmp(&reg.peek(i), &zero, sizeof(T)), 0) << "cell " << i;
        ASSERT_TRUE(reg.peek(i) == zero) << "cell " << i;
    }
}

TEST(RegisterArray, FreshArraysReadZero) {
    // 16,384 cells is a DAIET tree slot's size.
    for (const std::size_t size : {std::size_t{1}, std::size_t{64}, std::size_t{16384}}) {
        SCOPED_TRACE(size);
        expect_fresh_array_reads_zero<KvPair>(size);
        expect_fresh_array_reads_zero<Key16>(size);
        expect_fresh_array_reads_zero<std::uint32_t>(size);
    }
    EXPECT_TRUE(KvPair{}.key.empty());
}

TEST(RegisterArray, MoveKeepsCellsAndReleasesChargeOnce) {
    SramBook book{0};
    RegisterArray<std::uint32_t> other{"other", 16, book};
    const std::size_t other_bytes = book.used_bytes();
    std::optional<RegisterArray<KvPair>> from{std::in_place, "from", 1024, book};
    const std::size_t total = book.used_bytes();
    EXPECT_EQ(total, other_bytes + 1024 * sizeof(KvPair));
    const KvPair pair{Key16::from_u64(7), 42};
    from->poke(1000, pair);
    {
        RegisterArray<KvPair> to{std::move(*from)};
        EXPECT_EQ(book.used_bytes(), total);
        EXPECT_EQ(to.size(), 1024U);
        EXPECT_EQ(to.peek(1000), pair);
        EXPECT_EQ(from->size(), 0U);
        from.reset();  // the moved-from array holds no charge to release
        EXPECT_EQ(book.used_bytes(), total);
    }
    EXPECT_EQ(book.used_bytes(), other_bytes);
}

/// Cell i's value in the block-storage tests: distinct and nonzero.
constexpr std::uint64_t cell_value(std::size_t i) { return 3 * i + 1; }

TEST(RegisterArray, WritesReadBackAcrossBlocksAndInPartialLastBlock) {
    // Blocks of 16, 16 and 8 cells; written out of order, so blocks are
    // carved in an order other than their index order.
    constexpr std::size_t kSize = 40;
    static_assert(kSize % RegisterArray<std::uint64_t>::kBlockCells != 0);
    SramBook book{0};
    RegisterArray<std::uint64_t> reg{"r", kSize, book};
    Packet p;
    PacketContext ctx{p, 0};
    for (const std::size_t i : {39UL, 16UL, 15UL, 0UL, 31UL, 32UL}) {
        reg.write(ctx, i, cell_value(i));
    }
    for (std::size_t i = 0; i < kSize; ++i) {
        const bool written = i == 0 || i == 15 || i == 16 || i == 31 || i == 32 || i == 39;
        EXPECT_EQ(reg.read(ctx, i), written ? cell_value(i) : 0U) << "cell " << i;
    }
    for (std::size_t i = 0; i < kSize; ++i) reg.cell(i) = cell_value(i);
    for (std::size_t i = 0; i < kSize; ++i) EXPECT_EQ(reg.peek(i), cell_value(i)) << i;
    EXPECT_EQ(reg.committed_bytes(), kSize * sizeof(std::uint64_t));
    EXPECT_EQ(book.used_bytes(), kSize * sizeof(std::uint64_t));
}

TEST(RegisterArray, NeverWrittenCellReadsEmptyAndCommitsNoBlock) {
    SramBook book{0};
    RegisterArray<KvPair> reg{"r", 16384, book};
    Packet p;
    PacketContext ctx{p, 0};
    EXPECT_TRUE(reg.peek(9000).key.empty());
    EXPECT_EQ(reg.read(ctx, 16383), KvPair{});
    EXPECT_EQ(reg.committed_bytes(), 0U);
    EXPECT_EQ(book.used_bytes(), 16384 * sizeof(KvPair));  // SRAM charged in full

    reg.poke(9000, KvPair{Key16::from_u64(5), 6});
    EXPECT_EQ(reg.committed_bytes(), RegisterArray<KvPair>::kBlockCells * sizeof(KvPair));
    EXPECT_TRUE(reg.peek(9001).key.empty());  // its block-mate, zeroed on carve
    EXPECT_TRUE(reg.peek(100).key.empty());
    EXPECT_EQ(reg.committed_bytes(), RegisterArray<KvPair>::kBlockCells * sizeof(KvPair));

    // A partial last block commits only its own cells.
    RegisterArray<std::uint32_t> small{"s", 20, book};
    small.poke(19, 1);
    EXPECT_EQ(small.committed_bytes(), 4 * sizeof(std::uint32_t));
}

TEST(RegisterArray, ClearEmptiesEveryWrittenCell) {
    constexpr std::size_t kSize = 1000;
    SramBook book{0};
    RegisterArray<std::uint64_t> reg{"r", kSize, book};
    for (std::size_t i = 0; i < kSize; i += 7) reg.poke(i, cell_value(i));
    const std::size_t committed = reg.committed_bytes();
    reg.clear();
    for (std::size_t i = 0; i < kSize; ++i) ASSERT_EQ(reg.peek(i), 0U) << "cell " << i;
    EXPECT_EQ(reg.committed_bytes(), committed);  // blocks stay for the next round
    reg.poke(999, 5);
    EXPECT_EQ(reg.peek(999), 5U);
}

TEST(RegisterArray, MovedArrayKeepsCellsAndGrows) {
    // The first half's blocks are carved before the move, the second
    // half's after it, from the arena the array took over.
    constexpr std::size_t kSize = 300;
    SramBook book{0};
    std::optional<RegisterArray<std::uint64_t>> from{std::in_place, "from", kSize, book};
    for (std::size_t i = 0; i < kSize / 2; i += 5) from->poke(i, cell_value(i));
    RegisterArray<std::uint64_t> to{std::move(*from)};
    from.reset();
    for (std::size_t i = 0; i < kSize; ++i) {
        ASSERT_EQ(to.peek(i), i % 5 == 0 && i < kSize / 2 ? cell_value(i) : 0U) << i;
    }
    for (std::size_t i = kSize / 2; i < kSize; i += 5) to.poke(i, cell_value(i));
    for (std::size_t i = 0; i < kSize; ++i) {
        ASSERT_EQ(to.peek(i), i % 5 == 0 ? cell_value(i) : 0U) << "cell " << i;
    }
    EXPECT_EQ(to.committed_bytes(), kSize * sizeof(std::uint64_t));
    EXPECT_EQ(book.used_bytes(), kSize * sizeof(std::uint64_t));
}

// --------------------------------------------------------- match table

TEST(ExactMatchTable, InstallAndApply) {
    SramBook book{0};
    ExactMatchTable<std::uint16_t, int> table{"t", 8, book};
    table.install(5, 50);
    Packet p;
    PacketContext ctx{p, 0};
    const int* hit = table.apply(ctx, 5);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 50);
}

TEST(ExactMatchTable, MissReturnsNull) {
    SramBook book{0};
    ExactMatchTable<std::uint16_t, int> table{"t", 8, book};
    Packet p;
    PacketContext ctx{p, 0};
    EXPECT_EQ(table.apply(ctx, 1), nullptr);
}

TEST(ExactMatchTable, CapacityEnforced) {
    SramBook book{0};
    ExactMatchTable<int, int> table{"t", 2, book};
    table.install(1, 1);
    table.install(2, 2);
    EXPECT_THROW(table.install(3, 3), ResourceError);
    table.install(2, 22);  // overwrite existing is fine
    EXPECT_EQ(*table.peek(2), 22);
}

TEST(ExactMatchTable, DoubleApplicationThrows) {
    // The paper (§5) calls this out: "a table can be applied at most
    // once per packet".
    SramBook book{0};
    ExactMatchTable<int, int> table{"t", 8, book};
    table.install(1, 1);
    Packet p;
    PacketContext ctx{p, 0};
    table.apply(ctx, 1);
    EXPECT_THROW(table.apply(ctx, 1), PipelineError);
}

TEST(ExactMatchTable, FreshPassAllowsReapplication) {
    SramBook book{0};
    ExactMatchTable<int, int> table{"t", 8, book};
    table.install(1, 1);
    Packet p;
    PacketContext ctx{p, 0};
    table.apply(ctx, 1);
    ctx.begin_pass();
    EXPECT_NO_THROW(table.apply(ctx, 1));
}

// ------------------------------------------------------------ pipeline

/// Program that performs a configurable number of ALU ops per pass and
/// recirculates a configurable number of times.
class SyntheticProgram final : public PipelineProgram {
public:
    SyntheticProgram(std::uint32_t ops, std::uint16_t recircs)
        : ops_{ops}, recircs_{recircs} {}

    void on_packet(PacketContext& ctx) override {
        for (std::uint32_t i = 0; i < ops_; ++i) ctx.count_op(OpKind::kAlu);
        if (ctx.packet().meta().recirc_count < recircs_) {
            ctx.recirculate();
        } else {
            ctx.set_egress(1);
        }
    }

    std::string name() const override { return "synthetic"; }

private:
    std::uint32_t ops_;
    std::uint16_t recircs_;
};

TEST(Pipeline, OpBudgetEnforced) {
    PipelineConfig cfg;
    cfg.ops_per_pass = 10;
    Pipeline ok{cfg, std::make_shared<SyntheticProgram>(10, 0)};
    EXPECT_NO_THROW(ok.process(Packet{}));

    Pipeline over{cfg, std::make_shared<SyntheticProgram>(11, 0)};
    EXPECT_THROW(over.process(Packet{}), PipelineError);
}

TEST(Pipeline, BudgetIsPerPassNotPerPacket) {
    // 8 ops per pass, 3 passes = 24 total ops; must fit a 10-op budget
    // because recirculation resets the per-pass counter.
    PipelineConfig cfg;
    cfg.ops_per_pass = 10;
    Pipeline p{cfg, std::make_shared<SyntheticProgram>(8, 2)};
    const auto out = p.process(Packet{});
    ASSERT_EQ(out.size(), 1U);
    EXPECT_EQ(p.stats().recirculations, 2U);
    EXPECT_EQ(p.stats().ops.of(OpKind::kAlu), 24U);
}

TEST(Pipeline, RecirculationLimitEnforced) {
    PipelineConfig cfg;
    cfg.max_recirculations = 5;
    Pipeline p{cfg, std::make_shared<SyntheticProgram>(1, 100)};
    EXPECT_THROW(p.process(Packet{}), PipelineError);
}

TEST(Pipeline, DroppedPacketsProduceNoOutput) {
    class Dropper final : public PipelineProgram {
    public:
        void on_packet(PacketContext& ctx) override { ctx.mark_drop(); }
        std::string name() const override { return "drop"; }
    };
    Pipeline p{PipelineConfig{}, std::make_shared<Dropper>()};
    EXPECT_TRUE(p.process(Packet{}).empty());
    EXPECT_EQ(p.stats().packets_dropped, 1U);
    EXPECT_EQ(p.stats().packets_out, 0U);
}

TEST(Pipeline, EmittedPacketsAreReturned) {
    class Emitter final : public PipelineProgram {
    public:
        void on_packet(PacketContext& ctx) override {
            Packet extra;
            extra.meta().egress_port = 7;
            ctx.emit(std::move(extra));
            ctx.mark_drop();
        }
        std::string name() const override { return "emit"; }
    };
    Pipeline p{PipelineConfig{}, std::make_shared<Emitter>()};
    const auto out = p.process(Packet{});
    ASSERT_EQ(out.size(), 1U);
    EXPECT_EQ(out[0].meta().egress_port, 7);
}

/// Emits one packet, fills the parse cache, then spends `ops` ALU ops;
/// records whether each packet's first pass found the context clean.
class CacheThenBurnProgram final : public PipelineProgram {
public:
    void on_packet(PacketContext& ctx) override {
        entered_clean = ctx.emitted().empty() &&
                        ctx.cached_parsed_frame() == nullptr &&
                        ctx.total_ops().total() == 0;
        ctx.emit(Packet{});
        ASSERT_NE(ctx.parse_into_cache(), nullptr);
        for (std::uint32_t i = 0; i < ops; ++i) ctx.count_op(OpKind::kAlu);
        ctx.set_egress(1);
    }
    std::string name() const override { return "cache-then-burn"; }

    std::uint32_t ops{0};
    bool entered_clean{false};
};

TEST(Pipeline, SharedContextKeepsEachPipelinesBudget) {
    // Every pipeline on a thread shares one context. Alternating packets
    // between a 10-op and a 20-op pipeline must hold each to its own
    // budget, and a packet that throws mid-pass must leave nothing (its
    // emitted packet, its parse cache) to the next one.
    PipelineConfig small_cfg;
    small_cfg.ops_per_pass = 10;
    PipelineConfig large_cfg;
    large_cfg.ops_per_pass = 20;
    const auto small_prog = std::make_shared<CacheThenBurnProgram>();
    const auto large_prog = std::make_shared<CacheThenBurnProgram>();
    Pipeline small{small_cfg, small_prog};
    Pipeline large{large_cfg, large_prog};
    const auto run = [](Pipeline& p, CacheThenBurnProgram& prog, std::uint32_t ops) {
        prog.ops = ops;
        prog.entered_clean = false;
        return p.process(Packet{sim::build_udp_frame(1, 2, 3, 4, as_bytes("x"))});
    };

    EXPECT_EQ(run(small, *small_prog, 10).size(), 2U);
    EXPECT_EQ(run(large, *large_prog, 20).size(), 2U);
    EXPECT_THROW(run(small, *small_prog, 11), PipelineError);
    // 15 ops: over the small budget, within the large one.
    EXPECT_EQ(run(large, *large_prog, 15).size(), 2U);
    EXPECT_TRUE(large_prog->entered_clean);
    EXPECT_THROW(run(large, *large_prog, 21), PipelineError);
    EXPECT_EQ(run(small, *small_prog, 10).size(), 2U);
    EXPECT_TRUE(small_prog->entered_clean);
    EXPECT_THROW(run(small, *small_prog, 15), PipelineError);
}

TEST(PipelineSwitch, RequiresProgramBeforeTraffic) {
    PipelineSwitch sw{"s", SwitchConfig{}};
    EXPECT_FALSE(sw.has_program());
    sw.load_program(std::make_shared<SyntheticProgram>(1, 0));
    EXPECT_TRUE(sw.has_program());
    const auto out = sw.receive(Packet{}, 0);
    ASSERT_EQ(out.size(), 1U);
    EXPECT_EQ(out[0].meta().ingress_port, 0);
}

TEST(PipelineSwitch, SramSharedAcrossStructures) {
    SwitchConfig cfg;
    cfg.sram_bytes = 1000;
    PipelineSwitch sw{"s", cfg};
    RegisterArray<std::uint32_t> a{"a", 200, sw.sram()};  // 800 bytes
    EXPECT_THROW((RegisterArray<std::uint32_t>{"b", 100, sw.sram()}), ResourceError);
}

TEST(PacketContext, HashChargesOpAndMatchesCrc32) {
    Packet p;
    PacketContext ctx{p, 0};
    const auto h = ctx.hash(as_bytes("123456789"));
    EXPECT_EQ(h, 0xCBF43926U);
    EXPECT_EQ(ctx.pass_ops().of(OpKind::kHash), 1U);
}

}  // namespace
}  // namespace daiet::dp
