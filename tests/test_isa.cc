/**
 * @file
 * Unit tests for the ISA: opcode classification, instruction geometry
 * arithmetic, and TileWork aggregation (instruction lists and tile
 * grids).
 */

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "isa/program.hh"
#include "tile_grid_reference.hh"

namespace equinox
{
namespace isa
{
namespace
{

TEST(Opcode, Classification)
{
    EXPECT_TRUE(isMmuOp(Opcode::MatMul));
    EXPECT_FALSE(isMmuOp(Opcode::VectorOp));
    EXPECT_TRUE(isSimdOp(Opcode::VectorOp));
    EXPECT_TRUE(isSimdOp(Opcode::VectorTrainOp));
    EXPECT_TRUE(isSimdOp(Opcode::Accumulate));
    EXPECT_TRUE(isDataMoveOp(Opcode::LoadDram));
    EXPECT_TRUE(isDataMoveOp(Opcode::Im2col));
    EXPECT_FALSE(isDataMoveOp(Opcode::MatMul));
    EXPECT_STREQ(opcodeName(Opcode::MatMul), "matmul");
    EXPECT_STREQ(opcodeName(Opcode::VectorTrainOp), "vtrain");
}

Instruction
makeMatMul(std::uint32_t rows_real, std::uint32_t rows_dummy,
           std::uint32_t rows_slots, std::uint32_t k_valid,
           std::uint32_t k_slots, std::uint32_t cols_valid,
           std::uint32_t cols_slots)
{
    Instruction inst;
    inst.op = Opcode::MatMul;
    inst.rows_real = rows_real;
    inst.rows_dummy = rows_dummy;
    inst.rows_slots = rows_slots;
    inst.k_valid = k_valid;
    inst.k_slots = k_slots;
    inst.cols_valid = cols_valid;
    inst.cols_slots = cols_slots;
    return inst;
}

TEST(Instruction, MacCounting)
{
    auto inst = makeMatMul(3, 1, 4, 8, 8, 6, 8);
    EXPECT_EQ(inst.realMacs(), 3u * 8 * 6);
    EXPECT_EQ(inst.dummyMacs(), 1u * 8 * 6);
    EXPECT_EQ(inst.totalAluSlots(), 4u * 8 * 8);
    EXPECT_EQ(inst.mmuOccupancy(), 4u);
}

TEST(TileWork, FullTileIsAllWorking)
{
    // 4x4x2-wide, m=2 arrays: macs/cycle = 2*16*2 = 64.
    std::vector<Instruction> insts{makeMatMul(4, 0, 4, 8, 8, 8, 8)};
    auto tw = makeTileWork(insts, 64, 0);
    EXPECT_EQ(tw.instructions, 1u);
    EXPECT_EQ(tw.occupancy, 4u); // 256 slots / 64 per cycle
    EXPECT_DOUBLE_EQ(tw.geom_frac, 1.0);
    EXPECT_EQ(tw.real_ops, 2u * 4 * 8 * 8);
}

TEST(TileWork, PartialTileGeometry)
{
    // Half the K dimension valid: geometry efficiency 0.5.
    std::vector<Instruction> insts{makeMatMul(4, 0, 4, 4, 8, 8, 8)};
    auto tw = makeTileWork(insts, 64, 0);
    EXPECT_DOUBLE_EQ(tw.geom_frac, 0.5);
    EXPECT_EQ(tw.real_ops, 2u * 4 * 4 * 8);
}

TEST(TileWork, AggregatesAcrossInstructions)
{
    std::vector<Instruction> insts{makeMatMul(4, 0, 4, 8, 8, 8, 8),
                                   makeMatMul(4, 0, 4, 4, 8, 8, 8)};
    auto tw = makeTileWork(insts, 64, 123);
    EXPECT_EQ(tw.instructions, 2u);
    EXPECT_EQ(tw.occupancy, 8u);
    EXPECT_DOUBLE_EQ(tw.geom_frac, 0.75);
    EXPECT_EQ(tw.stream_bytes, 123u);
}

TEST(TileWork, DummyRowsCountInGeometry)
{
    // Dummy rows occupy valid geometry; the simulator splits them from
    // working at run time via the real-request fraction.
    std::vector<Instruction> insts{makeMatMul(2, 2, 4, 8, 8, 8, 8)};
    auto tw = makeTileWork(insts, 64, 0);
    EXPECT_DOUBLE_EQ(tw.geom_frac, 1.0);
    EXPECT_EQ(tw.real_ops, 2u * 4 * 8 * 8); // all data rows
}

TEST(TileWork, OccupancyRoundsUp)
{
    // 255 valid of 256 slots at 64/cycle still takes 4 cycles.
    std::vector<Instruction> insts{makeMatMul(4, 0, 4, 8, 8, 8, 8)};
    auto tw = makeTileWork(insts, 63, 0);
    EXPECT_EQ(tw.occupancy, (4u * 8 * 8 + 62) / 63);
}

/** Field-for-field equality, geom_frac compared as bits. */
void
expectSameTileWork(const TileWork &grid, const TileWork &ref,
                   const std::string &where)
{
    EXPECT_EQ(grid.instructions, ref.instructions) << where;
    EXPECT_EQ(grid.occupancy, ref.occupancy) << where;
    EXPECT_EQ(grid.rows_used, ref.rows_used) << where;
    EXPECT_EQ(grid.rows_slots, ref.rows_slots) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(grid.geom_frac),
              std::bit_cast<std::uint64_t>(ref.geom_frac))
        << where;
    EXPECT_EQ(grid.real_ops, ref.real_ops) << where;
    EXPECT_EQ(grid.stream_bytes, ref.stream_bytes) << where;
}

TEST(TileWork, GridOfOneTileMatchesInstruction)
{
    const GemmGrid g{.rows = 4, .k = 4, .cols = 8, .row_slots = 4,
                     .k_slots = 8, .col_slots = 8};
    auto tw = makeTileWork(std::span(&g, 1), 64, 7);
    EXPECT_EQ(g.tiles(), 1u);
    EXPECT_DOUBLE_EQ(tw.geom_frac, 0.5);
    expectSameTileWork(
        tw, makeTileWork(std::vector{makeMatMul(4, 0, 4, 4, 8, 8, 8)}, 64, 7),
        "one tile");
    // No grids: the empty instruction list's summary.
    expectSameTileWork(makeTileWork(std::span<const GemmGrid>(), 64, 0),
                       makeTileWork(std::span<const Instruction>(), 64, 0),
                       "empty");
}

/**
 * Seeded fuzz: the closed-form grid TileWork equals the instruction-list
 * reference over every grid expanded into its tiles. Arrays are the
 * Table 1 designs plus random small ones; each step has 1-3 grids in
 * mode 1 or mode 2 slot geometry, each axis an exact multiple of its
 * slots or ragged, 1-8 copies.
 */
TEST(TileWorkProperty, GridFormMatchesInstructionList)
{
    struct Array
    {
        std::uint32_t n, m, w;
    };
    // (n, m, w) of the hbfp8 and bfloat16 Table 1 designs.
    const Array table1[] = {{1, 229, 207}, {14, 39, 37}, {143, 4, 4},
                            {191, 3, 3},   {1, 166, 135}, {37, 8, 6},
                            {185, 2, 1}};
    std::mt19937_64 rng(20211018);
    auto below = [&](std::uint64_t bound) { return rng() % bound; };
    // One axis of @p slots: 1-4 tiles, the last full or ragged.
    int ragged_axes = 0, exact_axes = 0;
    auto axis = [&](std::uint32_t slots) -> std::uint64_t {
        std::uint64_t full = below(4);
        if (slots > 1 && below(2)) {
            ++ragged_axes;
            return full * slots + 1 + below(slots - 1);
        }
        ++exact_axes;
        return (full + 1) * slots;
    };

    int multi_grid = 0, mode2 = 0, max_copies = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        Array a;
        if (trial % 2 == 0) {
            a = table1[below(std::size(table1))];
        } else {
            a = {static_cast<std::uint32_t>(1 + below(40)),
                 static_cast<std::uint32_t>(1 + below(8)),
                 static_cast<std::uint32_t>(1 + below(8))};
        }
        const std::uint64_t macs =
            static_cast<std::uint64_t>(a.m) * a.n * a.n * a.w;
        std::vector<GemmGrid> grids(1 + below(3));
        for (auto &g : grids) {
            const bool mode1 = below(2) == 0;
            mode2 += !mode1;
            g.row_slots = mode1 ? a.n : a.m * a.n;
            g.k_slots = a.n * a.w;
            g.col_slots = mode1 ? a.m * a.n : a.n;
            g.rows = axis(g.row_slots);
            g.k = axis(g.k_slots);
            g.cols = axis(g.col_slots);
            g.copies = 1 + below(8);
            max_copies = std::max(max_copies, static_cast<int>(g.copies));
        }
        multi_grid += grids.size() > 1;
        const ByteCount stream = below(1 << 20);
        const auto insts = testref::gridInstructions(grids);
        std::uint64_t tiles = 0;
        for (const auto &g : grids)
            tiles += g.tiles();
        ASSERT_EQ(tiles, insts.size());
        expectSameTileWork(makeTileWork(grids, macs, stream),
                           makeTileWork(insts, macs, stream),
                           "trial " + std::to_string(trial));
        if (HasFailure())
            return;
    }
    // The fuzz reached every shape it claims to cover.
    EXPECT_GT(ragged_axes, 1000);
    EXPECT_GT(exact_axes, 1000);
    EXPECT_GT(multi_grid, 1000);
    EXPECT_GT(mode2, 1000);
    EXPECT_EQ(max_copies, 8);
}

TEST(CompiledProgram, Accounting)
{
    CompiledProgram prog;
    prog.batch_rows = 4;
    for (int i = 0; i < 3; ++i) {
        StepBlock sb;
        std::vector<Instruction> insts{makeMatMul(4, 0, 4, 8, 8, 8, 8)};
        sb.mmu = makeTileWork(insts, 64, 100);
        sb.simd_cycles = 2;
        sb.drain_cycles = 8;
        prog.steps.push_back(sb);
    }
    EXPECT_EQ(prog.mmuBusyCycles(), 12u);
    EXPECT_EQ(prog.serviceCycles(), 12u + 3 * (2 + 8));
    EXPECT_EQ(prog.totalRealOps(), 3u * 2 * 4 * 8 * 8);
    EXPECT_DOUBLE_EQ(prog.opsPerRequest(),
                     static_cast<double>(3 * 2 * 4 * 8 * 8) / 4.0);
    EXPECT_EQ(prog.totalStreamBytes(), 300u);
    EXPECT_EQ(prog.totalInstructions(), 3u);
}

} // namespace
} // namespace isa
} // namespace equinox
