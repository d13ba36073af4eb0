#include "isa/program.hh"

#include <algorithm>

#include "common/logging.hh"

namespace equinox
{
namespace isa
{

Tick
CompiledProgram::mmuBusyCycles() const
{
    Tick t = 0;
    for (const auto &s : steps)
        t += s.mmu.occupancy;
    return t;
}

Tick
CompiledProgram::serviceCycles() const
{
    Tick t = 0;
    for (const auto &s : steps)
        t += s.mmu.occupancy + s.simd_cycles + s.drain_cycles;
    return t;
}

OpCount
CompiledProgram::totalRealOps() const
{
    OpCount ops = 0;
    for (const auto &s : steps)
        ops += s.mmu.real_ops;
    return ops;
}

double
CompiledProgram::opsPerRequest() const
{
    EQX_ASSERT(batch_rows > 0, "program without batch rows");
    return static_cast<double>(totalRealOps()) /
           static_cast<double>(batch_rows);
}

double
CompiledProgram::saturationOpRate(double frequency_hz) const
{
    Tick busy = mmuBusyCycles();
    EQX_ASSERT(busy > 0, "program with no MMU work");
    return static_cast<double>(totalRealOps()) /
           static_cast<double>(busy) * frequency_hz;
}

ByteCount
CompiledProgram::totalStreamBytes() const
{
    ByteCount b = 0;
    for (const auto &s : steps)
        b += s.mmu.stream_bytes;
    return b;
}

std::uint64_t
CompiledProgram::totalInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &s : steps)
        n += s.mmu.instructions;
    return n;
}

namespace
{

/** Summary fields that depend only on the slot totals. */
void
finishTileWork(TileWork &tw, std::uint64_t total_slots,
               std::uint64_t valid_slots, std::uint64_t real_macs,
               std::uint64_t macs_per_cycle)
{
    tw.occupancy = (total_slots + macs_per_cycle - 1) / macs_per_cycle;
    tw.geom_frac = total_slots
                       ? static_cast<double>(valid_slots) /
                             static_cast<double>(total_slots)
                       : 0.0;
    // real_ops assumes every data row is real; the simulator rescales by
    // the actual real-request count of the batch.
    tw.real_ops = 2 * real_macs;
}

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

std::uint64_t
GemmGrid::tiles() const
{
    return ceilDiv(rows, row_slots) * ceilDiv(k, k_slots) *
           ceilDiv(cols, col_slots) * copies;
}

TileWork
makeTileWork(std::span<const GemmGrid> grids,
             std::uint64_t macs_per_cycle, ByteCount stream_bytes)
{
    EQX_ASSERT(macs_per_cycle > 0, "MMU with zero MAC throughput");

    TileWork tw;
    tw.stream_bytes = stream_bytes;

    std::uint64_t tiles = 0;
    std::uint64_t total_slots = 0;
    std::uint64_t valid_slots = 0;
    for (const auto &g : grids) {
        EQX_ASSERT(g.rows > 0 && g.k > 0 && g.cols > 0 && g.copies > 0,
                   "degenerate GEMM grid");
        EQX_ASSERT(g.row_slots > 0 && g.k_slots > 0 && g.col_slots > 0,
                   "GEMM grid without physical slots");
        const std::uint64_t grid_tiles = g.tiles();
        tiles += grid_tiles;
        total_slots += grid_tiles *
                       (static_cast<std::uint64_t>(g.row_slots) *
                        g.k_slots * g.col_slots);
        valid_slots += g.rows * g.k * g.cols * g.copies;
        // The first tile of each axis is the fullest.
        tw.rows_used = std::max(
            tw.rows_used,
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                g.rows, g.row_slots)));
        tw.rows_slots = std::max(tw.rows_slots, g.row_slots);
    }
    // Wraps exactly as a per-instruction 32-bit count would.
    tw.instructions = static_cast<std::uint32_t>(tiles);
    finishTileWork(tw, total_slots, valid_slots, valid_slots,
                   macs_per_cycle);
    return tw;
}

TileWork
makeTileWork(std::span<const Instruction> insts,
             std::uint64_t macs_per_cycle, ByteCount stream_bytes)
{
    EQX_ASSERT(macs_per_cycle > 0, "MMU with zero MAC throughput");

    TileWork tw;
    tw.stream_bytes = stream_bytes;

    std::uint64_t total_slots = 0;
    std::uint64_t valid_slots = 0;
    std::uint64_t real_macs = 0;
    for (const auto &inst : insts) {
        EQX_ASSERT(isMmuOp(inst.op), "non-MMU instruction in TileWork: ",
                   opcodeName(inst.op));
        EQX_ASSERT(inst.k_valid <= inst.k_slots &&
                       inst.cols_valid <= inst.cols_slots &&
                       inst.rows_real + inst.rows_dummy <= inst.rows_slots,
                   "instruction geometry exceeds physical slots");
        ++tw.instructions;
        total_slots += inst.totalAluSlots();
        std::uint64_t data_rows = inst.rows_real + inst.rows_dummy;
        valid_slots += data_rows *
                       static_cast<std::uint64_t>(inst.k_valid) *
                       inst.cols_valid;
        real_macs += inst.realMacs() + inst.dummyMacs();
        tw.rows_used = std::max(tw.rows_used,
                                inst.rows_real + inst.rows_dummy);
        tw.rows_slots = std::max(tw.rows_slots, inst.rows_slots);
    }

    finishTileWork(tw, total_slots, valid_slots, real_macs,
                   macs_per_cycle);
    return tw;
}

} // namespace isa
} // namespace equinox
