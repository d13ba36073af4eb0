/**
 * @file
 * Compiled-program representation executed by the simulator.
 *
 * The workload compiler lowers a DNN model into ISA instructions grouped
 * into dependence steps (e.g. one LSTM time step): instructions inside a
 * step pipeline back-to-back through the MMU; the next step becomes ready
 * only after the previous step's results pass through the SIMD unit
 * (recurrences, activations) and the array drains.
 *
 * Each step carries an aggregated TileWork summary, which is what the
 * event-driven simulator executes. The compiler describes a step's MMU
 * work as GemmGrids (one tiled GEMM each, replicated over gates or
 * images) and makeTileWork() sums a grid in closed form, without
 * materialising its tile instructions. The instruction-list overload of
 * makeTileWork() is the definition the closed form must reproduce bit
 * for bit; the tests expand grids into instructions and compare.
 */

#ifndef EQUINOX_ISA_PROGRAM_HH
#define EQUINOX_ISA_PROGRAM_HH

#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace equinox
{
namespace isa
{

/** Aggregated MMU work of one dependence step. */
struct TileWork
{
    /** ISA MatMul instructions aggregated here. */
    std::uint32_t instructions = 0;
    /** MMU busy cycles to issue all of them back-to-back. */
    Tick occupancy = 0;
    /** Data-carrying batch rows the step was compiled for. */
    std::uint32_t rows_used = 0;
    /** Physical row slots per instruction (n in mode 1). */
    std::uint32_t rows_slots = 0;
    /**
     * Valid-slot fraction of the ALU time, assuming all rows_used rows
     * carry data: captures partial-tile (dimension-mismatch) waste.
     */
    double geom_frac = 1.0;
    /** Ops (2 x MACs) on data rows when all rows_used rows are real. */
    OpCount real_ops = 0;
    /** Operand bytes that must be staged from DRAM before issue. */
    ByteCount stream_bytes = 0;
};

/** One dependence step: MMU work plus the serialising epilogue. */
struct StepBlock
{
    TileWork mmu;
    /** SIMD cycles that must complete before the next step can issue. */
    Tick simd_cycles = 0;
    /** Systolic-array drain before results are visible downstream. */
    Tick drain_cycles = 0;
    /** Host-interface bytes attributable to this step (tracked only). */
    ByteCount host_bytes = 0;
    /** Result bytes written back to DRAM after the step (training). */
    ByteCount store_bytes = 0;
};

/** A model lowered for one accelerator configuration. */
struct CompiledProgram
{
    std::string name;
    std::vector<StepBlock> steps;
    /** Batch rows per request group (n for mode-1 inference). */
    std::uint32_t batch_rows = 1;
    /** True when per-request dummy scaling applies (inference). */
    bool scale_rows_by_batch = true;

    /** Sum of per-step MMU occupancies. */
    Tick mmuBusyCycles() const;

    /** Single-job latency: occupancy + SIMD + drain over all steps. */
    Tick serviceCycles() const;

    /** Ops on real data with all batch_rows rows real. */
    OpCount totalRealOps() const;

    /** Ops contributed by one real request (totalRealOps / batch_rows). */
    double opsPerRequest() const;

    /**
     * Saturation inference op rate in ops/s at @p frequency_hz: every
     * real op of the program per MMU-busy cycle. Asserts the program
     * has MMU work.
     */
    double saturationOpRate(double frequency_hz) const;

    /** Total DRAM-staged bytes over all steps. */
    ByteCount totalStreamBytes() const;

    /** Total ISA MatMul instructions. */
    std::uint64_t totalInstructions() const;
};

/**
 * A GEMM [rows x k] x [k x cols] tiled onto the MMU, repeated @c copies
 * times. Each tile instruction spans row_slots x k_slots x col_slots
 * physical slots; along each axis every tile is full except the last,
 * which carries the remainder (dim - (tiles - 1) * slots).
 */
struct GemmGrid
{
    std::uint64_t rows = 0;
    std::uint64_t k = 0;
    std::uint64_t cols = 0;
    std::uint32_t row_slots = 0;
    std::uint32_t k_slots = 0;
    std::uint32_t col_slots = 0;
    /** Identical grids in the step (the gates of a group, images). */
    std::uint64_t copies = 1;

    /** Tile instructions over all copies. */
    std::uint64_t tiles() const;
};

/**
 * Aggregate a step's GEMM grids into a TileWork summary in closed form.
 *
 * Equal, field for field, to the instruction-list overload applied to
 * the grids' tile instructions: the tile count and ALU slots are
 * products of per-axis tile counts, the valid slots of a grid factor
 * into (sum of valid rows) x (sum of valid k) x (sum of valid cols) =
 * rows * k * cols per copy, and rows_used / rows_slots are maxima.
 *
 * @param grids the step's GEMMs
 * @param macs_per_cycle the array's MAC throughput (m * n^2 * w)
 * @param stream_bytes DRAM bytes that must be staged for this step
 */
TileWork makeTileWork(std::span<const GemmGrid> grids,
                      std::uint64_t macs_per_cycle,
                      ByteCount stream_bytes);

/**
 * Aggregate a list of MatMul instructions into a TileWork summary: the
 * definition the grid overload is tested against.
 *
 * @param insts the step's MatMul instructions
 * @param macs_per_cycle the array's MAC throughput (m * n^2 * w)
 * @param stream_bytes DRAM bytes that must be staged for this step
 */
TileWork makeTileWork(std::span<const Instruction> insts,
                      std::uint64_t macs_per_cycle,
                      ByteCount stream_bytes);

} // namespace isa
} // namespace equinox

#endif // EQUINOX_ISA_PROGRAM_HH
