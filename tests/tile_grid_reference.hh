/**
 * @file
 * Reference expansion of an isa::GemmGrid into its tile instructions,
 * one MatMul per (copy, row tile, k tile, column tile) in that order:
 * the per-instruction form that the closed-form makeTileWork must
 * reproduce. Shared by test_isa and test_workload.
 */

#ifndef EQUINOX_TESTS_TILE_GRID_REFERENCE_HH
#define EQUINOX_TESTS_TILE_GRID_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "isa/instruction.hh"
#include "isa/program.hh"

namespace equinox
{
namespace testref
{

/** Append the tile instructions of @p g to @p out. */
inline void
appendGridInstructions(const isa::GemmGrid &g,
                       std::vector<isa::Instruction> &out)
{
    for (std::uint64_t c = 0; c < g.copies; ++c) {
        for (std::uint64_t r = 0; r < g.rows; r += g.row_slots) {
            for (std::uint64_t kk = 0; kk < g.k; kk += g.k_slots) {
                for (std::uint64_t cc = 0; cc < g.cols; cc += g.col_slots) {
                    isa::Instruction inst;
                    inst.op = isa::Opcode::MatMul;
                    inst.rows_real = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(g.row_slots, g.rows - r));
                    inst.rows_slots = g.row_slots;
                    inst.k_valid = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(g.k_slots, g.k - kk));
                    inst.k_slots = g.k_slots;
                    inst.cols_valid = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(g.col_slots, g.cols - cc));
                    inst.cols_slots = g.col_slots;
                    out.push_back(inst);
                }
            }
        }
    }
}

/** The tile instructions of every grid in @p grids, in order. */
inline std::vector<isa::Instruction>
gridInstructions(std::span<const isa::GemmGrid> grids)
{
    std::vector<isa::Instruction> out;
    for (const auto &g : grids)
        appendGridInstructions(g, out);
    return out;
}

} // namespace testref
} // namespace equinox

#endif // EQUINOX_TESTS_TILE_GRID_REFERENCE_HH
