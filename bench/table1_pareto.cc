/**
 * @file
 * Reproduces Table 1: Pareto-optimal designs under various latency
 * constraints, for both the bfloat16 and hbfp8 encodings, next to the
 * paper's published values.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/equinox.hh"

namespace
{

using namespace equinox;

struct PaperRow
{
    const char *constraint;
    core::Preset preset;
    // paper values: n, freq MHz, service us, throughput TOp/s
    double hbfp8[4];
    double bf16[4];
    bool bf16_merged_with_min;
};

const PaperRow kRows[] = {
    {"Min. latency", core::Preset::Min,
     {1, 532, 15.6, 60.2}, {1, 532, 37.3, 23.9}, false},
    {"Latency < 50us", core::Preset::Us50,
     {16, 532, 49.2, 333}, {1, 532, 37.3, 23.9}, true},
    {"Latency < 500us", core::Preset::Us500,
     {143, 610, 381, 390}, {29, 610, 386, 63.3}, false},
    {"No constraint", core::Preset::None,
     {191, 610, 509, 400}, {39, 610, 510, 66.7}, false},
};

void
printSide(bench::Harness &harness, arith::Encoding enc, const char *title,
          int paper_idx)
{
    const std::size_t jobs = harness.jobs();
    bench::timedSweep(harness, enc);
    bench::section(title);
    stats::Table table({"Latency constraint", "n", "m", "w",
                        "Freq (MHz)", "Service (us)", "T (TOp/s)",
                        "paper: n", "Freq", "Service", "T"});
    for (const auto &row : kRows) {
        auto d = core::presetDesign(row.preset, enc, jobs);
        const double *paper = paper_idx == 0 ? row.hbfp8 : row.bf16;
        table.addRow({row.constraint, std::to_string(d.n),
                      std::to_string(d.m), std::to_string(d.w),
                      bench::num(d.frequency_hz / 1e6, 0),
                      bench::num(d.service_time_s * 1e6, 1),
                      bench::num(d.throughput_ops / 1e12, 1),
                      bench::num(paper[0], 0), bench::num(paper[1], 0),
                      bench::num(paper[2], 1), bench::num(paper[3], 1)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace equinox;
    setQuietLogging(true);
    bench::Harness harness(argc, argv, "table1_pareto", "Table 1",
                           "Pareto-optimal designs under latency "
                           "constraints");
    printSide(harness, arith::Encoding::Hbfp8, "hbfp8", 0);
    printSide(harness, arith::Encoding::Bfloat16, "bfloat16", 1);

    auto mn = core::presetDesign(core::Preset::Min,
                                 arith::Encoding::Hbfp8);
    auto c50 = core::presetDesign(core::Preset::Us50,
                                  arith::Encoding::Hbfp8);
    auto none = core::presetDesign(core::Preset::None,
                                   arith::Encoding::Hbfp8);
    bench::section("headline ratios vs latency-optimal (paper: 5.53x "
                   "at 50us, 6.67x at 500us/none)");
    std::printf("  50us design: %.2fx    unconstrained: %.2fx\n",
                c50.throughput_ops / mn.throughput_ops,
                none.throughput_ops / mn.throughput_ops);
    harness.finish();
    return 0;
}
