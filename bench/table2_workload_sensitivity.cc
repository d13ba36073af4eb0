/**
 * @file
 * Reproduces Table 2: training and inference performance of
 * Equinox_500us across DNN models (LSTM, GRU, ResNet50). Training
 * throughput is measured at 60% inference load; inference throughput is
 * the saturation rate; latency is the single-batch service time.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/equinox.hh"

int
main(int argc, char **argv)
{
    using namespace equinox;
    setQuietLogging(true);
    bench::Harness harness(argc, argv, "table2_workload_sensitivity",
                           "Table 2",
                           "Training and inference performance per DNN "
                           "model (Equinox_500us, 60% load)");

    auto cfg = core::presetConfig(core::Preset::Us500,
                                  arith::Encoding::Hbfp8,
                                  harness.jobs());
    struct PaperRow
    {
        double train, inf, latency_ms;
    };
    const PaperRow paper[] = {{83.4, 319, 0.5}, {83.4, 319, 36.6},
                              {18, 67, 1.32}};

    stats::Table table({"Model", "Train T (TOp/s)", "Inf T (TOp/s)",
                        "Inf latency (ms)", "paper: Train", "Inf",
                        "Latency"});

    const std::vector<workload::DnnModel> models = {
        workload::DnnModel::lstm2048(), workload::DnnModel::gru2816(),
        workload::DnnModel::resnet50()};
    struct Row
    {
        core::LoadPointResult r;
        double sat_tops;
        double service_ms;
    };
    auto rows = parallelMap(harness.jobs(), models,
                            [&](const workload::DnnModel &model) {
        core::ExperimentOptions opts;
        opts.model = model;
        opts.train_model = model;
        bool long_service = model.kind == workload::DnnModel::Kind::Rnn &&
                            model.rnn.steps > 100;
        opts.warmup_requests = long_service ? 150 : 300;
        opts.measure_requests = long_service ? 1500 : 2500;
        opts.min_measure_s = long_service ? 0.0 : 0.05;
        opts.max_sim_s = 60.0;

        auto compiled = core::compileWorkload(cfg, opts);
        Row row;
        row.sat_tops =
            compiled.inference.program.saturationOpRate(cfg.frequency_hz) /
            1e12;
        row.service_ms = compiled.inference.service_time_s * 1e3;
        row.r = core::runAtLoad(cfg, 0.6, opts, compiled);
        return row;
    });

    for (std::size_t i = 0; i < models.size(); ++i) {
        table.addRow({models[i].name,
                      bench::num(rows[i].r.training_tops, 1),
                      bench::num(rows[i].sat_tops, 0),
                      bench::num(rows[i].service_ms, 2),
                      bench::num(paper[i].train, 1),
                      bench::num(paper[i].inf, 0),
                      bench::num(paper[i].latency_ms, 2)});
    }
    table.print(std::cout);

    std::printf(
        "\nShape check: the RNNs sustain similar training/inference "
        "throughput despite a\n~100x service-time gap; ResNet50 runs at "
        "a small fraction of peak because its\nlowered convolutions "
        "underfill the large MMU (the paper's TPU-class effect).\n");
    harness.finish();
    return 0;
}
