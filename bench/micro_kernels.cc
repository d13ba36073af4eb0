/**
 * @file
 * Google-benchmark microbenchmarks for the library's hot kernels: the
 * arithmetic engines, a whole training step, block-floating-point
 * conversion, the event queue, the DRAM link model, and the workload
 * compiler. These quantify the simulator's own performance, not the
 * paper's results.
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"

#include "arith/bfp.hh"
#include "arith/gemm.hh"
#include "common/random.hh"
#include "dram/hbm.hh"
#include "nn/loss.hh"
#include "nn/mlp.hh"
#include "sim/event_queue.hh"
#include "stats/histogram.hh"
#include "workload/compiler.hh"
#include "workload/dnn_model.hh"

namespace
{

using namespace equinox;

arith::Matrix
randomMatrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Rng rng(seed);
    arith::Matrix m(r, c);
    m.randomize(rng, 1.0);
    return m;
}

/** Time C = A x B for an MxK by KxN product; reports MACs per second. */
void
timeGemm(benchmark::State &state, arith::Encoding enc, std::size_t m,
         std::size_t k, std::size_t n)
{
    auto a = randomMatrix(m, k, 1);
    auto b = randomMatrix(k, n, 2);
    arith::Matrix c(m, n);
    auto engine = arith::makeGemmEngine(enc);
    for (auto _ : state) {
        engine->multiply(a, b, c, false);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["MACs"] = benchmark::Counter(
        static_cast<double>(m * k * n),
        benchmark::Counter::kIsIterationInvariantRate);
}

/** Square n x n x n product. */
void
BM_GemmEngine(benchmark::State &state, arith::Encoding enc)
{
    auto n = static_cast<std::size_t>(state.range(0));
    timeGemm(state, enc, n, n, n);
}

/** The M x K x N products the Figure 2(a) training loop issues. */
void
BM_GemmShape(benchmark::State &state, arith::Encoding enc)
{
    timeGemm(state, enc, static_cast<std::size_t>(state.range(0)),
             static_cast<std::size_t>(state.range(1)),
             static_cast<std::size_t>(state.range(2)));
}

/**
 * Figure 2(a) at batch 64 with hidden layers {96, 48} over 24 features
 * and 8 classes: the two hidden-layer forwards, a weight gradient, an
 * input gradient, the 1024-sample validation forward, and the output
 * layer's forward and input gradient, whose 8-wide side leaves per-call
 * overhead (quantization, the epilogue) the largest share.
 */
void
trainingShapes(benchmark::internal::Benchmark *b)
{
    b->ArgNames({"m", "k", "n"});
    b->Args({64, 24, 96});
    b->Args({64, 96, 48});
    b->Args({96, 64, 48});
    b->Args({64, 48, 96});
    b->Args({1024, 24, 96});
    b->Args({64, 48, 8});
    b->Args({64, 8, 48});
}

/**
 * One SGD step of perfbench hbfp_train's 24-96-48-8 ReLU MLP at batch
 * 64: forward, softmax cross entropy, backward and the momentum update,
 * so the elementwise passes in src/nn count next to the GEMMs.
 */
void
BM_TrainStep(benchmark::State &state, arith::Encoding enc)
{
    constexpr std::size_t kBatch = 64;
    constexpr std::size_t kClasses = 8;
    auto engine = arith::makeGemmEngine(enc);
    Rng rng(11);
    nn::Mlp net({24, 96, 48, kClasses}, nn::Activation::Relu, *engine,
                rng);
    auto x = randomMatrix(kBatch, 24, 12);
    std::vector<std::uint32_t> labels(kBatch);
    for (auto &l : labels)
        l = static_cast<std::uint32_t>(rng.uniformInt(0, kClasses - 1));
    for (auto _ : state) {
        arith::Matrix logits = net.forward(x);
        auto loss = nn::softmaxCrossEntropy(logits, labels);
        net.backward(loss.logit_grad);
        net.step(0.01, 0.9);
        benchmark::DoNotOptimize(loss.mean_loss);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(kBatch));
}

void
BM_BfpQuantize(benchmark::State &state)
{
    auto len = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    std::vector<float> v(len);
    for (auto &x : v)
        x = static_cast<float>(rng.normal(0.0, 1.0));
    auto fmt = arith::hbfp8Format();
    for (auto _ : state) {
        auto blk = arith::BfpBlock::quantize(v, fmt);
        benchmark::DoNotOptimize(blk.exponent());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(len));
}

void
BM_BfpDot(benchmark::State &state)
{
    auto len = static_cast<std::size_t>(state.range(0));
    Rng rng(9);
    std::vector<float> v(len), w(len);
    for (std::size_t i = 0; i < len; ++i) {
        v[i] = static_cast<float>(rng.normal(0.0, 1.0));
        w[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    auto fmt = arith::hbfp8Format();
    auto a = arith::BfpBlock::quantize(v, fmt);
    auto b = arith::BfpBlock::quantize(w, fmt);
    for (auto _ : state)
        benchmark::DoNotOptimize(arith::BfpBlock::dot(a, b));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(len));
}

void
BM_EventQueue(benchmark::State &state)
{
    auto batch = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        Rng rng(3);
        for (std::size_t i = 0; i < batch; ++i)
            q.schedule(rng.uniformInt(0, 1u << 20), [] {});
        while (q.runOne()) {
        }
        benchmark::DoNotOptimize(q.dispatched());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(batch));
}

void
BM_EventQueueReserved(benchmark::State &state)
{
    // Same workload as BM_EventQueue but with the heap pre-sized, the
    // way Accelerator::run primes its queue; the delta is the cost of
    // the incremental vector growth the reserve() call removes.
    auto batch = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        q.reserve(batch);
        Rng rng(3);
        for (std::size_t i = 0; i < batch; ++i)
            q.schedule(rng.uniformInt(0, 1u << 20), [] {});
        while (q.runOne()) {
        }
        benchmark::DoNotOptimize(q.dispatched());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(batch));
}

void
BM_EventQueueSteady(benchmark::State &state)
{
    // The simulator's measured shape: a few events pending (2-15 on
    // perfbench chip_colocated), almost every tick holding exactly one,
    // each handler scheduling one follow-up with a 24-byte closure.
    // Eight actors on staggered ticks with period 8 give one event per
    // tick and 8 pending; one iteration is one dispatch.
    constexpr Tick kPending = 8;
    struct Actor
    {
        sim::EventQueue *q;
        std::uint64_t *acc;
        std::uint64_t a;

        void
        operator()() const
        {
            *acc += a;
            q->scheduleIn(kPending,
                          Actor{q, acc, a * 6364136223846793005ull + 1});
        }
    };
    static_assert(sizeof(Actor) == 24, "the blocks' closure size");
    sim::EventQueue q;
    q.reserve(kPending);
    std::uint64_t acc = 0;
    for (Tick t = 0; t < kPending; ++t)
        q.schedule(t, Actor{&q, &acc, t + 1});
    for (auto _ : state)
        benchmark::DoNotOptimize(q.runOne());
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void
BM_HbmTransfer(benchmark::State &state)
{
    dram::HbmModel hbm(610e6);
    Tick now = 0;
    for (auto _ : state) {
        now += 10;
        benchmark::DoNotOptimize(
            hbm.transfer(now, 256 * 1024, dram::Priority::Low));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void
BM_LatencyPercentile(benchmark::State &state)
{
    auto samples = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    stats::LatencyTracker t;
    for (std::size_t i = 0; i < samples; ++i)
        t.record(rng.exponential(1.0));
    for (auto _ : state) {
        t.record(rng.exponential(1.0));
        benchmark::DoNotOptimize(t.percentile(0.99));
    }
}

void
BM_CompileLstm(benchmark::State &state)
{
    sim::AcceleratorConfig cfg;
    cfg.n = 143;
    cfg.m = 4;
    cfg.w = 4;
    cfg.frequency_hz = 610e6;
    workload::Compiler compiler(cfg);
    auto model = workload::DnnModel::lstm2048();
    for (auto _ : state) {
        auto svc = compiler.compileInference(model);
        benchmark::DoNotOptimize(svc.program.steps.size());
    }
}

void
BM_CompileResnetTraining(benchmark::State &state)
{
    sim::AcceleratorConfig cfg;
    cfg.n = 143;
    cfg.m = 4;
    cfg.w = 4;
    cfg.frequency_hz = 610e6;
    workload::Compiler compiler(cfg);
    auto model = workload::DnnModel::resnet50();
    for (auto _ : state) {
        auto svc = compiler.compileTraining(model, 32);
        benchmark::DoNotOptimize(svc.iteration.steps.size());
    }
}

} // namespace

BENCHMARK_CAPTURE(BM_GemmEngine, fp32, arith::Encoding::Fp32)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_GemmEngine, bfloat16, arith::Encoding::Bfloat16)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_GemmEngine, hbfp8, arith::Encoding::Hbfp8)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_GemmShape, fp32, arith::Encoding::Fp32)
    ->Apply(trainingShapes);
BENCHMARK_CAPTURE(BM_GemmShape, bfloat16, arith::Encoding::Bfloat16)
    ->Apply(trainingShapes);
BENCHMARK_CAPTURE(BM_GemmShape, hbfp8, arith::Encoding::Hbfp8)
    ->Apply(trainingShapes);
BENCHMARK_CAPTURE(BM_TrainStep, fp32, arith::Encoding::Fp32);
BENCHMARK_CAPTURE(BM_TrainStep, bfloat16, arith::Encoding::Bfloat16);
BENCHMARK_CAPTURE(BM_TrainStep, hbfp8, arith::Encoding::Hbfp8);
BENCHMARK(BM_BfpQuantize)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_BfpDot)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_EventQueue)->Arg(1024)->Arg(65536);
BENCHMARK(BM_EventQueueReserved)->Arg(1024)->Arg(65536);
BENCHMARK(BM_EventQueueSteady);
BENCHMARK(BM_HbmTransfer);
BENCHMARK(BM_LatencyPercentile)->Arg(10000);
BENCHMARK(BM_CompileLstm);
BENCHMARK(BM_CompileResnetTraining);

int
main(int argc, char **argv)
{
    // google-benchmark consumes its own flags (--benchmark_*) first;
    // the harness then parses the shared bench flags and rejects
    // anything neither of them knows.
    benchmark::Initialize(&argc, argv);
    equinox::bench::Harness harness(argc, argv, "micro_kernels",
                                    "Microbenchmarks",
                                    "Hot-kernel timings (gemm engines, "
                                    "training step, BFP, event queue, "
                                    "compiler)");
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    harness.finish();
    return 0;
}
