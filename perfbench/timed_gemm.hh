/**
 * @file
 * A forwarding GemmEngine that times every multiply() of the engine it
 * wraps. The traced hbfp_train pass hands it to nn::trainClassifier in
 * place of the real engine; it changes no arithmetic (test_perfbench
 * checks the TrainHistory is bit-identical with and without it).
 */

#ifndef PERFBENCH_TIMED_GEMM_HH
#define PERFBENCH_TIMED_GEMM_HH

#include "arith/gemm.hh"
#include "tracer.hh"

namespace perfbench
{

/** Span layer of @p e's GEMM calls ("arith.gemm.<encoding>"). */
inline const char *
gemmLayer(equinox::arith::Encoding e)
{
    switch (e) {
      case equinox::arith::Encoding::Fp32:
        return "arith.gemm.fp32";
      case equinox::arith::Encoding::Bfloat16:
        return "arith.gemm.bfloat16";
      case equinox::arith::Encoding::Hbfp8:
        return "arith.gemm.hbfp8";
    }
    return "arith.gemm";
}

class TimedGemm : public equinox::arith::GemmEngine
{
  public:
    /** Neither @p inner nor @p tracer is owned; both must outlive this. */
    TimedGemm(const equinox::arith::GemmEngine &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer), layer_(gemmLayer(inner.encoding()))
    {
    }

    void
    multiply(const equinox::arith::Matrix &a,
             const equinox::arith::Matrix &b, equinox::arith::Matrix &c,
             bool accumulate) const override
    {
        {
            ScopedSpan span(&tracer_, layer_);
            inner_.multiply(a, b, c, accumulate);
        }
        tracer_.count(std::string(layer_) + ".macs",
                      static_cast<double>(a.rows() * a.cols() * b.cols()));
    }

    equinox::arith::Encoding
    encoding() const override
    {
        return inner_.encoding();
    }

  private:
    const equinox::arith::GemmEngine &inner_;
    Tracer &tracer_;
    const char *layer_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_GEMM_HH
