/**
 * @file
 * Matrix-multiply engines in the three arithmetic encodings the paper
 * evaluates: fp32 (reference), bfloat16 (state-of-the-art training
 * accelerators), and hbfp8 (Equinox's dense encoding).
 *
 * The engines compute C = A x B (+ C when accumulating) with the numeric
 * behaviour of the corresponding datapath; the training substrate in
 * src/nn plugs them into identical SGD loops to reproduce Figure 2.
 */

#ifndef EQUINOX_ARITH_GEMM_HH
#define EQUINOX_ARITH_GEMM_HH

#include <memory>
#include <string>

#include "arith/bfp.hh"
#include "arith/tensor.hh"

namespace equinox
{
namespace arith
{

/** Which datapath numeric behaviour a GEMM engine models. */
enum class Encoding
{
    Fp32,
    Bfloat16,
    Hbfp8,
};

/** Printable name ("fp32", "bfloat16", "hbfp8"). */
const char *encodingName(Encoding e);

/**
 * The instruction-set builds of the GEMM kernels. Both compile from one
 * source and compute the same bits; they differ only in speed.
 */
enum class KernelBuild
{
    Baseline,  //!< the compiler's default x86-64 ISA: runs on every host
    X86_64_V3, //!< x86-64-v3 (AVX2, FMA, BMI2)
};

/** Whether this host's CPU can run @p build. */
bool kernelBuildSupported(KernelBuild build);

/**
 * The build every engine's multiply() runs: X86_64_V3 when the CPU
 * supports it, else Baseline. Picked once, on the first call.
 */
KernelBuild activeKernelBuild();

/** Abstract matrix-multiply engine. */
class GemmEngine
{
  public:
    virtual ~GemmEngine() = default;

    /**
     * C = A x B, or C += A x B when @p accumulate.
     * Shapes: A is MxK, B is KxN, C is MxN.
     */
    virtual void multiply(const Matrix &a, const Matrix &b, Matrix &c,
                          bool accumulate = false) const = 0;

    virtual Encoding encoding() const = 0;
    std::string name() const { return encodingName(encoding()); }

  protected:
    /** Validate operand shapes; shared by implementations. */
    static void checkShapes(const Matrix &a, const Matrix &b,
                            const Matrix &c);
};

/** Exact binary32 GEMM with double accumulation (the fp32 reference). */
class Fp32Gemm : public GemmEngine
{
  public:
    void multiply(const Matrix &a, const Matrix &b, Matrix &c,
                  bool accumulate) const override;
    Encoding encoding() const override { return Encoding::Fp32; }

    /** multiply() on kernel build @p build, which the CPU must support. */
    void multiplyWith(KernelBuild build, const Matrix &a, const Matrix &b,
                      Matrix &c, bool accumulate) const;
};

/**
 * bfloat16 GEMM: operands rounded to bfloat16, products and accumulation
 * in binary32 (the standard fp32-accumulator datapath of TPU/Volta class
 * accelerators), output rounded back to bfloat16.
 */
class Bf16Gemm : public GemmEngine
{
  public:
    void multiply(const Matrix &a, const Matrix &b, Matrix &c,
                  bool accumulate) const override;
    Encoding encoding() const override { return Encoding::Bfloat16; }

    /** multiply() on kernel build @p build, which the CPU must support. */
    void multiplyWith(KernelBuild build, const Matrix &a, const Matrix &b,
                      Matrix &c, bool accumulate) const;
};

/**
 * hbfp8 GEMM: operands quantized into BFP blocks along the inner (K)
 * dimension, multiplied as integer dot products with narrow saturating
 * accumulators, partial block results combined in bfloat16 (the SIMD
 * unit's encoding), matching the Equinox datapath of section 3.2.
 */
class HbfpGemm : public GemmEngine
{
  public:
    /**
     * @param fmt mantissa/exponent/accumulator widths
     * @param block_len BFP block length along K (the tile side in the
     *        hardware); defaults to 256
     */
    explicit HbfpGemm(BfpFormat fmt = hbfp8Format(),
                      std::size_t block_len = 256);

    void multiply(const Matrix &a, const Matrix &b, Matrix &c,
                  bool accumulate) const override;
    Encoding encoding() const override { return Encoding::Hbfp8; }

    /** multiply() on kernel build @p build, which the CPU must support. */
    void multiplyWith(KernelBuild build, const Matrix &a, const Matrix &b,
                      Matrix &c, bool accumulate) const;

    const BfpFormat &format() const { return fmt; }

  private:
    BfpFormat fmt;
    std::size_t block_len_;
};

/** Build the engine for @p e with default parameters. */
std::unique_ptr<GemmEngine> makeGemmEngine(Encoding e);

} // namespace arith
} // namespace equinox

#endif // EQUINOX_ARITH_GEMM_HH
