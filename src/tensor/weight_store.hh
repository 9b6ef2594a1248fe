/**
 * @file
 * WeightStore — the pluggable weight-matrix backend.
 *
 * One weight matrix can be held dense fp32, row-quantized int8, or
 * group-quantized int4; every consumer in the model stack (attention
 * and FFN projections, the tied LM head, the sparse-FFN row/column
 * access paths) talks to this interface instead of a concrete
 * storage class, so a whole model loads under any backend from one
 * EngineConfig knob. The SpecEE lever (fewer layers read per token)
 * and the quantization lever (fewer bytes per layer read) compound:
 * hw::CostModel prices the compressed weight traffic, and the serving
 * batch scheduler amortizes the compressed shared read.
 *
 * Matrix (fp32), Q8Matrix and Q4Matrix provide the concrete kernels
 * (gemv, gemvRows, rowDot, byteSize); the adapters here box them
 * behind the virtual interface. Inner loops run on the SIMD-dispatch
 * kernels of tensor/simd.hh.
 */

#ifndef SPECEE_TENSOR_WEIGHT_STORE_HH
#define SPECEE_TENSOR_WEIGHT_STORE_HH

#include <memory>
#include <string>
#include <vector>

#include "tensor/matrix.hh"
#include "tensor/quant.hh"

namespace specee::tensor {

/** Storage backend for one weight matrix (and for a whole model). */
enum class WeightBackend : int {
    Fp32 = 0, ///< dense float (modeled as fp16 on device)
    Q8,       ///< row-quantized int8, per-row fp32 scale
    Q4,       ///< group-quantized int4 (AWQ-style, group 32)
};

/** Canonical name ("fp32" / "q8" / "q4"). */
const char *weightBackendName(WeightBackend b);

/** Parse a backend name; fatal on an unknown name. */
WeightBackend parseWeightBackend(const std::string &name);

/**
 * Bits per weight the deployment-scale cost/memory models charge for
 * this backend: fp16 for dense (GPU serving ships fp16, the fp32 sim
 * storage is a functional detail), 8 for Q8 (per-row scales amortize
 * to nothing at true dims), 4.5 for Q4 (4-bit payload + per-group
 * scale/min).
 */
double modeledBitsPerWeight(WeightBackend b);

/** Weight-traffic compression vs fp16: modeledBits(b) / 16. */
double weightCompression(WeightBackend b);

/**
 * Backend-agnostic weight matrix: the uniform GEMV/row-access
 * interface every model component programs against.
 */
class WeightStore
{
  public:
    virtual ~WeightStore() = default;

    virtual WeightBackend backend() const = 0;
    virtual size_t rows() const = 0;
    virtual size_t cols() const = 0;

    /** Actual packed storage footprint in bytes (functional). */
    virtual size_t byteSize() const = 0;

    /** y = W x (dequantize-on-the-fly for compressed backends). */
    virtual void gemv(CSpan x, Span y) const = 0;

    /**
     * gemv over a batch: xs packs the batch's vectors row-major
     * (cols() floats each) and ys receives W x for each of them in
     * turn (rows() floats each), every output bit-identical to gemv().
     * This default runs gemv() per vector; the fp32 store streams its
     * matrix once for the whole batch (simd::gemmF32).
     */
    virtual void gemvBatch(CSpan xs, Span ys) const;

    /** y[i] = W.row(rows[i]) . x — the speculative LM head slice. */
    virtual void gemvRows(const std::vector<int> &rows, CSpan x,
                          Span y) const = 0;

    /** Dot of row r with x (sparse row access). */
    virtual float rowDot(size_t r, CSpan x) const = 0;

    /** Dequantized single element. */
    virtual float at(size_t r, size_t c) const = 0;

    /** Dequantize row r into out (out.size() == cols()). */
    virtual void copyRow(size_t r, Span out) const;

    /** out += scale * column c (sparse down-projection accumulate). */
    virtual void addScaledColumn(size_t c, float scale, Span out) const;
};

/**
 * Quantize (or move) a dense matrix into a store of the requested
 * backend. The dense source is dropped for compressed backends.
 */
std::unique_ptr<WeightStore> makeWeightStore(Matrix dense,
                                             WeightBackend backend);

/** Dense fp32 store (zero-copy over Matrix; exact). */
class Fp32Store final : public WeightStore
{
  public:
    explicit Fp32Store(Matrix m) : m_(std::move(m)) {}

    WeightBackend backend() const override { return WeightBackend::Fp32; }
    size_t rows() const override { return m_.rows(); }
    size_t cols() const override { return m_.cols(); }
    size_t byteSize() const override { return m_.byteSize(); }
    void gemv(CSpan x, Span y) const override;
    void gemvBatch(CSpan xs, Span ys) const override;
    void gemvRows(const std::vector<int> &rows, CSpan x,
                  Span y) const override;
    float rowDot(size_t r, CSpan x) const override;
    float at(size_t r, size_t c) const override { return m_.at(r, c); }
    void copyRow(size_t r, Span out) const override;
    void addScaledColumn(size_t c, float scale, Span out) const override;

    const Matrix &matrix() const { return m_; }

  private:
    Matrix m_;
};

/** Row-quantized int8 store. */
class Q8Store final : public WeightStore
{
  public:
    explicit Q8Store(const Matrix &m) : q_(Q8Matrix::quantize(m)) {}

    WeightBackend backend() const override { return WeightBackend::Q8; }
    size_t rows() const override { return q_.rows(); }
    size_t cols() const override { return q_.cols(); }
    size_t byteSize() const override { return q_.byteSize(); }
    void gemv(CSpan x, Span y) const override { q_.gemv(x, y); }
    void gemvRows(const std::vector<int> &rows, CSpan x,
                  Span y) const override
    {
        q_.gemvRows(rows, x, y);
    }
    float rowDot(size_t r, CSpan x) const override
    {
        return q_.rowDot(r, x);
    }
    float at(size_t r, size_t c) const override { return q_.at(r, c); }

  private:
    Q8Matrix q_;
};

/** Group-quantized int4 store. */
class Q4Store final : public WeightStore
{
  public:
    explicit Q4Store(const Matrix &m) : q_(Q4Matrix::quantize(m)) {}

    WeightBackend backend() const override { return WeightBackend::Q4; }
    size_t rows() const override { return q_.rows(); }
    size_t cols() const override { return q_.cols(); }
    size_t byteSize() const override { return q_.byteSize(); }
    void gemv(CSpan x, Span y) const override { q_.gemv(x, y); }
    void gemvRows(const std::vector<int> &rows, CSpan x,
                  Span y) const override
    {
        q_.gemvRows(rows, x, y);
    }
    float rowDot(size_t r, CSpan x) const override
    {
        return q_.rowDot(r, x);
    }
    float at(size_t r, size_t c) const override { return q_.at(r, c); }

  private:
    Q4Matrix q_;
};

} // namespace specee::tensor

#endif // SPECEE_TENSOR_WEIGHT_STORE_HH
