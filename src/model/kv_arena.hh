/**
 * @file
 * KvArena — zero-initialised KV row storage committed on first write.
 *
 * Both KV stores (the contiguous KvCache and the PagedKvCache pool)
 * keep keys and values in one KvArena each: a single calloc'd block
 * of rows x width floats, with rows addressed by offset. A large
 * calloc is served by fresh anonymous mmap pages, which the OS
 * commits only when a row on them is first written, so a pool sized
 * for the worst case costs address space, not memory, until it is
 * used. Rows read as zero before their first write.
 */

#ifndef SPECEE_MODEL_KV_ARENA_HH
#define SPECEE_MODEL_KV_ARENA_HH

#include <cstdlib>
#include <memory>

#include "tensor/matrix.hh"
#include "util/logging.hh"

namespace specee::model {

/** Fixed-shape row arena (rows x width fp32, zero until written). */
class KvArena
{
  public:
    KvArena(size_t rows, size_t width)
        : rows_(rows),
          width_(width),
          data_(static_cast<float *>(std::calloc(rows * width,
                                                 sizeof(float))))
    {
        specee_assert(data_ != nullptr || rows * width == 0,
                      "KV arena of %zu x %zu floats: out of memory",
                      rows, width);
    }

    size_t rows() const { return rows_; }

    tensor::Span
    row(size_t r)
    {
        return {data_.get() + r * width_, width_};
    }

    tensor::CSpan
    row(size_t r) const
    {
        return {data_.get() + r * width_, width_};
    }

  private:
    struct Free
    {
        void operator()(float *p) const { std::free(p); }
    };

    size_t rows_;
    size_t width_;
    std::unique_ptr<float[], Free> data_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_KV_ARENA_HH
