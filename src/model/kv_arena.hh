/**
 * @file
 * KvArena — zero-initialised KV row storage committed on first write.
 *
 * Both KV stores (the contiguous KvCache and the PagedKvCache pool)
 * keep keys and values in one KvArena each: a single block of
 * rows x width floats, with rows addressed by offset. The block is
 * its own private anonymous mapping, whose pages the OS commits only
 * when a row on them is first written, so a pool sized for the worst
 * case costs address space, not memory, until it is used. Rows read
 * as zero before their first write.
 *
 * The arena maps its pages itself rather than calling calloc: calloc
 * is lazy only while glibc serves the request with a fresh mmap.
 * Freeing one large block raises glibc's dynamic mmap threshold to
 * that block's size, after which same-sized requests come from a heap
 * arena and are zero-filled eagerly, committing every page — which a
 * thread that builds one model after another would hit every time.
 */

#ifndef SPECEE_MODEL_KV_ARENA_HH
#define SPECEE_MODEL_KV_ARENA_HH

#include <sys/mman.h>

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
          data_(map(rows * width * sizeof(float)),
                Unmap{rows * width * sizeof(float)})
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
    /** Fresh zero pages of `bytes`, or null when empty or unmappable. */
    static float *
    map(size_t bytes)
    {
        if (bytes == 0)
            return nullptr;
        void *p =
            ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        return p == MAP_FAILED ? nullptr : static_cast<float *>(p);
    }

    struct Unmap
    {
        size_t bytes;
        void operator()(float *p) const { ::munmap(p, bytes); }
    };

    size_t rows_;
    size_t width_;
    std::unique_ptr<float[], Unmap> data_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_KV_ARENA_HH
