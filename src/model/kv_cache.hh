/**
 * @file
 * Contiguous per-layer KV cache with rollback.
 *
 * Stores keys and values for every layer in one preallocated
 * contiguous K arena and one V arena (the HuggingFace-style layout),
 * layer l owning rows [l * max_seq, (l + 1) * max_seq). Pages are
 * committed on first write, so a cache sized for the full context
 * costs only the positions actually cached. truncate() supports
 * speculative-decoding rollback of rejected draft tokens.
 */

#ifndef SPECEE_MODEL_KV_CACHE_HH
#define SPECEE_MODEL_KV_CACHE_HH

#include <vector>

#include "model/kv_arena.hh"
#include "model/kv_store.hh"

namespace specee::model {

/** Contiguous KV cache: a (max_seq x hidden) K and V region per layer. */
class KvCache : public KvStore
{
  public:
    KvCache(int n_layers, int max_seq, int hidden);

    /** Append k/v for the next position of layer l. @return position */
    int append(int layer, tensor::CSpan k, tensor::CSpan v) override;

    /** Key of `pos` at `layer`. */
    tensor::CSpan key(int layer, int pos) const override;
    /** Value of `pos` at `layer`. */
    tensor::CSpan value(int layer, int pos) const override;

    /** Tokens currently cached for a layer. */
    int length(int layer) const override;

    /** Drop all positions >= new_len (speculative rollback). */
    void truncate(int new_len) override;

    /** Drop everything. */
    void clear() override;

    int maxSeq() const { return maxSeq_; }

  private:
    /** Arena row of (layer, pos). */
    size_t rowOf(int layer, int pos) const
    {
        return static_cast<size_t>(layer) * static_cast<size_t>(maxSeq_) +
               static_cast<size_t>(pos);
    }

    int nLayers_;
    int maxSeq_;
    int hidden_;
    KvArena k_;
    KvArena v_;
    std::vector<int> len_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_KV_CACHE_HH
