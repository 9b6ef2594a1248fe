#include "model/kv_cache.hh"

#include <algorithm>

#include "util/logging.hh"

namespace specee::model {

KvCache::KvCache(int n_layers, int max_seq, int hidden)
    : nLayers_(n_layers),
      maxSeq_(max_seq),
      hidden_(hidden),
      k_(static_cast<size_t>(n_layers) * static_cast<size_t>(max_seq),
         static_cast<size_t>(hidden)),
      v_(static_cast<size_t>(n_layers) * static_cast<size_t>(max_seq),
         static_cast<size_t>(hidden)),
      len_(static_cast<size_t>(n_layers), 0)
{
}

int
KvCache::append(int layer, tensor::CSpan k, tensor::CSpan v)
{
    specee_assert(layer >= 0 && layer < nLayers_, "bad layer %d", layer);
    int &len = len_[static_cast<size_t>(layer)];
    specee_assert(len < maxSeq_, "kv cache overflow at layer %d", layer);
    specee_assert(k.size() == static_cast<size_t>(hidden_) &&
                  v.size() == static_cast<size_t>(hidden_),
                  "kv dim mismatch");
    std::copy(k.begin(), k.end(), k_.row(rowOf(layer, len)).begin());
    std::copy(v.begin(), v.end(), v_.row(rowOf(layer, len)).begin());
    return len++;
}

tensor::CSpan
KvCache::key(int layer, int pos) const
{
    specee_assert(pos < len_[static_cast<size_t>(layer)], "kv read past end");
    return k_.row(rowOf(layer, pos));
}

tensor::CSpan
KvCache::value(int layer, int pos) const
{
    specee_assert(pos < len_[static_cast<size_t>(layer)], "kv read past end");
    return v_.row(rowOf(layer, pos));
}

int
KvCache::length(int layer) const
{
    return len_[static_cast<size_t>(layer)];
}

void
KvCache::truncate(int new_len)
{
    for (auto &len : len_)
        len = std::min(len, new_len);
}

void
KvCache::clear()
{
    std::fill(len_.begin(), len_.end(), 0);
}

} // namespace specee::model
