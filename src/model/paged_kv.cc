#include "model/paged_kv.hh"

#include <algorithm>

#include "util/logging.hh"

namespace specee::model {

namespace {

/** Arena rows of a pool, after checking its shape. */
size_t
poolRows(int n_layers, int n_blocks, int hidden)
{
    specee_assert(n_layers > 0 && n_blocks > 0 && hidden > 0,
                  "bad paged KV pool shape");
    return static_cast<size_t>(n_blocks) * kKvBlockSize;
}

} // namespace

PagedKvCache::PagedKvCache(int n_layers, int n_blocks, int hidden)
    : nLayers_(n_layers),
      nBlocks_(n_blocks),
      hidden_(hidden),
      kPool_(poolRows(n_layers, n_blocks, hidden),
             static_cast<size_t>(hidden)),
      vPool_(poolRows(n_layers, n_blocks, hidden),
             static_cast<size_t>(hidden))
{
    refs_.assign(static_cast<size_t>(n_blocks), 0);
    freeList_.reserve(static_cast<size_t>(n_blocks));
    for (int b = 0; b < n_blocks; ++b)
        freeList_.push_back(n_blocks - 1 - b);
}

int
PagedKvCache::createSequence()
{
    int seq;
    if (!freeSeqIds_.empty()) {
        seq = freeSeqIds_.back();
        freeSeqIds_.pop_back();
    } else {
        seq = static_cast<int>(seqs_.size());
        seqs_.emplace_back();
    }
    SeqState &st = seqs_[static_cast<size_t>(seq)];
    st.layers.assign(static_cast<size_t>(nLayers_), LayerState{});
    st.live = true;
    return seq;
}

void
PagedKvCache::dropSequence(int seq)
{
    specee_assert(!seqState(seq).in_transfer,
                  "drop of sequence %d with an in-flight transfer "
                  "(settle it first)",
                  seq);
    clearSeq(seq);
    seqs_[static_cast<size_t>(seq)].live = false;
    freeSeqIds_.push_back(seq);
}

const PagedKvCache::SeqState &
PagedKvCache::seqState(int seq) const
{
    specee_assert(seq >= 0 && seq < static_cast<int>(seqs_.size()) &&
                      seqs_[static_cast<size_t>(seq)].live,
                  "bad paged KV sequence id %d", seq);
    return seqs_[static_cast<size_t>(seq)];
}

PagedKvCache::SeqState &
PagedKvCache::seqState(int seq)
{
    return const_cast<SeqState &>(
        static_cast<const PagedKvCache *>(this)->seqState(seq));
}

int
PagedKvCache::allocBlock()
{
    specee_assert(!freeList_.empty(), "paged KV pool exhausted");
    int b = freeList_.back();
    freeList_.pop_back();
    // A block on the free list with live references would mean the
    // allocator is about to hand out memory another holder still
    // reads — the exact corruption the refcounted tier must rule out.
    specee_assert(refs_[static_cast<size_t>(b)] == 0,
                  "allocator handed out referenced block %d (refs %d)",
                  b, refs_[static_cast<size_t>(b)]);
    refs_[static_cast<size_t>(b)] = 1;
    return b;
}

void
PagedKvCache::releaseBlock(int b)
{
    specee_assert(b >= 0 && b < nBlocks_, "bad block id %d", b);
    specee_assert(refs_[static_cast<size_t>(b)] > 0,
                  "double free of paged KV block %d", b);
    if (--refs_[static_cast<size_t>(b)] == 0)
        freeList_.push_back(b);
}

void
PagedKvCache::retainBlock(int b)
{
    specee_assert(b >= 0 && b < nBlocks_, "bad block id %d", b);
    specee_assert(refs_[static_cast<size_t>(b)] > 0,
                  "retain of a free paged KV block %d", b);
    ++refs_[static_cast<size_t>(b)];
}

int
PagedKvCache::blockRefs(int b) const
{
    specee_assert(b >= 0 && b < nBlocks_, "bad block id %d", b);
    return refs_[static_cast<size_t>(b)];
}

std::vector<int>
PagedKvCache::retainRows(int seq, int layer, int row_begin, int row_end)
{
    specee_assert(layer >= 0 && layer < nLayers_, "bad layer");
    const SeqState &ss = seqState(seq);
    specee_assert(!ss.swapped, "retainRows on swapped-out sequence %d",
                  seq);
    const LayerState &st = ss.layers[static_cast<size_t>(layer)];
    specee_assert(row_begin >= 0 && row_begin <= row_end &&
                      row_end <= st.len,
                  "retainRows range [%d, %d) outside 0..%d", row_begin,
                  row_end, st.len);
    std::vector<int> out;
    if (row_begin >= row_end)
        return out;
    for (int blk = row_begin / kKvBlockSize;
         blk <= (row_end - 1) / kKvBlockSize; ++blk) {
        const int b = st.blockTable[static_cast<size_t>(blk)];
        retainBlock(b);
        out.push_back(b);
    }
    return out;
}

int
PagedKvCache::releaseBlocks(const std::vector<int> &blocks)
{
    int freed = 0;
    for (int b : blocks) {
        releaseBlock(b);
        if (refs_[static_cast<size_t>(b)] == 0)
            ++freed;
    }
    return freed;
}

void
PagedKvCache::adoptPrefix(int seq, int layer,
                          const std::vector<int> &blocks, int rows)
{
    specee_assert(layer >= 0 && layer < nLayers_, "bad layer");
    SeqState &ss = seqState(seq);
    specee_assert(!ss.swapped, "adoptPrefix on swapped-out sequence %d",
                  seq);
    LayerState &st = ss.layers[static_cast<size_t>(layer)];
    specee_assert(st.len == 0 && st.blockTable.empty(),
                  "adoptPrefix into non-empty (seq %d, layer %d)", seq,
                  layer);
    specee_assert(rows > 0 &&
                      static_cast<int>(blocks.size()) ==
                          (rows + kKvBlockSize - 1) / kKvBlockSize,
                  "adoptPrefix chain of %zu blocks does not cover %d "
                  "rows",
                  blocks.size(), rows);
    for (int b : blocks) {
        retainBlock(b);
        st.blockTable.push_back(b);
    }
    st.len = rows;
}

bool
PagedKvCache::wouldOverflow(int seq, int layer) const
{
    const LayerState &st =
        seqState(seq).layers[static_cast<size_t>(layer)];
    if (!freeList_.empty())
        return false;
    if (st.len % kKvBlockSize == 0)
        return true;
    // A shared tail block needs a copy-on-write fork to accept the
    // next position, which also requires a free block.
    const int tail =
        st.blockTable[static_cast<size_t>(st.len / kKvBlockSize)];
    return refs_[static_cast<size_t>(tail)] > 1;
}

int
PagedKvCache::append(int seq, int layer, tensor::CSpan k, tensor::CSpan v)
{
    specee_assert(layer >= 0 && layer < nLayers_, "bad layer");
    specee_assert(k.size() == static_cast<size_t>(hidden_) &&
                      v.size() == static_cast<size_t>(hidden_),
                  "paged kv dim mismatch");
    specee_assert(!seqState(seq).swapped,
                  "append to swapped-out sequence %d", seq);
    specee_assert(!seqState(seq).in_transfer,
                  "append to sequence %d with an in-flight transfer",
                  seq);
    LayerState &st = seqState(seq).layers[static_cast<size_t>(layer)];
    if (st.len % kKvBlockSize == 0)
        st.blockTable.push_back(allocBlock());
    const int pos = st.len++;
    const size_t blk = static_cast<size_t>(pos / kKvBlockSize);
    int block = st.blockTable[blk];
    const int off = pos % kKvBlockSize;
    if (refs_[static_cast<size_t>(block)] > 1) {
        // Copy-on-write fork: another sequence (or the prefix cache)
        // still reads this block, so the write lands in a private
        // copy seeded with the rows below the write position — the
        // shared prefix content both holders agree on.
        const int fork = allocBlock();
        for (int r = 0; r < off; ++r) {
            const auto src_k = kPool_.row(rowOf(block, r));
            const auto src_v = vPool_.row(rowOf(block, r));
            std::copy(src_k.begin(), src_k.end(),
                      kPool_.row(rowOf(fork, r)).begin());
            std::copy(src_v.begin(), src_v.end(),
                      vPool_.row(rowOf(fork, r)).begin());
        }
        releaseBlock(block);
        st.blockTable[blk] = fork;
        block = fork;
    }
    std::copy(k.begin(), k.end(), kPool_.row(rowOf(block, off)).begin());
    std::copy(v.begin(), v.end(), vPool_.row(rowOf(block, off)).begin());
    return pos;
}

size_t
PagedKvCache::locate(int seq, int layer, int pos) const
{
    specee_assert(!seqState(seq).swapped,
                  "read from swapped-out sequence %d", seq);
    const LayerState &st =
        seqState(seq).layers[static_cast<size_t>(layer)];
    specee_assert(pos >= 0 && pos < st.len, "paged kv read past end");
    return rowOf(st.blockTable[static_cast<size_t>(pos / kKvBlockSize)],
                 pos % kKvBlockSize);
}

tensor::CSpan
PagedKvCache::key(int seq, int layer, int pos) const
{
    return kPool_.row(locate(seq, layer, pos));
}

tensor::CSpan
PagedKvCache::value(int seq, int layer, int pos) const
{
    return vPool_.row(locate(seq, layer, pos));
}

int
PagedKvCache::length(int seq, int layer) const
{
    return seqState(seq).layers[static_cast<size_t>(layer)].len;
}

void
PagedKvCache::swapOut(int seq)
{
    SeqState &ss = seqState(seq);
    specee_assert(!ss.swapped, "double swap-out of sequence %d", seq);
    specee_assert(!ss.in_transfer,
                  "swap-out of sequence %d with an in-flight transfer",
                  seq);
    for (auto &st : ss.layers) {
        st.hostK.resize(static_cast<size_t>(st.len),
                        static_cast<size_t>(hidden_));
        st.hostV.resize(static_cast<size_t>(st.len),
                        static_cast<size_t>(hidden_));
        for (int pos = 0; pos < st.len; ++pos) {
            const size_t row = rowOf(
                st.blockTable[static_cast<size_t>(pos / kKvBlockSize)],
                pos % kKvBlockSize);
            const auto k = kPool_.row(row);
            const auto v = vPool_.row(row);
            std::copy(k.begin(), k.end(),
                      st.hostK.row(static_cast<size_t>(pos)).begin());
            std::copy(v.begin(), v.end(),
                      st.hostV.row(static_cast<size_t>(pos)).begin());
        }
        hostBlocks_ += static_cast<int>(st.blockTable.size());
        // Shared blocks (cached prefix) just drop this sequence's
        // reference — the cache keeps them device-resident; the host
        // copy above already captured the rows, so swap-in restores
        // into private blocks (prefix sharing ends at swap-out).
        for (int b : st.blockTable)
            releaseBlock(b);
        st.blockTable.clear();
    }
    ss.swapped = true;
}

void
PagedKvCache::swapIn(int seq)
{
    SeqState &ss = seqState(seq);
    specee_assert(ss.swapped, "swap-in of a device-resident sequence %d",
                  seq);
    specee_assert(!ss.in_transfer,
                  "swap-in of sequence %d with an in-flight transfer",
                  seq);
    for (auto &st : ss.layers) {
        for (int pos = 0; pos < st.len; ++pos) {
            if (pos % kKvBlockSize == 0)
                st.blockTable.push_back(allocBlock());
            const size_t row = rowOf(
                st.blockTable[static_cast<size_t>(pos / kKvBlockSize)],
                pos % kKvBlockSize);
            const auto k = st.hostK.row(static_cast<size_t>(pos));
            const auto v = st.hostV.row(static_cast<size_t>(pos));
            std::copy(k.begin(), k.end(), kPool_.row(row).begin());
            std::copy(v.begin(), v.end(), vPool_.row(row).begin());
        }
        hostBlocks_ -= static_cast<int>(st.blockTable.size());
        st.hostK = tensor::Matrix{};
        st.hostV = tensor::Matrix{};
    }
    ss.swapped = false;
}

bool
PagedKvCache::isSwapped(int seq) const
{
    return seqState(seq).swapped;
}

int
PagedKvCache::seqHostBlocks(int seq) const
{
    const SeqState &ss = seqState(seq);
    if (!ss.swapped)
        return 0;
    int n = 0;
    for (const auto &st : ss.layers)
        n += (st.len + kKvBlockSize - 1) / kKvBlockSize;
    return n;
}

void
PagedKvCache::truncate(int seq, int new_len)
{
    SeqState &ss = seqState(seq);
    specee_assert(!ss.in_transfer,
                  "truncate of sequence %d with an in-flight transfer",
                  seq);
    if (ss.swapped) {
        // The only legal truncation of a swapped sequence is a full
        // clear (deadline drop / cancellation while in the host
        // pool): release the host buffers, no device blocks to free.
        specee_assert(new_len == 0,
                      "partial truncate of swapped-out sequence %d", seq);
        for (auto &st : ss.layers) {
            hostBlocks_ -= (st.len + kKvBlockSize - 1) / kKvBlockSize;
            st.hostK = tensor::Matrix{};
            st.hostV = tensor::Matrix{};
            st.len = 0;
        }
        ss.swapped = false;
        return;
    }
    for (auto &st : seqState(seq).layers) {
        if (st.len <= new_len)
            continue;
        const int keep_blocks =
            new_len == 0 ? 0 : (new_len + kKvBlockSize - 1) / kKvBlockSize;
        while (static_cast<int>(st.blockTable.size()) > keep_blocks) {
            releaseBlock(st.blockTable.back());
            st.blockTable.pop_back();
        }
        st.len = new_len;
    }
}

void
PagedKvCache::clearSeq(int seq)
{
    truncate(seq, 0);
}

int
PagedKvCache::seqBlocks(int seq) const
{
    int n = 0;
    for (const auto &st : seqState(seq).layers)
        n += static_cast<int>(st.blockTable.size());
    return n;
}

void
PagedKvCache::beginTransfer(int seq)
{
    SeqState &ss = seqState(seq);
    specee_assert(!ss.in_transfer,
                  "sequence %d already has an in-flight transfer", seq);
    ss.in_transfer = true;
}

void
PagedKvCache::endTransfer(int seq)
{
    SeqState &ss = seqState(seq);
    specee_assert(ss.in_transfer,
                  "settling a transfer sequence %d never started", seq);
    ss.in_transfer = false;
}

bool
PagedKvCache::inTransfer(int seq) const
{
    return seqState(seq).in_transfer;
}

int
PagedKvCache::seqTransferBlocks(int seq) const
{
    // Whichever side of the link the blocks sit on (device blocks of
    // a handoff or a landing swap-in, host-pool block-equivalents of
    // a departing swap-out), the pinned set is the sequence's whole
    // footprint.
    if (!inTransfer(seq))
        return 0;
    return seqBlocks(seq) + seqHostBlocks(seq);
}

long
PagedKvCache::transferBlocksInFlight() const
{
    long n = 0;
    for (size_t s = 0; s < seqs_.size(); ++s) {
        if (seqs_[s].live && seqs_[s].in_transfer)
            n += seqTransferBlocks(static_cast<int>(s));
    }
    return n;
}

int
PagedKvCache::blocksInUse() const
{
    return nBlocks_ - static_cast<int>(freeList_.size());
}

int
PagedKvCache::nSequences() const
{
    int n = 0;
    for (const auto &st : seqs_)
        n += st.live ? 1 : 0;
    return n;
}

} // namespace specee::model
