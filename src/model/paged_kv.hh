/**
 * @file
 * Paged KV cache — the PagedAttention (vllm) memory-manager substrate.
 *
 * Physical KV storage is divided into fixed-size blocks managed by a
 * free list; each (sequence, layer) maps logical positions to blocks
 * through a block table. This is the real data structure vllm uses to
 * eliminate KV fragmentation. The pool is multi-sequence: any number
 * of sequences share one physical pool, so fleet KV occupancy under
 * continuous batching is a real allocator quantity the serving layer
 * can budget and preempt against. SequenceKv is the single-sequence
 * KvStore view the attention math reads through.
 *
 * Blocks are refcounted so prefix caching can share one physical
 * block across sequences (SGLang-style): retainRows() hands an
 * external holder references on the blocks backing a row range,
 * adoptPrefix() maps an empty sequence layer onto an existing chain,
 * and append() forks a copy-on-write duplicate before writing into
 * any block another holder still references. A block returns to the
 * free list only when its last reference is released, so the
 * allocator can never hand out a block that is still referenced —
 * double-release and referenced-handout are fatal, not silent reuse.
 *
 * The physical pool is one K and one V KvArena of n_blocks x
 * kKvBlockSize rows; block b owns rows [b * kKvBlockSize, (b + 1) *
 * kKvBlockSize). The pool reserves every block virtually and commits
 * a page only on its first write, and the LIFO free list hands out
 * low block ids first, so a pool sized for the worst case costs the
 * blocks a run actually touches.
 */

#ifndef SPECEE_MODEL_PAGED_KV_HH
#define SPECEE_MODEL_PAGED_KV_HH

#include <memory>
#include <utility>
#include <vector>

#include "model/kv_arena.hh"
#include "model/kv_store.hh"
#include "tensor/matrix.hh"

namespace specee::model {

/** Positions per physical KV block. */
constexpr int kKvBlockSize = 16;

/**
 * Multi-sequence block-based KV pool: per-(sequence, layer) block
 * tables over one shared physical pool with allocation, rollback and
 * whole-sequence eviction. Sequence ids are recycled LIFO so
 * allocation is deterministic for a deterministic caller.
 */
class PagedKvCache
{
  public:
    /**
     * @param n_layers  decoder layers
     * @param n_blocks  physical blocks in the shared pool
     * @param hidden    per-position K/V width
     */
    PagedKvCache(int n_layers, int n_blocks, int hidden);

    /** Register a new sequence (empty block tables). @return seq id */
    int createSequence();

    /** Release every block of `seq` and recycle its id. */
    void dropSequence(int seq);

    /**
     * Append k/v for the next position of (seq, layer). If the
     * destination block is shared (refcount > 1), it is forked
     * copy-on-write first: the rows below the write position are
     * copied into a fresh block, this sequence's reference moves to
     * the copy, and other holders keep the original untouched.
     * @return pos
     */
    int append(int seq, int layer, tensor::CSpan k, tensor::CSpan v);

    tensor::CSpan key(int seq, int layer, int pos) const;
    tensor::CSpan value(int seq, int layer, int pos) const;

    int length(int seq, int layer) const;

    /** Roll `seq` back to new_len positions, freeing empty blocks. */
    void truncate(int seq, int new_len);

    /** Free all blocks of `seq` (the sequence id stays valid). */
    void clearSeq(int seq);

    /**
     * Swap-to-host preemption: copy every cached position of `seq`
     * into the host pool and free its device blocks. Per-layer
     * lengths (the logical block tables) are preserved, so swapIn()
     * restores the sequence bit-identically; physical block ids are
     * re-allocated on the way back, exactly like vllm's swap path.
     * The sequence cannot be appended to or read while swapped.
     */
    void swapOut(int seq);

    /**
     * Restore a swapped sequence from the host pool into freshly
     * allocated device blocks (the caller checks blocksFree() >=
     * seqHostBlocks() first; allocation failure is fatal) and release
     * its host buffers.
     */
    void swapIn(int seq);

    /** True while `seq` lives in the host pool. */
    bool isSwapped(int seq) const;

    /** Host-pool blocks needed to restore `seq` (0 if not swapped). */
    int seqHostBlocks(int seq) const;

    /** Host-pool blocks held across all swapped sequences. */
    int hostBlocksInUse() const { return hostBlocks_; }

    /**
     * Mark every block of `seq` (device- or host-side) as riding an
     * in-flight DMA: swap traffic on the host link or a prefill->
     * decode handoff on the peer link. While marked, the sequence is
     * frozen block-granularly — append, truncate, clear, swap and
     * drop are fatal, so a scheduler bug that touches KV mid-transfer
     * dies loudly instead of racing the modeled copy engine. The
     * functional rows are already in place (the simulation moves data
     * eagerly; the transfer engine only prices when they arrive), so
     * reads stay legal for isolation checks.
     */
    void beginTransfer(int seq);

    /** Transfer landed (or was settled at drop): unfreeze `seq`. */
    void endTransfer(int seq);

    /** True while `seq`'s blocks are riding a DMA channel. */
    bool inTransfer(int seq) const;

    /** Blocks of `seq` pinned by its in-flight transfer (0 if none). */
    int seqTransferBlocks(int seq) const;

    /** Blocks pinned by in-flight transfers across all sequences. */
    long transferBlocksInFlight() const;

    /** True if appending one position to (seq, layer) would fail. */
    bool wouldOverflow(int seq, int layer) const;

    /**
     * Hand an external holder (the prefix cache) one reference on
     * each physical block backing rows [row_begin, row_end) of
     * (seq, layer). The blocks stay pinned — they cannot return to
     * the free list — until releaseBlocks() drops the references.
     * @return the retained block ids in table order
     */
    std::vector<int> retainRows(int seq, int layer, int row_begin,
                                int row_end);

    /** Add one reference to an already-referenced block. */
    void retainBlock(int b);

    /**
     * Drop one reference per listed block (a block listed twice
     * loses two). Releasing an unreferenced block is fatal (double
     * free). @return blocks whose last reference dropped (freed)
     */
    int releaseBlocks(const std::vector<int> &blocks);

    /**
     * Map the empty (seq, layer) onto an existing chain: the layer's
     * block table becomes `blocks` (one reference retained on each)
     * and its length `rows`. Reads below `rows` see the shared
     * content; the first append into a shared block forks it
     * copy-on-write, so the donor chain is never mutated.
     */
    void adoptPrefix(int seq, int layer, const std::vector<int> &blocks,
                     int rows);

    /** References currently held on block `b` (0 = free). */
    int blockRefs(int b) const;

    /** Physical blocks held by `seq` across all layers. */
    int seqBlocks(int seq) const;

    /** Physical blocks currently allocated across all sequences. */
    int blocksInUse() const;

    /** Physical blocks still free. */
    int blocksFree() const { return static_cast<int>(freeList_.size()); }

    /** Pool capacity in blocks. */
    int nBlocks() const { return nBlocks_; }

    int nLayers() const { return nLayers_; }
    int hidden() const { return hidden_; }

    /** Live (created, not dropped) sequences. */
    int nSequences() const;

  private:
    struct LayerState
    {
        std::vector<int> blockTable; ///< logical block -> physical block
        int len = 0;                 ///< cached positions
        // Host-pool copy while the sequence is swapped out (len rows
        // each); empty on device.
        tensor::Matrix hostK;
        tensor::Matrix hostV;
    };

    struct SeqState
    {
        std::vector<LayerState> layers;
        bool live = false;
        bool swapped = false;     ///< KV lives in the host pool
        bool in_transfer = false; ///< blocks pinned by in-flight DMA
    };

    const SeqState &seqState(int seq) const;
    SeqState &seqState(int seq);

    /** Arena row of (seq, layer, pos). */
    size_t locate(int seq, int layer, int pos) const;

    /** Arena row `off` of physical block `block`. */
    static size_t
    rowOf(int block, int off)
    {
        return static_cast<size_t>(block) * kKvBlockSize +
               static_cast<size_t>(off);
    }

    int allocBlock();
    void releaseBlock(int b);

    int nLayers_;
    int nBlocks_;
    int hidden_;
    // Physical pool: kKvBlockSize rows per block for K and V.
    KvArena kPool_;
    KvArena vPool_;
    std::vector<int> freeList_;
    std::vector<int> refs_; ///< per-block reference counts
    std::vector<SeqState> seqs_;
    std::vector<int> freeSeqIds_; ///< recycled ids, LIFO
    int hostBlocks_ = 0; ///< block-equivalents in the host pool
};

/**
 * Single-sequence KvStore view onto a shared PagedKvCache pool.
 *
 * Owns its sequence: construction registers a fresh sequence in the
 * pool, destruction drops it (freeing all of its blocks). The pool is
 * held shared so a view may also be the pool's sole owner (the
 * single-sequence deployment the vllm engine preset uses).
 */
class SequenceKv : public KvStore
{
  public:
    explicit SequenceKv(std::shared_ptr<PagedKvCache> pool)
        : pool_(std::move(pool)), seq_(pool_->createSequence())
    {
    }

    ~SequenceKv() override { pool_->dropSequence(seq_); }

    SequenceKv(const SequenceKv &) = delete;
    SequenceKv &operator=(const SequenceKv &) = delete;

    int
    append(int layer, tensor::CSpan k, tensor::CSpan v) override
    {
        return pool_->append(seq_, layer, k, v);
    }

    tensor::CSpan
    key(int layer, int pos) const override
    {
        return pool_->key(seq_, layer, pos);
    }

    tensor::CSpan
    value(int layer, int pos) const override
    {
        return pool_->value(seq_, layer, pos);
    }

    int length(int layer) const override
    {
        return pool_->length(seq_, layer);
    }

    void truncate(int new_len) override { pool_->truncate(seq_, new_len); }

    void clear() override { pool_->clearSeq(seq_); }

    /** Physical blocks this sequence holds. */
    int blocks() const { return pool_->seqBlocks(seq_); }

    /** Move this sequence's KV to the host pool (device blocks free). */
    void swapOut() { pool_->swapOut(seq_); }

    /** Restore this sequence's KV from the host pool. */
    void swapIn() { pool_->swapIn(seq_); }

    /** True while the sequence lives in the host pool. */
    bool swapped() const { return pool_->isSwapped(seq_); }

    /** Device blocks a swapIn() must be able to allocate. */
    int hostBlocks() const { return pool_->seqHostBlocks(seq_); }

    /** Pin this sequence's blocks for an in-flight DMA. */
    void beginTransfer() { pool_->beginTransfer(seq_); }

    /** Unpin after the transfer lands (or settles at drop). */
    void endTransfer() { pool_->endTransfer(seq_); }

    /** True while the sequence's blocks ride a DMA channel. */
    bool inTransfer() const { return pool_->inTransfer(seq_); }

    /**
     * Map this (empty) sequence onto cached prefix chains:
     * `table[layer]` lists the shared blocks backing the first
     * `rows` positions of every layer (see PagedKvCache::adoptPrefix).
     */
    void
    adoptPrefix(const std::vector<std::vector<int>> &table, int rows)
    {
        for (int l = 0; l < pool_->nLayers(); ++l)
            pool_->adoptPrefix(seq_, l, table[static_cast<size_t>(l)],
                               rows);
    }

    int seqId() const { return seq_; }
    const PagedKvCache &pool() const { return *pool_; }

  private:
    std::shared_ptr<PagedKvCache> pool_;
    int seq_;
};

} // namespace specee::model

#endif // SPECEE_MODEL_PAGED_KV_HH
