// RunStore: a per-PE collection of spilled runs, stored in fixed-size
// blocks of a BlockFile.
//
// A *run* is one contiguous sequence of elements — in RLM-sort's spill path
// each delivered piece (already sorted by the sender) is one run; in
// external_sort each budget-sized locally sorted chunk is one run; in
// AMS-sort's streaming classification each bucket's scattered elements are
// one run. Runs are numbered in creation order, which for the delivery sink
// is exactly the deterministic receive order of coll::sparse_exchange — the
// same order the in-memory FlatParts parts appear in, so the external merge
// sees the identical run sequence and tie-breaks identically.
//
// Each run records the file slot of every one of its logical blocks
// (per-block lengths are derived from the run length: all blocks full
// except possibly the last). Slot lists — rather than a (first_slot, count)
// pair — are what make an engine-wide *shared* BlockFile possible: with all
// PEs spilling concurrently into one file, one run's block appends
// interleave with every other store's, so its slots are not consecutive.
// The store itself stays single-owner (one PE fiber); only the BlockFile
// underneath is shared and thread-safe.
//
// A run may be appended in one call (append_run) or streamed block by block
// through a RunWriter — the scatter half of AMS streaming classification
// writes k bucket runs concurrently that way, holding k block buffers
// instead of the full partition. Streaming appends must keep blocks full
// (only a run's last block may be short), which RunWriter guarantees.
//
// Read-side block buffers are recycled through a free list (the
// net::BufferPool pattern, single-owner so lock-free here): a RunCursor or
// RunWriter acquires one block buffer for its lifetime and releases it on
// destruction, so a k-way external merge holds exactly k block buffers
// regardless of run lengths. Pooled buffers always have capacity for a full
// block of this store's element type — release_buffer drops smaller ones —
// so the warm path never regrows, even for 100-byte records.
//
// All I/O is synchronous and positional, on the calling PE's own thread
// (docs/EM.md, "Spill I/O is synchronous"): an append has written its
// bytes when it returns, so every read sees complete data.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "em/block_file.hpp"
#include "em/memory_budget.hpp"

namespace pmps::em {

template <Sortable T>
class RunStore {
 public:
  explicit RunStore(const MemoryBudget& budget) : budget_(budget) {
    if (budget.shared_file != nullptr) {
      file_ = budget.shared_file;
    } else {
      owned_file_ = std::make_unique<BlockFile>(budget.block_bytes);
      file_ = owned_file_.get();
    }
    elems_per_block_ = std::max<std::int64_t>(
        1, file_->block_bytes() / static_cast<std::int64_t>(sizeof(T)));
  }

  std::int64_t elems_per_block() const { return elems_per_block_; }
  SpillStats* stats() const { return budget_.stats; }
  const MemoryBudget& budget() const { return budget_; }
  int runs() const { return static_cast<int>(runs_.size()); }

  std::int64_t run_size(int run) const {
    PMPS_ASSERT(run >= 0 && run < runs());
    return runs_[static_cast<std::size_t>(run)].n;
  }

  /// Total elements across all runs.
  std::int64_t total() const { return total_; }

  /// Starts a new empty run and returns its index. Blocks are added with
  /// append_block_to_run — several open runs may grow interleaved (the
  /// AMS scatter pass streams into one run per bucket).
  int begin_run() {
    runs_.push_back(RunMeta{});
    if (stats() != nullptr) stats()->count_run();
    return runs() - 1;
  }

  /// Appends one block of elements to run `run`. Every block but a run's
  /// last must be full (elems_per_block elements) so per-block lengths stay
  /// derivable from the run length — hence the precondition that the run's
  /// current size is block-aligned.
  void append_block_to_run(int run, std::span<const T> elems) {
    PMPS_ASSERT(run >= 0 && run < runs());
    const auto len = static_cast<std::int64_t>(elems.size());
    PMPS_ASSERT(len > 0 && len <= elems_per_block_);
    RunMeta& m = runs_[static_cast<std::size_t>(run)];
    PMPS_ASSERT(m.n % elems_per_block_ == 0);
    m.slots.push_back(file_->append(std::as_bytes(elems), stats()));
    m.n += len;
    total_ += len;
  }

  /// Appends `elems` as one new run, writing it out block by block
  /// (directly from the source span — no staging copy). Empty runs are
  /// legal and occupy no blocks.
  void append_run(std::span<const T> elems) {
    const int run = begin_run();
    const auto n = static_cast<std::int64_t>(elems.size());
    for (std::int64_t off = 0; off < n; off += elems_per_block_) {
      const std::int64_t len = std::min(elems_per_block_, n - off);
      append_block_to_run(run,
                          elems.subspan(static_cast<std::size_t>(off),
                                        static_cast<std::size_t>(len)));
    }
  }

  /// Reads block `block` of run `run` into `out`, which must be sized to
  /// the block's exact length (elems_per_block, except a shorter tail).
  void read_block(int run, std::int64_t block, std::span<T> out) {
    PMPS_ASSERT(run >= 0 && run < runs());
    const RunMeta& m = runs_[static_cast<std::size_t>(run)];
    PMPS_ASSERT(block >= 0 && block * elems_per_block_ < m.n);
    PMPS_ASSERT(static_cast<std::int64_t>(out.size()) ==
                std::min(elems_per_block_, m.n - block * elems_per_block_));
    file_->read(m.slots[static_cast<std::size_t>(block)], 0,
                std::as_writable_bytes(out), stats());
  }

  /// Reads elements [pos, pos + out.size()) of the store's *content* — the
  /// concatenation of all runs in run order, the spilled equivalent of
  /// indexing the in-memory partition vector. Crosses block and run
  /// boundaries as needed; the streaming-classification passes and
  /// plan_delivery_from_store read the partition through this.
  void read_range(std::int64_t pos, std::span<T> out) {
    PMPS_ASSERT(pos >= 0 &&
                pos + static_cast<std::int64_t>(out.size()) <= total_);
    if (out.empty()) return;
    rebuild_prefix();
    // First run containing pos: prefix_[r] is the content offset of run r.
    auto it = std::upper_bound(prefix_.begin(), prefix_.end(), pos);
    auto r = static_cast<std::size_t>(it - prefix_.begin()) - 1;
    std::int64_t in_run = pos - prefix_[r];
    std::size_t done = 0;
    while (done < out.size()) {
      const RunMeta& m = runs_[r];
      if (in_run == m.n) {  // skip empty runs / advance past a consumed one
        ++r;
        in_run = 0;
        continue;
      }
      const std::int64_t block = in_run / elems_per_block_;
      const std::int64_t in_block = in_run % elems_per_block_;
      const std::int64_t block_len =
          std::min(elems_per_block_, m.n - block * elems_per_block_);
      const std::int64_t len =
          std::min(block_len - in_block,
                   static_cast<std::int64_t>(out.size() - done));
      file_->read(m.slots[static_cast<std::size_t>(block)],
                  in_block * static_cast<std::int64_t>(sizeof(T)),
                  std::as_writable_bytes(
                      out.subspan(done, static_cast<std::size_t>(len))),
                  stats());
      done += static_cast<std::size_t>(len);
      in_run += len;
    }
  }

  /// Reads the single element at content position `pos` (splitter-sample
  /// drawing over a spilled partition).
  T read_element(std::int64_t pos) {
    T v;
    read_range(pos, std::span<T>(&v, 1));
    return v;
  }

  /// Reads every run back, concatenated in run order — the spill-mode
  /// equivalent of FlatParts::take_flat() on the delivered parts.
  std::vector<T> take_all() {
    std::vector<T> out(static_cast<std::size_t>(total_));
    std::int64_t off = 0;
    for (int r = 0; r < runs(); ++r) {
      const std::int64_t n = run_size(r);
      for (std::int64_t b = 0; b * elems_per_block_ < n; ++b) {
        const std::int64_t len =
            std::min(elems_per_block_, n - b * elems_per_block_);
        read_block(r, b,
                   std::span<T>(out.data() + off, static_cast<std::size_t>(len)));
        off += len;
      }
    }
    PMPS_CHECK(off == total_);
    return out;
  }

  /// Hands out a block-sized read buffer from the free list (RunCursor and
  /// RunWriter hold one each for their lifetime). Always sized — and with
  /// capacity for — a full block, so users may clear() and push_back() up
  /// to elems_per_block elements without a regrow.
  std::vector<T> acquire_buffer() {
    if (free_buffers_.empty())
      return std::vector<T>(static_cast<std::size_t>(elems_per_block_));
    std::vector<T> buf = std::move(free_buffers_.back());
    free_buffers_.pop_back();
    buf.resize(static_cast<std::size_t>(elems_per_block_));
    return buf;
  }

  /// Returns a read buffer to the free list. Moved-from buffers are ignored
  /// (mirroring net::BufferPool::release), as are undersized ones — a
  /// buffer that cannot hold a full block of THIS element type would force
  /// a warm-path regrow on reuse, which matters for fat elements
  /// (Record100: a block holds ~655 records, not ~8192 keys).
  void release_buffer(std::vector<T>&& buf) {
    if (static_cast<std::int64_t>(buf.capacity()) < elems_per_block_) return;
    free_buffers_.push_back(std::move(buf));
  }

 private:
  struct RunMeta {
    std::vector<std::int64_t> slots;  ///< file slot of each logical block
    std::int64_t n = 0;               ///< elements in the run
  };

  void rebuild_prefix() {
    if (prefix_.size() == runs_.size() + 1) return;
    prefix_.resize(runs_.size() + 1);
    prefix_[0] = 0;
    for (std::size_t r = 0; r < runs_.size(); ++r)
      prefix_[r + 1] = prefix_[r] + runs_[r].n;
  }

  MemoryBudget budget_;
  std::unique_ptr<BlockFile> owned_file_;  ///< null in shared-file mode
  BlockFile* file_ = nullptr;
  std::int64_t elems_per_block_ = 1;
  std::vector<RunMeta> runs_;
  std::int64_t total_ = 0;
  std::vector<std::int64_t> prefix_;  ///< content offset per run (lazy)
  std::vector<std::vector<T>> free_buffers_;
};

/// Streams one run into a RunStore block by block: push/append stage into a
/// pooled block buffer that is flushed whenever full, so an open writer
/// costs one block of memory however long its run grows. finish() flushes
/// the short tail block (if any) and returns the buffer to the pool;
/// the destructor finishes automatically. Several writers may be open on
/// one store at once (one per bucket in the AMS scatter pass).
template <Sortable T>
class RunWriter {
 public:
  explicit RunWriter(RunStore<T>& store)
      : store_(&store), run_(store.begin_run()), buf_(store.acquire_buffer()) {
    buf_.clear();
  }

  ~RunWriter() { finish(); }

  RunWriter(const RunWriter&) = delete;
  RunWriter& operator=(const RunWriter&) = delete;

  RunWriter(RunWriter&& other) noexcept
      : store_(std::exchange(other.store_, nullptr)),
        run_(other.run_),
        buf_(std::move(other.buf_)) {}
  RunWriter& operator=(RunWriter&&) = delete;

  /// Index of the run being written.
  int run() const { return run_; }

  void push(const T& v) {
    buf_.push_back(v);
    if (static_cast<std::int64_t>(buf_.size()) == store_->elems_per_block())
      flush_block();
  }

  void append(std::span<const T> elems) {
    for (const T& v : elems) push(v);
  }

  /// Flushes the tail and closes the writer (idempotent).
  void finish() {
    if (store_ == nullptr) return;
    if (!buf_.empty()) flush_block();
    store_->release_buffer(std::move(buf_));
    store_ = nullptr;
  }

 private:
  void flush_block() {
    store_->append_block_to_run(run_,
                                std::span<const T>(buf_.data(), buf_.size()));
    buf_.clear();
  }

  RunStore<T>* store_;
  int run_;
  std::vector<T> buf_;
};

/// Sink adapter for coll::sparse_exchange_into / delivery::deliver_into:
/// lands every received piece as one run, in receive order — "delivery
/// landing incoming pieces directly into run blocks".
template <Sortable T>
auto run_sink(RunStore<T>& store) {
  return [&store](int /*src_rank*/, std::span<const T> piece) {
    store.append_run(piece);
  };
}

}  // namespace pmps::em
