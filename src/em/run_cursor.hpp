// RunCursor: a block-granular read cursor over one run of a RunStore.
//
// next_window() loads the run's next block into the cursor's (pooled)
// buffer and returns it as a span — the refill source for the external
// multiway merge, which feeds seq::LoserTree::pop_bulk from these windows
// instead of whole in-memory spans. A cursor owns exactly one block buffer,
// acquired from the store's free list on construction and returned on
// destruction, so k live cursors cost k blocks of memory total.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "em/run_store.hpp"

namespace pmps::em {

template <Sortable T>
class RunCursor {
 public:
  RunCursor(RunStore<T>* store, int run)
      : store_(store),
        run_(run),
        remaining_(store->run_size(run)),
        buf_(store->acquire_buffer()) {}

  ~RunCursor() {
    if (store_ != nullptr) store_->release_buffer(std::move(buf_));
  }

  RunCursor(const RunCursor&) = delete;
  RunCursor& operator=(const RunCursor&) = delete;

  RunCursor(RunCursor&& other) noexcept
      : store_(std::exchange(other.store_, nullptr)),
        run_(other.run_),
        next_block_(other.next_block_),
        remaining_(other.remaining_),
        buf_(std::move(other.buf_)) {}
  RunCursor& operator=(RunCursor&&) = delete;

  /// Elements not yet returned by next_window().
  std::int64_t remaining() const { return remaining_; }

  /// Loads the next block of the run into the cursor's buffer and returns
  /// it; an empty span means the run is exhausted. The returned span stays
  /// valid until the next call (it views the cursor's buffer).
  std::span<const T> next_window() {
    if (remaining_ == 0) return {};
    const std::int64_t len =
        std::min(store_->elems_per_block(), remaining_);
    std::span<T> window(buf_.data(), static_cast<std::size_t>(len));
    store_->read_block(run_, next_block_++, window);
    remaining_ -= len;
    return window;
  }

 private:
  RunStore<T>* store_;
  int run_;
  std::int64_t next_block_ = 0;
  std::int64_t remaining_;
  std::vector<T> buf_;
};

}  // namespace pmps::em
