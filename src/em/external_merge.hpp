// External k-way merge (multi-pass, fan-in bounded) and out-of-core local
// sort.
//
// merge_runs() merges every run of a RunStore with the existing
// seq::LoserTree, fed block-granular windows by RunCursor refill callbacks:
// a tree starts from each run's first block and, whenever a run's window is
// consumed, pulls the next block from its cursor — so a merge of fan-in f
// holds f block buffers instead of f whole runs.
//
// The fan-in is bounded by the memory budget: f = max(2, budget.bytes /
// block_bytes), i.e. as many block buffers as fit the budget. When a store
// holds more runs than that, merge_runs runs extra *passes* first: each
// pass merges consecutive groups of ≤ f runs into new runs spilled back to
// the same store (read and written one block at a time), until ≤ f runs
// remain for the final pass into memory. Grouping consecutive runs and
// breaking ties by position preserves exactly the stable order of the
// single-pass merge — ties still resolve to the run that appeared first in
// creation order — so multi-pass merges are bit-identical to single-pass
// ones, which in turn match the in-memory seq::multiway_merge. Passes are
// counted in SpillStats::merge_passes.
//
// external_sort() is classic run formation + merge (cf. the external
// merge-sort exemplars behind the sort-benchmark systems of §3/§7.3):
// budget-sized chunks are sorted with seq::local_sort and spilled as runs,
// then merged back. external_sort_store() is the same algorithm when the
// input already lives in a RunStore (AMS base case under streaming
// classification) — it reads chunks at the identical boundaries, so both
// produce bit-identical output for the same content. For unique-by-value
// keys (the harness's uint64 workloads) the result is bit-identical to
// sorting in memory.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "em/run_cursor.hpp"
#include "em/run_store.hpp"
#include "seq/multiway_merge.hpp"
#include "seq/small_sort.hpp"

namespace pmps::em {

namespace detail {

/// Builds a loser tree over the given runs of `store` (tie-breaking by
/// position in `group`, i.e. run-creation order for consecutive groups) and
/// hands it to `fn` to drain. The tree must be empty when `fn` returns.
template <Sortable T, typename Less, typename Fn>
void with_group_tree(RunStore<T>& store, std::span<const int> group, Less less,
                     Fn&& fn) {
  const auto k = group.size();
  std::vector<RunCursor<T>> cursors;
  cursors.reserve(k);
  std::vector<std::span<const T>> windows(k);
  std::vector<std::int64_t> totals(k);
  for (std::size_t i = 0; i < k; ++i) {
    cursors.emplace_back(&store, group[i]);
    windows[i] = cursors[i].next_window();
    totals[i] = store.run_size(group[i]);
  }
  seq::LoserTree<T, Less> tree(
      std::span<const std::span<const T>>(windows.data(), windows.size()),
      std::span<const std::int64_t>(totals.data(), totals.size()),
      [&cursors](int run) {
        return cursors[static_cast<std::size_t>(run)].next_window();
      },
      less);
  fn(tree);
  PMPS_CHECK(tree.empty());
}

/// Merges the runs of `group` into a new run of the same store, streaming
/// one block at a time (group-size + 2 block buffers of working memory).
/// Returns the new run's index.
template <Sortable T, typename Less>
int merge_group_to_run(RunStore<T>& store, std::span<const int> group,
                       Less less) {
  std::int64_t left = 0;
  for (int r : group) left += store.run_size(r);
  const int run = store.begin_run();
  std::vector<T> stage = store.acquire_buffer();
  with_group_tree(store, group, less, [&](auto& tree) {
    std::int64_t pending = left;
    while (pending > 0) {
      const std::int64_t len = std::min(store.elems_per_block(), pending);
      std::span<T> chunk(stage.data(), static_cast<std::size_t>(len));
      tree.pop_bulk(chunk);
      store.append_block_to_run(run, chunk);
      pending -= len;
    }
  });
  store.release_buffer(std::move(stage));
  return run;
}

}  // namespace detail

/// Merges all runs of `store` into one sorted vector. Fan-in per pass is
/// bounded by the store's budget (see the header comment); with a generous
/// budget this is the familiar single-pass loser-tree merge. O(N log k)
/// comparisons total, fan-in block buffers of working memory (plus the
/// output).
template <Sortable T, typename Less = std::less<T>>
std::vector<T> merge_runs(RunStore<T>& store, Less less = {}) {
  std::vector<T> out(static_cast<std::size_t>(store.total()));
  if (store.runs() == 0 || store.total() == 0) return out;
  if (store.stats() != nullptr) store.stats()->count_external_merge();

  const MemoryBudget& budget = store.budget();
  const std::int64_t fanin =
      budget.enabled()
          ? std::max<std::int64_t>(2, budget.bytes / budget.block_bytes)
          : std::numeric_limits<std::int64_t>::max();

  std::vector<int> active(static_cast<std::size_t>(store.runs()));
  std::iota(active.begin(), active.end(), 0);
  while (static_cast<std::int64_t>(active.size()) > fanin) {
    if (store.stats() != nullptr) store.stats()->count_merge_pass();
    std::vector<int> next;
    for (std::size_t g = 0; g < active.size();
         g += static_cast<std::size_t>(fanin)) {
      const auto group = std::span<const int>(active).subspan(
          g, std::min(static_cast<std::size_t>(fanin), active.size() - g));
      // A leftover single run passes through untouched — no I/O, and its
      // earlier creation index keeps the tie-break order intact.
      next.push_back(group.size() == 1
                         ? group[0]
                         : detail::merge_group_to_run(store, group, less));
    }
    active = std::move(next);
  }
  detail::with_group_tree(store, std::span<const int>(active), less,
                          [&](auto& tree) {
                            tree.pop_bulk(std::span<T>(out.data(), out.size()));
                          });
  return out;
}

/// Out-of-core replacement for seq::local_sort when `data` exceeds the
/// budget: sorts budget-sized chunks, spills each as a run, releases the
/// input, and external-merges the runs back. The caller charges the same
/// virtual-time sort cost as for the in-memory sort — spilling is
/// host-side storage only (docs/EM.md).
template <Sortable T, typename Less = std::less<T>>
void external_sort(std::vector<T>& data, const MemoryBudget& budget,
                   Less less = {}) {
  PMPS_CHECK(budget.enabled());
  const std::int64_t n = static_cast<std::int64_t>(data.size());
  const std::int64_t run_elems = std::max<std::int64_t>(
      1, budget.bytes / static_cast<std::int64_t>(sizeof(T)));

  RunStore<T> store(budget);
  for (std::int64_t off = 0; off < n; off += run_elems) {
    const std::int64_t len = std::min(run_elems, n - off);
    std::span<T> chunk(data.data() + off, static_cast<std::size_t>(len));
    seq::local_sort(chunk, less);
    store.append_run(chunk);
  }
  std::vector<T>().swap(data);  // release before the merge materialises out
  if (budget.stats != nullptr) budget.stats->count_external_sort();
  data = merge_runs(store, less);
}

/// external_sort for data that already lives in a RunStore (the AMS base
/// case after streaming classification): reads budget-sized chunks of the
/// store's content at the same boundaries external_sort would use, sorts
/// and re-spills each as a run, and merges. Bit-identical to
/// `data = take_all(); external_sort(data, ...)` without ever holding more
/// than one chunk of `in` in memory.
template <Sortable T, typename Less = std::less<T>>
std::vector<T> external_sort_store(RunStore<T>& in, const MemoryBudget& budget,
                                   Less less = {}) {
  PMPS_CHECK(budget.enabled());
  const std::int64_t n = in.total();
  const std::int64_t run_elems = std::max<std::int64_t>(
      1, budget.bytes / static_cast<std::int64_t>(sizeof(T)));

  RunStore<T> sorted(budget);
  std::vector<T> chunk;
  for (std::int64_t off = 0; off < n; off += run_elems) {
    const std::int64_t len = std::min(run_elems, n - off);
    chunk.resize(static_cast<std::size_t>(len));
    in.read_range(off, std::span<T>(chunk.data(), chunk.size()));
    seq::local_sort(std::span<T>(chunk.data(), chunk.size()), less);
    sorted.append_run(std::span<const T>(chunk.data(), chunk.size()));
  }
  std::vector<T>().swap(chunk);
  if (budget.stats != nullptr) budget.stats->count_external_sort();
  return merge_runs(sorted, less);
}

/// The sorters' base-case local sort: external_sort when `data` exceeds
/// the budget, seq::local_sort otherwise. Virtual-time charges are the
/// caller's and identical either way (spilling is host-side only).
template <Sortable T, typename Less = std::less<T>>
void local_sort_or_spill(std::vector<T>& data, const MemoryBudget& budget,
                         Less less = {}) {
  if (budget.should_spill(static_cast<std::int64_t>(data.size()) *
                          static_cast<std::int64_t>(sizeof(T)))) {
    external_sort(data, budget, less);
  } else {
    seq::local_sort(std::span<T>(data.data(), data.size()), less);
  }
}

}  // namespace pmps::em
