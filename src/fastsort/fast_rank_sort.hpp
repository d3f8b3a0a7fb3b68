// Fast work-inefficient sorting (paper §4.2).
//
// The PEs are arranged as an a×b grid with a, b = O(√p) (for p = 2^P,
// a = 2^⌈P/2⌉ and b = 2^⌊P/2⌋). Locally sorted elements are gossiped
// (allgather-with-merge) along rows and columns; PE (i,j) then ranks the
// elements received from its column against the elements received from its
// row by merging the two sorted sequences, and summing these local ranks
// along columns yields every element's global rank. Total time
// O(α log p + β n/√p + n/p log(n/p))  — Equation (2).
//
// AMS-sort uses this to sort its sample and extract splitters with
// prescribed ranks, so the interface here is rank *selection*: every PE
// returns the elements whose global ranks match `want_ranks`. Each column
// already knows which of them it holds, and one more gossip along the row
// hands them to every PE (docs/DESIGN.md §15). Elements are tagged with
// their origin (PE, index), which makes ranks unique even with duplicate
// keys (Appendix D).
//
// For p that is not a power of two we use the paper's footnote-3 fallback:
// a merging gather along a binomial tree plus a broadcast of the result.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "common/types.hpp"
#include "net/comm.hpp"

namespace pmps::fastsort {

using net::Comm;

namespace detail {

template <typename T, typename Less>
bool tagged_less(const TaggedKey<T>& a, const TaggedKey<T>& b, Less less) {
  if (less(a.key, b.key)) return true;
  if (less(b.key, a.key)) return false;
  if (a.pe != b.pe) return a.pe < b.pe;
  return a.index < b.index;
}

}  // namespace detail

/// Selects the elements with global (0-based) ranks `want_ranks` from the
/// distributed input `local`; every PE returns the full selection, ordered
/// like `want_ranks`. `want_ranks` must be strictly increasing, from 0 up
/// to below the global element count.
template <typename T, typename Less = std::less<T>>
std::vector<TaggedKey<T>> fast_rank_select(
    Comm& comm, std::span<const T> local,
    const std::vector<std::int64_t>& want_ranks, Less less = {}) {
  PMPS_CHECK_MSG(want_ranks.empty() || want_ranks.front() >= 0,
                 "requested rank is negative");
  PMPS_CHECK_MSG(std::adjacent_find(want_ranks.begin(), want_ranks.end(),
                                    std::greater_equal<>()) ==
                     want_ranks.end(),
                 "want_ranks must be strictly increasing");
  constexpr const char* kBeyond = "requested rank exceeds global sample size";
  const auto& machine = comm.machine();
  auto tless = [less](const TaggedKey<T>& a, const TaggedKey<T>& b) {
    return detail::tagged_less(a, b, less);
  };

  // Tag and sort locally.
  std::vector<TaggedKey<T>> mine;
  mine.reserve(local.size());
  for (std::size_t i = 0; i < local.size(); ++i)
    mine.push_back(TaggedKey<T>{local[i], comm.rank(),
                                static_cast<std::int64_t>(i)});
  std::sort(mine.begin(), mine.end(), tless);
  comm.charge(machine.sort_cost(static_cast<std::int64_t>(mine.size())));

  const int p = comm.size();
  if (!is_pow2(p)) {
    // Footnote-3 fallback: merging gather + broadcast, then select locally.
    auto all = coll::allgather_merge(
        comm, std::span<const TaggedKey<T>>(mine.data(), mine.size()), tless);
    std::vector<TaggedKey<T>> out;
    out.reserve(want_ranks.size());
    for (std::int64_t k : want_ranks) {
      PMPS_CHECK_MSG(k < static_cast<std::int64_t>(all.size()), kBeyond);
      out.push_back(all[static_cast<std::size_t>(k)]);
    }
    return out;
  }

  // Grid shape: a rows × b columns, a = 2^⌈P/2⌉, b = 2^⌊P/2⌋.
  const int P = floor_log2(static_cast<std::uint64_t>(p));
  const int a = 1 << ((P + 1) / 2);
  const int b = 1 << (P / 2);
  PMPS_CHECK(a * b == p);
  const int row = comm.rank() / b;
  const int col = comm.rank() % b;

  // Row `row` is ranks row·b … row·b + b − 1, column `col` is ranks col,
  // col + b, …: slices every PE computes without a message.
  Comm row_comm = comm.split_strided(row * b, 1, b);
  Comm col_comm = comm.split_strided(col, b, a);

  // Gossip sorted runs along the row and along the column.
  auto row_data = coll::allgather_merge(
      row_comm, std::span<const TaggedKey<T>>(mine.data(), mine.size()),
      tless);
  auto col_data = coll::allgather_merge(
      col_comm, std::span<const TaggedKey<T>>(mine.data(), mine.size()),
      tless);

  // Rank column elements against row elements by a linear merge pass.
  std::vector<std::int64_t> local_rank(col_data.size());
  {
    std::size_t ri = 0;
    for (std::size_t ci = 0; ci < col_data.size(); ++ci) {
      while (ri < row_data.size() && tless(row_data[ri], col_data[ci])) ++ri;
      local_rank[ci] = static_cast<std::int64_t>(ri);
    }
    comm.charge(machine.merge_cost(
        static_cast<std::int64_t>(row_data.size() + col_data.size()), 2));
  }

  // Sum local ranks along the column: since the rows partition the whole
  // input, Σ_i rank(e, row_i) is e's global rank. col_data is identical on
  // every PE of the column, so the vectors align.
  const auto global_rank = coll::allreduce_add(col_comm, local_rank);

  // Every PE of a column holds the same col_data and global ranks, so each
  // already knows which wanted elements its column holds. The columns
  // partition the input and a row meets every column once, so a gossip
  // along the row hands every PE all of them, merged into rank order.
  std::vector<TaggedKey<T>> found;
  for (std::size_t ci = 0, j = 0; ci < col_data.size(); ++ci) {
    while (j < want_ranks.size() && want_ranks[j] < global_rank[ci]) ++j;
    if (j == want_ranks.size()) break;
    if (want_ranks[j] == global_rank[ci]) found.push_back(col_data[ci]);
  }
  auto out = coll::allgather_merge(
      row_comm, std::span<const TaggedKey<T>>(found.data(), found.size()),
      tless);
  PMPS_CHECK_MSG(out.size() == want_ranks.size(), kBeyond);
  return out;
}

}  // namespace pmps::fastsort
