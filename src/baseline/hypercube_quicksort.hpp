// Hypercube quicksort — the classic parallelization of quicksort [19, 21]
// that the paper's introduction groups under "O(log² p) algorithms whose
// techniques are in principle practical, but which move all data a
// logarithmic number of times".
//
// For p = 2^d (other sizes are rejected): log p rounds. In each round the
// current PE group agrees on a pivot (median of a gathered sample),
// partitions its local data, and exchanges halves with the partner in the
// other half of the group: the lower half of PEs keeps keys < pivot, the
// upper half keys ≥ pivot. After log p rounds every PE's data falls into
// its rank slot and is sorted locally.
//
// AMS-sort §6 is exactly the generalization of this scheme "that also works
// efficiently for very small inputs" — with r-way instead of 2-way splits,
// sample-quality guarantees and balanced data delivery. This baseline
// exists to exhibit the contrast: data moves k = log p times and balance
// degrades multiplicatively with the pivot quality of every round.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "coll/collectives.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "common/types.hpp"
#include "net/comm.hpp"
#include "seq/small_sort.hpp"

namespace pmps::baseline {

struct HypercubeConfig {
  int pivot_sample_per_pe = 8;  ///< local sample for the pivot median
  std::uint64_t seed = 1;
};

namespace detail {

template <typename T, typename Less>
void hqs_level(net::Comm& comm, std::vector<T>& data,
               const HypercubeConfig& cfg, Less less) {
  using net::Phase;
  const auto& machine = comm.machine();
  const int p = comm.size();
  if (p == 1) {
    coll::barrier(comm);
    comm.set_phase(Phase::kLocalSort);
    seq::local_sort(std::span<T>(data.data(), data.size()), less);
    comm.charge(machine.sort_cost(static_cast<std::int64_t>(data.size())));
    comm.set_phase(Phase::kOther);
    return;
  }

  // --- pivot selection: median of a gathered sample -------------------------
  coll::barrier(comm);
  comm.set_phase(Phase::kSplitterSelection);
  auto tless = [less](const TaggedKey<T>& a, const TaggedKey<T>& b) {
    if (less(a.key, b.key)) return true;
    if (less(b.key, a.key)) return false;
    if (a.pe != b.pe) return a.pe < b.pe;
    return a.index < b.index;
  };
  std::vector<TaggedKey<T>> sample;
  for (int i = 0; i < cfg.pivot_sample_per_pe && !data.empty(); ++i) {
    const auto idx = comm.rng().bounded(data.size());
    sample.push_back(TaggedKey<T>{data[static_cast<std::size_t>(idx)],
                                  comm.rank(),
                                  static_cast<std::int64_t>(idx)});
  }
  // allgather_merge merges sorted runs, so the sample is sorted first.
  std::sort(sample.begin(), sample.end(), tless);
  comm.charge(machine.sort_cost(static_cast<std::int64_t>(sample.size())));
  auto all = coll::allgather_merge(
      comm, std::span<const TaggedKey<T>>(sample.data(), sample.size()),
      tless);
  PMPS_CHECK_MSG(!all.empty(), "cannot pick a pivot from an empty group");
  const TaggedKey<T> pivot = all[all.size() / 2];

  // --- partition locally and exchange halves --------------------------------
  comm.set_phase(Phase::kBucketProcessing);
  std::vector<T> low, high;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const TaggedKey<T> tx{data[i], comm.rank(),
                          static_cast<std::int64_t>(i)};
    (tless(tx, pivot) ? low : high).push_back(data[i]);
  }
  comm.charge(machine.partition_cost(static_cast<std::int64_t>(data.size()), 2));

  comm.set_phase(Phase::kDataDelivery);
  const int half = p / 2;
  const bool lower = comm.rank() < half;
  const int partner = lower ? comm.rank() + half : comm.rank() - half;
  const std::uint64_t tag = comm.next_tag_block();
  auto& keep = lower ? low : high;
  auto& give = lower ? high : low;
  comm.send<T>(partner, tag, std::span<const T>(give.data(), give.size()));
  auto got = comm.recv<T>(partner, tag);
  keep.insert(keep.end(), got.begin(), got.end());
  data = std::move(keep);
  comm.set_phase(Phase::kOther);

  // --- recurse on the halves -------------------------------------------------
  net::Comm sub = comm.split_consecutive(2);
  hqs_level(sub, data, cfg, less);
}

}  // namespace detail

/// Hypercube quicksort; requires p to be a power of two. Output is globally
/// sorted; balance depends on every round's pivot quality.
template <typename T, typename Less = std::less<T>>
void hypercube_quicksort(net::Comm& comm, std::vector<T>& data,
                         const HypercubeConfig& cfg = {}, Less less = {}) {
  PMPS_CHECK_MSG(is_pow2(comm.size()),
                 "hypercube quicksort needs a power-of-two PE count");
  detail::hqs_level(comm, data, cfg, less);
}

}  // namespace pmps::baseline
