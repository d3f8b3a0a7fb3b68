// Bucket grouping for AMS-sort (paper §6 and Appendix C).
//
// Given the global sizes of br buckets (in splitter order), assign
// *consecutive ranges* of buckets to r PE groups such that the maximum
// group load L is minimal. The feasibility check is the scanning algorithm
// of §6 (greedy: open a new group when the next bucket would exceed L);
// Lemma 1 proves scanning + binary search on L is optimal. A scan walks the
// buckets' prefix sums, computed once per search, and gallops to each
// group's end, so it costs O(r log(B/r)) host time instead of O(B)
// (docs/DESIGN.md §15). Bucket sizes are non-negative.
//
// Three search strategies are provided:
//   group_buckets_naive     — plain binary search over integer L
//                             (O(B log n), the paper's prototype, §7.1)
//   group_buckets_optimal   — Appendix C's accelerated search: bounds are
//                             tightened to *realisable* group sizes after
//                             every scan (success → L = largest group used;
//                             failure → L = min over observed x+y overflow
//                             values), converging in O(B log B)
//   group_buckets_parallel  — Appendix C's parallel refinement: every PE
//                             probes one candidate per iteration and a
//                             min/max reduction narrows the range; O(1)
//                             iterations for b polynomial in r.

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "common/check.hpp"
#include "net/comm.hpp"

namespace pmps::grouping {

struct GroupingResult {
  std::int64_t max_load = 0;             ///< the optimal L
  std::vector<std::int64_t> group_first; ///< first bucket of each group (size r)
  int scans = 0;                         ///< feasibility probes performed

  /// Group of bucket b (groups cover consecutive ranges).
  int group_of(std::int64_t bucket) const {
    const auto it = std::upper_bound(group_first.begin(), group_first.end(),
                                     bucket);
    return static_cast<int>(it - group_first.begin()) - 1;
  }
};

namespace detail {

struct ScanOutcome {
  bool feasible = false;
  std::int64_t largest_group = 0;   ///< (success) largest group actually built
  std::int64_t min_overflow =       ///< (failure) min observed x+y, i.e. the
      std::numeric_limits<std::int64_t>::max();  ///< smallest useful larger L
  std::vector<std::int64_t> group_first;
};

/// Prefix sums of the bucket sizes: prefix[i] = Σ buckets[0, i), B + 1
/// entries.
inline std::vector<std::int64_t> prefix_sums(
    std::span<const std::int64_t> buckets) {
  std::vector<std::int64_t> prefix(buckets.size() + 1, 0);
  for (std::size_t i = 0; i < buckets.size(); ++i)
    prefix[i + 1] = prefix[i] + buckets[i];
  return prefix;
}

/// The scanning algorithm on prefix sums: greedily fill groups with
/// consecutive buckets, starting a new group when adding the next bucket
/// would exceed `limit`. Feasible iff at most r groups are needed (and no
/// single bucket > limit). Each group's end is the first j with
/// prefix[j] − prefix[start] > limit, found by galloping from the start;
/// the outcome is that of adding the buckets one by one.
inline ScanOutcome scan(std::span<const std::int64_t> prefix, int r,
                        std::int64_t limit) {
  ScanOutcome out;
  out.group_first.reserve(static_cast<std::size_t>(r));
  out.group_first.push_back(0);
  const std::size_t B = prefix.size() - 1;
  std::size_t start = 0;
  for (;;) {
    const std::int64_t base = prefix[start];
    if (start == B || prefix[B] - base <= limit) {
      // The rest fits in this group.
      out.largest_group = std::max(out.largest_group, prefix[B] - base);
      out.feasible = true;
      while (static_cast<int>(out.group_first.size()) < r)
        out.group_first.push_back(static_cast<std::int64_t>(B));
      return out;
    }
    // Gallop to an index past the group's end, then binary-search: `end`
    // becomes the first j > start with prefix[j] − base > limit (≤ B).
    std::size_t fits = start;  // prefix[j] − base ≤ limit for j in (start, fits]
    std::size_t step = 1;
    while (start + step < B && prefix[start + step] - base <= limit) {
      fits = start + step;
      step *= 2;
    }
    const std::size_t probe_end = std::min(start + step, B);
    const std::size_t end = static_cast<std::size_t>(
        std::upper_bound(prefix.begin() + static_cast<std::ptrdiff_t>(fits + 1),
                         prefix.begin() + static_cast<std::ptrdiff_t>(probe_end),
                         base + limit) -
        prefix.begin());
    const std::size_t next = end - 1;  // the bucket that does not fit
    const std::int64_t b = prefix[end] - prefix[next];
    if (b > limit) {
      // A single bucket exceeding the limit can never fit.
      out.min_overflow = std::min(out.min_overflow, b);
      return out;
    }
    out.min_overflow = std::min(out.min_overflow, prefix[end] - base);
    out.largest_group = std::max(out.largest_group, prefix[next] - base);
    if (static_cast<int>(out.group_first.size()) == r) {
      return out;  // would need an (r+1)-th group
    }
    out.group_first.push_back(static_cast<std::int64_t>(next));
    start = next;
  }
}

inline std::int64_t max_bucket(std::span<const std::int64_t> buckets) {
  std::int64_t mx = 0;
  for (auto b : buckets) mx = std::max(mx, b);
  return mx;
}

}  // namespace detail

/// Plain binary search over integer candidate values of L.
inline GroupingResult group_buckets_naive(
    std::span<const std::int64_t> buckets, int r) {
  PMPS_CHECK(r >= 1 && !buckets.empty());
  const auto prefix = detail::prefix_sums(buckets);
  const std::int64_t tot = prefix.back();
  std::int64_t lo = std::max(detail::max_bucket(buckets),
                             (tot + r - 1) / r);  // both are lower bounds
  std::int64_t hi = tot;
  GroupingResult res;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    auto sc = detail::scan(prefix, r, mid);
    ++res.scans;
    if (sc.feasible) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  auto sc = detail::scan(prefix, r, lo);
  ++res.scans;
  PMPS_CHECK(sc.feasible);
  res.max_load = lo;
  res.group_first = std::move(sc.group_first);
  return res;
}

/// Appendix C accelerated search: after a successful scan the upper bound
/// drops to the largest group actually used (a realisable value); after a
/// failed scan the lower bound rises to the smallest overflow value x+y
/// observed (no L below it changes the failed partition).
inline GroupingResult group_buckets_optimal(
    std::span<const std::int64_t> buckets, int r) {
  PMPS_CHECK(r >= 1 && !buckets.empty());
  const auto prefix = detail::prefix_sums(buckets);
  const std::int64_t tot = prefix.back();
  std::int64_t lo =
      std::max(detail::max_bucket(buckets), (tot + r - 1) / r);
  std::int64_t hi = tot;
  GroupingResult res;
  std::vector<std::int64_t> best_groups;
  std::int64_t best = -1;
  while (lo <= hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    auto sc = detail::scan(prefix, r, mid);
    ++res.scans;
    if (sc.feasible) {
      best = sc.largest_group;  // realisable and ≤ mid
      best_groups = std::move(sc.group_first);
      hi = sc.largest_group - 1;
    } else {
      lo = sc.min_overflow;  // smallest L that can change the outcome
    }
  }
  PMPS_CHECK(best >= 0);
  res.max_load = best;
  res.group_first = std::move(best_groups);
  return res;
}

/// Appendix C, second observation: only L values in
/// [⌈n/r⌉−1, (1+O(1/b))·n/r] matter, and only O(br) consecutive-bucket
/// range sums fall inside that window. Enumerate exactly those candidates
/// with a sliding window and binary-search over the candidate *list* —
/// "saves a factor about two for the sequential algorithm". Falls back to
/// the general search when no candidate in the window is feasible (degraded
/// sampling can push the optimum outside it).
inline GroupingResult group_buckets_relevant_ranges(
    std::span<const std::int64_t> buckets, int r,
    double window_factor = 2.0) {
  PMPS_CHECK(r >= 1 && !buckets.empty());
  const auto prefix = detail::prefix_sums(buckets);
  const std::int64_t tot = prefix.back();
  const std::int64_t lower =
      std::max(detail::max_bucket(buckets), (tot + r - 1) / r);
  const auto upper = static_cast<std::int64_t>(
      window_factor * static_cast<double>(tot) / static_cast<double>(r));

  GroupingResult res;
  if (upper < lower) {
    res = group_buckets_optimal(buckets, r);
    return res;
  }

  // Sliding window: for each start bucket, walk end points whose range sum
  // lies in [lower, upper]. Average bucket size is n/(br), so only O(1)
  // end points per start are in the window.
  std::vector<std::int64_t> candidates;
  const auto B = static_cast<std::int64_t>(buckets.size());
  std::int64_t j = 0, sum = 0;
  for (std::int64_t i = 0; i < B; ++i) {
    if (j < i) {
      j = i;
      sum = 0;
    }
    while (j < B && sum < lower) sum += buckets[static_cast<std::size_t>(j++)];
    std::int64_t s = sum;
    std::int64_t k = j;
    while (s <= upper) {
      if (s >= lower) candidates.push_back(s);
      if (k >= B) break;
      s += buckets[static_cast<std::size_t>(k++)];
    }
    sum -= buckets[static_cast<std::size_t>(i)];
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Binary search over the candidate list.
  std::int64_t best = -1;
  std::vector<std::int64_t> best_groups;
  std::size_t lo = 0, hi = candidates.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    auto sc = detail::scan(prefix, r, candidates[mid]);
    ++res.scans;
    if (sc.feasible) {
      best = sc.largest_group;
      best_groups = std::move(sc.group_first);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (best < 0) {
    // Window missed the optimum: general fallback.
    auto fallback = group_buckets_optimal(buckets, r);
    fallback.scans += res.scans;
    return fallback;
  }
  res.max_load = best;
  res.group_first = std::move(best_groups);
  return res;
}

/// Exhaustive optimum for testing: tries every realisable group size.
inline GroupingResult group_buckets_bruteforce(
    std::span<const std::int64_t> buckets, int r) {
  PMPS_CHECK(r >= 1 && !buckets.empty());
  const auto B = static_cast<std::int64_t>(buckets.size());
  const auto prefix = detail::prefix_sums(buckets);
  GroupingResult res;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> best_groups;
  for (std::int64_t i = 0; i < B; ++i) {
    std::int64_t sum = 0;
    for (std::int64_t j = i; j < B; ++j) {
      sum += buckets[static_cast<std::size_t>(j)];
      if (sum >= best) break;
      auto sc = detail::scan(prefix, r, sum);
      ++res.scans;
      if (sc.feasible && sc.largest_group < best) {
        best = sc.largest_group;
        best_groups = std::move(sc.group_first);
      }
    }
  }
  PMPS_CHECK(best < std::numeric_limits<std::int64_t>::max());
  res.max_load = best;
  res.group_first = std::move(best_groups);
  return res;
}

/// Appendix C parallel search: each iteration the remaining interval is
/// split into p+1 subranges, every PE probes one endpoint, and a min/max
/// allreduce narrows the interval. All PEs return the identical result.
inline GroupingResult group_buckets_parallel(
    net::Comm& comm, std::span<const std::int64_t> buckets, int r) {
  PMPS_CHECK(r >= 1 && !buckets.empty());
  const auto prefix = detail::prefix_sums(buckets);
  const std::int64_t tot = prefix.back();
  const int p = comm.size();
  std::int64_t lo =
      std::max(detail::max_bucket(buckets), (tot + r - 1) / r);
  std::int64_t hi = tot;
  GroupingResult res;
  while (lo < hi) {
    // Probe endpoint #rank of the (p+1)-way split of [lo, hi].
    const std::int64_t probe =
        lo + (hi - lo) * (static_cast<std::int64_t>(comm.rank()) + 1) /
                 (static_cast<std::int64_t>(p) + 1);
    auto sc = detail::scan(prefix, r, probe);
    ++res.scans;
    // Round to realisable values per the first observation of Appendix C.
    const std::int64_t failed_lb =
        sc.feasible ? std::numeric_limits<std::int64_t>::min()
                    : sc.min_overflow;
    const std::int64_t success_ub =
        sc.feasible ? sc.largest_group
                    : std::numeric_limits<std::int64_t>::max();
    const std::int64_t new_lo = std::max(
        lo, coll::allreduce_one<std::int64_t>(
                comm, failed_lb,
                [](std::int64_t a, std::int64_t b) { return std::max(a, b); }));
    const std::int64_t new_hi = std::min(
        hi, coll::allreduce_one<std::int64_t>(
                comm, success_ub,
                [](std::int64_t a, std::int64_t b) { return std::min(a, b); }));
    PMPS_CHECK(new_lo > lo || new_hi < hi);
    lo = new_lo;
    hi = new_hi;
  }
  auto sc = detail::scan(prefix, r, lo);
  ++res.scans;
  PMPS_CHECK(sc.feasible);
  res.max_load = lo;
  res.group_first = std::move(sc.group_first);
  return res;
}

}  // namespace pmps::grouping
