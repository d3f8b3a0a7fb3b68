// Output verification for distributed sorts.
//
// Checks the paper's output requirement: every PE's data sorted, no element
// on PE i greater than any element on PE i+1, and the output a permutation
// of the input (order-independent hash). Runs in FreeMode so verification
// costs nothing in virtual time.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "coll/collectives.hpp"
#include "common/random.hpp"
#include "net/comm.hpp"

namespace pmps::harness {

using net::Comm;

/// Order-independent content hash (commutative sum of per-element mixes).
template <typename T>
std::uint64_t content_hash(std::span<const T> data) {
  std::uint64_t h = 0;
  for (const T& v : data) {
    std::uint64_t acc = 0xcbf29ce484222325ULL;  // FNV over the element bytes
    const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i)
      acc = (acc ^ bytes[i]) * 0x100000001b3ULL;
    h += mix64(acc);
  }
  return h;
}

/// Order-dependent signature of one PE's output: FNV over the element
/// bytes *in order*, keyed by the PE's rank. Summing these over PEs gives a
/// value that is equal iff every PE holds byte-identical output in the same
/// order — unlike content_hash, which is permutation-invariant. Bit-identity
/// tests (budgeted vs in-memory runs) compare this through the harness.
template <typename T>
std::uint64_t output_signature(int rank, std::span<const T> data) {
  std::uint64_t acc = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t i = 0; i < data.size_bytes(); ++i)
    acc = (acc ^ bytes[i]) * 0x100000001b3ULL;
  return mix64(acc ^ mix64(static_cast<std::uint64_t>(rank) + 1));
}

struct SortCheck {
  bool locally_sorted = true;
  bool globally_ordered = true;
  bool permutation_ok = true;
  std::int64_t total = 0;
  double imbalance = 0;  ///< max local count / (total/p) − 1
  /// Sum of the per-PE output_signature values — an order-dependent
  /// fingerprint of the whole distributed output (same on every PE).
  std::uint64_t out_signature = 0;

  bool ok() const { return locally_sorted && globally_ordered && permutation_ok; }
};

/// Collective check; identical result on every PE. `input_hash` and
/// `input_count` are this PE's pre-sort values.
template <typename T, typename Less = std::less<T>>
SortCheck verify_sorted_output(Comm& comm, std::span<const T> output,
                               std::uint64_t input_hash,
                               std::int64_t input_count, Less less = {}) {
  net::FreeModeGuard free_guard(comm.ctx());
  SortCheck res;

  const bool local_sorted =
      std::is_sorted(output.begin(), output.end(), less);

  // Boundaries: gather (count, first, last) and check the seams on rank 0.
  struct Boundary {
    std::int64_t count;
    T first;
    T last;
  };
  Boundary b{static_cast<std::int64_t>(output.size()), T{}, T{}};
  if (!output.empty()) {
    b.first = output.front();
    b.last = output.back();
  }
  // One Boundary per PE, so the gathered flat buffer is exactly the p
  // boundaries in rank order — walk it directly, no per-rank unwrapping.
  auto parts = coll::gatherv(
      comm, std::span<const Boundary>(&b, 1), /*root=*/0);
  std::uint8_t order_ok = 1;
  if (comm.rank() == 0) {
    bool have_prev = false;
    T prev{};
    for (const Boundary& bi : parts.flat()) {
      if (bi.count == 0) continue;
      if (have_prev && less(bi.first, prev)) order_ok = 0;
      prev = bi.last;
      have_prev = true;
    }
  }
  order_ok = coll::bcast_one<std::uint8_t>(comm, order_ok, 0);

  const std::uint64_t out_hash = content_hash(output);
  // Sum hashes and counts; unsigned, so the hash sums wrap around.
  std::vector<std::uint64_t> sums{
      out_hash,
      input_hash,
      static_cast<std::uint64_t>(output.size()),
      static_cast<std::uint64_t>(input_count),
      local_sorted ? 0u : 1u,
      output_signature(comm.rank(), output),
  };
  sums = coll::allreduce(comm, std::move(sums), std::plus<std::uint64_t>{});

  res.locally_sorted = sums[4] == 0;
  res.globally_ordered = order_ok != 0;
  res.permutation_ok = (sums[0] == sums[1]) && (sums[2] == sums[3]);
  res.total = static_cast<std::int64_t>(sums[2]);
  res.out_signature = sums[5];
  const std::int64_t max_local = coll::allreduce_one<std::int64_t>(
      comm, static_cast<std::int64_t>(output.size()),
      [](std::int64_t a, std::int64_t x) { return std::max(a, x); });
  res.imbalance = res.total > 0
                      ? static_cast<double>(max_local) /
                                (static_cast<double>(res.total) /
                                 static_cast<double>(comm.size())) -
                            1.0
                      : 0.0;
  return res;
}

}  // namespace pmps::harness
