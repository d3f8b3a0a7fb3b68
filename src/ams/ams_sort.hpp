// AMS-sort: Adaptive Multi-level Sample sort (paper §6) — the paper's main
// contribution.
//
// Per level, on the current communicator of p PEs split into r groups:
//   1. splitter selection — draw a random sample of a·b·r elements
//      (a = oversampling, b = overpartitioning factor), sort it with the
//      fast work-inefficient algorithm (§4.2) and take b·r−1 equidistant
//      tagged splitters;
//   2. bucket processing — partition the local data into b·r buckets with
//      the branchless classifier (+ Appendix D tie breaking), allreduce the
//      bucket sizes, and assign consecutive bucket ranges to the r groups
//      with the optimal scanning/binary-search algorithm (Lemma 1,
//      Appendix C), which bounds the group imbalance;
//   3. data delivery — ship the per-group pieces with a §4.3 delivery
//      algorithm (O(r) startups per PE);
//   4. recurse into the group's sub-communicator; a single-PE group sorts
//      locally (base case).
//
// Overpartitioning (b > 1) is what reduces the sample size needed for
// imbalance ε from O(1/ε²) to O(1/ε) — Lemma 2. Phases are timed exactly
// like the paper's implementation (§7.1): barrier-separated, accumulated
// over levels.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ams/level_config.hpp"
#include "coll/collectives.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "common/types.hpp"
#include "delivery/delivery.hpp"
#include "em/external_merge.hpp"
#include "fastsort/fast_rank_sort.hpp"
#include "grouping/bucket_grouping.hpp"
#include "net/comm.hpp"
#include "seq/partition.hpp"
#include "seq/small_sort.hpp"

namespace pmps::ams {

using net::Comm;
using net::Phase;

struct AmsConfig {
  /// Group counts per level (Π = p). Empty → level_group_counts(p, levels).
  std::vector<int> group_counts;
  int levels = 2;  ///< used only when group_counts is empty

  double oversampling_a = 0;  ///< a; 0 → 1.6·log10(n) as in §7.2
  int overpartition_b = 16;   ///< b; §7.2 default

  delivery::Algo delivery = delivery::Algo::kSimple;  ///< §7.1 default
  bool parallel_grouping = false;  ///< Appendix C parallel search
  std::uint64_t seed = 1;

  /// Out-of-core switch (docs/EM.md): with a positive budget, stages whose
  /// element payload exceeds it spill to run blocks on disk — delivered
  /// pieces land in an em::RunStore and base-case local sorts become
  /// run formation + external merge. Virtual time is identical to the
  /// in-memory path, and so is the seeded output for unique-by-value keys
  /// (value-identical otherwise; see memory_budget.hpp).
  em::MemoryBudget budget;
};

/// Per-run diagnostics (identical on every PE).
struct AmsStats {
  std::vector<std::int64_t> sample_sizes;  ///< per level, global
  std::vector<std::int64_t> max_group_load;  ///< per level: optimal L
  std::vector<double> level_imbalance;  ///< per level: L / (n/r) − 1
};

namespace detail {

// One AMS level. The PE's current partition lives in exactly one of two
// places: `data` (in-memory mode) or `*store` (spilled mode — content is
// the runs concatenated, established by the previous level's delivery).
// The mode is re-decided per level from the budget: a partition that
// shrank below the budget is read back once and continues in memory; one
// that exceeds it is classified with the streaming two-pass (count then
// scatter) over its blocks and delivered straight from the store, so a
// spilled level never materialises the full partition (docs/EM.md). Both
// modes draw the same samples, classify with the same tags, charge the
// same virtual time and send byte-identical messages — only host-side
// storage differs.
template <typename T, typename Less>
void ams_level(Comm& comm, std::vector<T>& data,
               std::unique_ptr<em::RunStore<T>>& store, const AmsConfig& cfg,
               const std::vector<int>& rs, std::size_t level, Less less,
               AmsStats* stats) {
  const auto& machine = comm.machine();

  const std::int64_t n_local =
      store ? store->total() : static_cast<std::int64_t>(data.size());
  const bool spill =
      cfg.budget.should_spill(n_local * static_cast<std::int64_t>(sizeof(T)));
  if (store && !spill) {
    data = store->take_all();
    store.reset();
  }

  if (comm.size() == 1 || level >= rs.size()) {
    // Base case: sequential sort of the local data. Over budget it runs as
    // run formation + external merge — same result, same virtual-time
    // charge (spilling is host-side storage only, docs/EM.md).
    coll::barrier(comm);
    comm.set_phase(Phase::kLocalSort);
    if (store) {
      data = em::external_sort_store(*store, cfg.budget, less);
      store.reset();
    } else {
      em::local_sort_or_spill(data, cfg.budget, less);
    }
    comm.charge(machine.sort_cost(n_local));
    comm.set_phase(Phase::kOther);
    return;
  }

  const int p = comm.size();
  const int r = rs[level];
  PMPS_CHECK(r >= 2 && p % r == 0);

  // --- phase 1: splitter selection -----------------------------------------
  coll::barrier(comm);
  comm.set_phase(Phase::kSplitterSelection);

  const std::int64_t n_total = coll::allreduce_add_one(comm, n_local);
  const int b = std::max(1, cfg.overpartition_b);
  const double a =
      cfg.oversampling_a > 0
          ? cfg.oversampling_a
          : std::max(1.0, 1.6 * std::log10(std::max<double>(
                               static_cast<double>(n_total), 10.0)));
  const std::int64_t buckets_wanted = static_cast<std::int64_t>(b) * r;
  // Global sample size a·b·r, at least one sample per splitter; tiny inputs
  // degrade gracefully to fewer buckets (never more buckets than samples).
  std::int64_t sample_total = std::max<std::int64_t>(
      buckets_wanted,
      static_cast<std::int64_t>(std::ceil(a * static_cast<double>(buckets_wanted))));
  sample_total = std::min(sample_total, n_total);

  // This PE's share of the sample, drawn uniformly from the local data
  // (with replacement; the local shares follow the PE's data share).
  std::vector<std::int64_t> share{0};
  if (n_local > 0) {
    // Proportional allocation via a deterministic split of sample_total by
    // cumulative data sizes: PE gets chunk proportional to its local count.
    const std::int64_t my_begin = coll::exscan_add_one(comm, n_local);
    const std::int64_t lo =
        my_begin * sample_total / std::max<std::int64_t>(n_total, 1);
    const std::int64_t hi =
        (my_begin + n_local) * sample_total /
        std::max<std::int64_t>(n_total, 1);
    share[0] = hi - lo;
  } else {
    (void)coll::exscan_add_one(comm, 0);
  }
  std::vector<T> sample;
  sample.reserve(static_cast<std::size_t>(share[0]));
  for (std::int64_t i = 0; i < share[0]; ++i) {
    // Same rng stream, same positions in both modes — a spilled partition's
    // content order is exactly the in-memory concatenation order.
    const auto pos = comm.rng().bounded(static_cast<std::uint64_t>(n_local));
    sample.push_back(store ? store->read_element(static_cast<std::int64_t>(pos))
                           : data[static_cast<std::size_t>(pos)]);
  }
  comm.charge(machine.copy_cost(sample.size() * sizeof(T)));

  // Sort the sample with the fast work-inefficient algorithm and extract
  // b·r−1 equidistant tagged splitters.
  const std::int64_t S = coll::allreduce_add_one(
      comm, static_cast<std::int64_t>(sample.size()));
  const std::int64_t num_buckets =
      std::max<std::int64_t>(1, std::min<std::int64_t>(buckets_wanted, S));
  std::vector<std::int64_t> want;
  want.reserve(static_cast<std::size_t>(num_buckets - 1));
  for (std::int64_t j = 1; j < num_buckets; ++j) {
    // Equidistant ranks; distinct because S ≥ num_buckets.
    want.push_back(j * S / num_buckets);
  }
  std::vector<TaggedKey<T>> splitters;
  if (!want.empty()) {
    splitters = fastsort::fast_rank_select(
        comm, std::span<const T>(sample.data(), sample.size()), want, less);
  }
  if (stats) stats->sample_sizes.push_back(S);

  // --- phase 2: bucket processing (partition + grouping) -------------------
  coll::barrier(comm);
  comm.set_phase(Phase::kBucketProcessing);

  seq::PartitionResult<T> part;                 // in-memory mode
  std::unique_ptr<em::RunStore<T>> part_store;  // spilled mode
  std::vector<std::int64_t> bucket_sizes;
  if (!splitters.empty()) {
    seq::BucketClassifier<T, Less> classifier(std::move(splitters), less);
    if (!spill) {
      part = seq::partition_into_buckets(
          std::span<const T>(data.data(), data.size()), comm.rank(),
          classifier);
      bucket_sizes = part.sizes;
    } else {
      // Streaming two-pass classification over the partition's blocks
      // (docs/EM.md): pass 1 counts elements per bucket, pass 2 re-reads
      // and scatters each element into its bucket's run — one RunWriter
      // (one block buffer) per bucket, runs created in bucket order, so
      // the partition store's content is the exact bucket-major stable
      // order partition_into_buckets produces. Peak memory: one source
      // block plus num_buckets writer blocks, never the full partition.
      bucket_sizes.assign(static_cast<std::size_t>(num_buckets), 0);
      const std::span<const T> vec(data.data(), data.size());
      auto each_block = [&](auto&& emit) {
        if (!store) {
          seq::classify_block(vec, comm.rank(), 0, classifier, emit);
          return;
        }
        std::vector<T> buf = store->acquire_buffer();
        const std::int64_t epb = store->elems_per_block();
        for (std::int64_t off = 0; off < n_local; off += epb) {
          const std::int64_t len = std::min(epb, n_local - off);
          std::span<T> chunk(buf.data(), static_cast<std::size_t>(len));
          store->read_range(off, chunk);
          seq::classify_block(std::span<const T>(chunk), comm.rank(), off,
                              classifier, emit);
        }
        store->release_buffer(std::move(buf));
      };
      each_block([&](std::int32_t b, const T&) {
        ++bucket_sizes[static_cast<std::size_t>(b)];
      });
      part_store = std::make_unique<em::RunStore<T>>(cfg.budget);
      {
        std::vector<em::RunWriter<T>> writers;
        writers.reserve(static_cast<std::size_t>(num_buckets));
        for (std::int64_t bkt = 0; bkt < num_buckets; ++bkt)
          writers.emplace_back(*part_store);
        each_block([&](std::int32_t b, const T& v) {
          writers[static_cast<std::size_t>(b)].push(v);
        });
        for (auto& w : writers) w.finish();
      }
      if (store) store.reset();
      else std::vector<T>().swap(data);
    }
    comm.charge(machine.partition_cost(n_local, num_buckets));
  } else {
    // Degenerate single bucket (empty or tiny input).
    bucket_sizes = {n_local};
    if (!spill) {
      part.elements = data;
      part.sizes = bucket_sizes;
      part.offsets = {0};
    } else if (store) {
      part_store = std::move(store);  // identity partition
    } else {
      part_store = std::make_unique<em::RunStore<T>>(cfg.budget);
      part_store->append_run(std::span<const T>(data.data(), data.size()));
      std::vector<T>().swap(data);
    }
  }

  const auto global_buckets = coll::allreduce_add(comm, bucket_sizes);
  grouping::GroupingResult grouping =
      cfg.parallel_grouping
          ? grouping::group_buckets_parallel(
                comm,
                std::span<const std::int64_t>(global_buckets.data(),
                                              global_buckets.size()),
                r)
          : grouping::group_buckets_optimal(
                std::span<const std::int64_t>(global_buckets.data(),
                                              global_buckets.size()),
                r);
  if (!cfg.parallel_grouping) {
    // Sequential scanning: every PE does the identical O(B log B) search.
    comm.charge(machine.compare_cost_n(
        static_cast<std::int64_t>(grouping.scans) * num_buckets));
  }
  if (stats) {
    stats->max_group_load.push_back(grouping.max_load);
    stats->level_imbalance.push_back(
        static_cast<double>(grouping.max_load) /
            (static_cast<double>(n_total) / static_cast<double>(r)) -
        1.0);
  }

  // Piece sizes per group: buckets are contiguous in `part.elements` and
  // groups cover consecutive bucket ranges.
  std::vector<std::int64_t> piece_sizes(static_cast<std::size_t>(r), 0);
  for (std::int64_t bkt = 0; bkt < num_buckets; ++bkt) {
    piece_sizes[static_cast<std::size_t>(grouping.group_of(bkt))] +=
        bucket_sizes[static_cast<std::size_t>(bkt)];
  }

  // --- phase 3: data delivery ----------------------------------------------
  coll::barrier(comm);
  comm.set_phase(Phase::kDataDelivery);
  if (!spill) {
    // `data` becomes the received runs, concatenated (the pre-partition
    // copy is released first, dropping the phase peak from ~3× to ~2× the
    // local data).
    std::vector<T>().swap(data);
    data = delivery::deliver_flat(comm, part.elements, piece_sizes,
                                  cfg.delivery, cfg.seed + level, cfg.budget);
  } else {
    // Spill-to-spill: the plan is materialised block-by-block from the
    // partition store and incoming pieces land as runs of the next level's
    // store — identical placements, identical messages, identical virtual
    // time; the partition is never resident in full.
    auto next = std::make_unique<em::RunStore<T>>(cfg.budget);
    delivery::deliver_store_into(comm, *part_store, piece_sizes, cfg.delivery,
                                 cfg.seed + level, em::run_sink(*next));
    part_store.reset();
    store = std::move(next);
  }
  comm.set_phase(Phase::kOther);

  // --- recurse --------------------------------------------------------------
  Comm sub = comm.split_consecutive(r);
  ams_level(sub, data, store, cfg, rs, level + 1, less, stats);
}

}  // namespace detail

/// Sorts `data` (distributed over the communicator) in place: afterwards
/// every PE's data is sorted and no element on PE i compares greater than
/// any element on PE i+1. Output sizes are balanced to (1+ε)·n/p with the
/// ε achieved by overpartitioning (see AmsStats::level_imbalance).
template <typename T, typename Less = std::less<T>>
AmsStats ams_sort(Comm& comm, std::vector<T>& data, const AmsConfig& cfg = {},
                  Less less = {}) {
  AmsStats stats;
  std::vector<int> rs = cfg.group_counts;
  if (rs.empty())
    rs = level_group_counts(comm.size(), cfg.levels,
                            comm.machine().pes_per_node);
  std::int64_t prod = 1;
  for (int r : rs) prod *= r;
  PMPS_CHECK_MSG(prod == comm.size(), "group counts must multiply to p");
  std::unique_ptr<em::RunStore<T>> store;  // spilled-partition carrier
  detail::ams_level(comm, data, store, cfg, rs, 0, less, &stats);
  PMPS_ASSERT(store == nullptr);  // base case always materialises the output
  return stats;
}

}  // namespace pmps::ams
