// Memory budget and spill accounting for the out-of-core subsystem.
//
// The paper positions AMS-sort against sort-benchmark entries (TritonSort,
// Baidu-Sort MinuteSort — §3, §7.3) whose defining constraint is data far
// larger than RAM. `src/em/` opens that workload for this reproduction: a
// per-PE MemoryBudget caps how many bytes of element storage a sorter may
// keep resident; beyond it, data spills to fixed-size blocks in a per-PE
// temporary file (block_file.hpp / run_store.hpp) and is merged back with a
// block-granular external multiway merge (external_merge.hpp).
//
// Spilling is strictly *host-side*: the virtual-time machine model (§2.1)
// never sees it, the same messages flow in the same order, and seeded
// results are bit-identical to the in-memory path for unique-by-value keys
// (the harness's uint64 workloads; duplicate-key *payload* types may order
// equal keys differently because base-case chunk sorts are unstable —
// output is still value-identical). What changes is where a PE's bytes
// live between communication phases — which is exactly the out-of-core
// structure the sort-benchmark systems are built around. See docs/EM.md
// for the design and the determinism argument.

#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

namespace pmps::em {

class BlockFile;

/// Aggregated spill counters — a plain-value snapshot of SpillStats,
/// suitable for reports and bench JSON.
struct SpillTotals {
  std::int64_t runs_written = 0;    ///< sorted runs formed
  std::int64_t blocks_written = 0;  ///< block-file writes
  std::int64_t blocks_read = 0;     ///< block-file reads
  std::int64_t bytes_written = 0;   ///< bytes spilled to disk
  std::int64_t bytes_read = 0;      ///< bytes read back from disk
  std::int64_t external_sorts = 0;  ///< local sorts that went out of core
  std::int64_t external_merges = 0; ///< block-granular k-way merges performed
  std::int64_t merge_passes = 0;    ///< extra fan-in-bounded merge passes

  // Always zero: kept only for the benchmark (see the end of this file).
  std::int64_t writes_behind = 0;
  std::int64_t write_coalesced = 0;
  std::int64_t prefetch_hits = 0;
  std::int64_t prefetch_misses = 0;
  double io_wait_sec = 0;
};

/// Host-side spill counters shared by every PE of a run (PE fibers may
/// execute on different worker threads, hence the atomics). Attach via
/// MemoryBudget::stats; all RunStore / external-merge I/O is counted here.
class SpillStats {
 public:
  void count_run() { runs_written.fetch_add(1, std::memory_order_relaxed); }
  void count_write(std::int64_t bytes) {
    blocks_written.fetch_add(1, std::memory_order_relaxed);
    bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  }
  void count_read(std::int64_t bytes) {
    blocks_read.fetch_add(1, std::memory_order_relaxed);
    bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  }
  void count_external_sort() {
    external_sorts.fetch_add(1, std::memory_order_relaxed);
  }
  void count_external_merge() {
    external_merges.fetch_add(1, std::memory_order_relaxed);
  }
  void count_merge_pass() {
    merge_passes.fetch_add(1, std::memory_order_relaxed);
  }

  /// Plain-value copy of the counters.
  SpillTotals totals() const {
    SpillTotals t;
    t.runs_written = runs_written.load(std::memory_order_relaxed);
    t.blocks_written = blocks_written.load(std::memory_order_relaxed);
    t.blocks_read = blocks_read.load(std::memory_order_relaxed);
    t.bytes_written = bytes_written.load(std::memory_order_relaxed);
    t.bytes_read = bytes_read.load(std::memory_order_relaxed);
    t.external_sorts = external_sorts.load(std::memory_order_relaxed);
    t.external_merges = external_merges.load(std::memory_order_relaxed);
    t.merge_passes = merge_passes.load(std::memory_order_relaxed);
    return t;
  }

  std::atomic<std::int64_t> runs_written{0};
  std::atomic<std::int64_t> blocks_written{0};
  std::atomic<std::int64_t> blocks_read{0};
  std::atomic<std::int64_t> bytes_written{0};
  std::atomic<std::int64_t> bytes_read{0};
  std::atomic<std::int64_t> external_sorts{0};
  std::atomic<std::int64_t> external_merges{0};
  std::atomic<std::int64_t> merge_passes{0};
};

/// Per-PE element-storage budget. The default (bytes == 0) means unlimited:
/// every sorter runs its unchanged in-memory path. A positive budget makes
/// the AMS/RLM/GV sorters spill whenever a stage's element payload exceeds
/// it: delivered pieces land directly in run blocks and base-case local
/// sorts become run-formation + external merge. The decision is per PE and
/// per stage, purely host-side — PEs never need to agree on it because both
/// paths exchange identical messages.
struct MemoryBudget {
  std::int64_t bytes = 0;             ///< 0 = unlimited (in-memory paths)
  std::int64_t block_bytes = 1 << 16; ///< spill-block size (64 KiB default)
  SpillStats* stats = nullptr;        ///< optional shared counters

  /// Optional engine-wide spill file shared by every RunStore of a run.
  /// When null each store opens its own tmpfile — one descriptor per
  /// spilling PE, which exhausts RLIMIT_NOFILE at large p; the harness
  /// therefore wires one shared BlockFile per job (see SortJobState). The
  /// file must have been created with this budget's block_bytes.
  BlockFile* shared_file = nullptr;

  /// Never read: kept only for the benchmark (see the end of this file).
  void* io = nullptr;

  bool enabled() const { return bytes > 0; }

  /// True when holding `payload_bytes` of elements would exceed the budget.
  bool should_spill(std::int64_t payload_bytes) const {
    return enabled() && payload_bytes > bytes;
  }
};

// ---------------------------------------------------------------------------
// Kept only for the benchmark. sortbench/sortbench.cpp still names the
// asynchronous spill I/O mode that was removed; spill I/O is synchronous
// (docs/EM.md). Nothing in the library reads MemoryBudget::io, the five
// overlap fields of SpillTotals stay zero, and no IoExecutor is ever built.
// Delete this block together with those names in sortbench.
enum class IoMode { kSync, kAsync };
inline IoMode io_mode_from_env() { return IoMode::kSync; }
inline int io_threads_from_env() { return 0; }
class IoExecutor {
 public:
  IoExecutor(int /*threads*/, IoMode /*mode*/) {
    throw std::logic_error("asynchronous spill I/O was removed");
  }
};

}  // namespace pmps::em
