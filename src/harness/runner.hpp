// One-call experiment runner: builds a simulated cluster, generates a
// workload, runs a sorting algorithm, verifies the output, and returns the
// phase-timed report. All benches and integration tests go through this.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "ams/ams_sort.hpp"
#include "baseline/block_bitonic.hpp"
#include "baseline/gv_sample_sort.hpp"
#include "baseline/hypercube_quicksort.hpp"
#include "baseline/single_level.hpp"
#include "common/types.hpp"
#include "em/block_file.hpp"
#include "em/memory_budget.hpp"
#include "harness/verify.hpp"
#include "harness/workloads.hpp"
#include "net/engine.hpp"
#include "net/network_model.hpp"
#include "rlm/rlm_sort.hpp"
#include "svc/service.hpp"

namespace pmps::harness {

enum class Algorithm {
  kAms,
  kRlm,
  kSampleSort1L,
  kMergesort1L,
  kMpSortLike,
  kGvSampleSort,
  kHypercubeQuicksort,
  kBlockBitonic,
};

inline std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kAms: return "AMS-sort";
    case Algorithm::kRlm: return "RLM-sort";
    case Algorithm::kSampleSort1L: return "sample-sort-1L";
    case Algorithm::kMergesort1L: return "mergesort-1L";
    case Algorithm::kMpSortLike: return "MP-sort-like";
    case Algorithm::kGvSampleSort: return "GV-sample-sort";
    case Algorithm::kHypercubeQuicksort: return "hypercube-quicksort";
    case Algorithm::kBlockBitonic: return "block-bitonic";
  }
  return "?";
}

/// Element type of a run: 8-byte keys (the paper's §7 experiments) or
/// 100-byte sort-benchmark records (the §7.3 MinuteSort regime).
enum class ElementKind { kU64, kRecord100 };

inline std::string_view element_name(ElementKind e) {
  switch (e) {
    case ElementKind::kU64: return "u64";
    case ElementKind::kRecord100: return "record100";
  }
  return "?";
}

struct RunConfig {
  int p = 16;
  std::int64_t n_per_pe = 1000;
  Workload workload = Workload::kUniform;
  /// Element type; kRecord100 ignores `workload` (records are always
  /// uniform-keyed with provenance payloads) and supports the kAms, kRlm
  /// and kGvSampleSort algorithms.
  ElementKind element = ElementKind::kU64;
  Algorithm algorithm = Algorithm::kAms;
  net::MachineParams machine = net::MachineParams::supermuc_like();
  std::uint64_t seed = 1;
  /// Execution backend (fibers by default; kThreads for differential runs).
  net::EngineBackend backend = net::EngineBackend::kAuto;

  /// Network fault injection: loss (+ ack/retransmit layer), jitter,
  /// stragglers — seeded from `seed`, so a run replays bit-identically.
  /// All-defaults (FaultConfig::any() == false) installs no model at all
  /// and the run is bit-identical to pre-fault-injection behavior.
  net::FaultConfig faults;

  /// Per-PE element-storage budget (0 = in-memory). Applies to the AMS,
  /// RLM, and GV sorters; spill counters are reported in RunResult::spill.
  em::MemoryBudget budget;

  ams::AmsConfig ams;            ///< used when algorithm == kAms
  rlm::RlmConfig rlm;            ///< used when algorithm == kRlm
  baseline::SingleLevelConfig single;  ///< used for the 1-level baselines
};

struct RunResult {
  net::RunReport report;
  SortCheck check;
  ams::AmsStats ams_stats;   ///< only for kAms
  em::SpillTotals spill;     ///< out-of-core I/O counters (all-zero in memory)

  double wall_time() const { return report.wall_time; }
  double phase(net::Phase p) const { return report.phase(p); }
  /// Reliability-layer totals (retransmits, drops, duplicates) summed over
  /// PEs; all zero on a clean run.
  const net::FaultTotals& faults() const { return report.faults; }
};

/// Self-contained state of one sort experiment's program: the config plus
/// everything rank 0 writes back. Held by shared_ptr so the program closure
/// can outlive the submitting frame (service jobs run asynchronously); the
/// spill counters live here too so budget.stats stays valid for the whole
/// run.
struct SortJobState {
  explicit SortJobState(const RunConfig& c) : cfg(c) {
    budget = cfg.budget;
    budget.stats = &spill_stats;
    // One spill file for the whole job: every PE's RunStore shares this
    // descriptor (slot ranges are allocated atomically, I/O is positional),
    // so budgeted sorts run at p far beyond RLIMIT_NOFILE. A caller that
    // already set shared_file keeps its own file.
    if (budget.enabled() && budget.shared_file == nullptr) {
      spill_file = std::make_unique<em::BlockFile>(budget.block_bytes);
      budget.shared_file = spill_file.get();
    }
  }
  RunConfig cfg;
  em::SpillStats spill_stats;
  std::unique_ptr<em::BlockFile> spill_file;  ///< one fd per job, all PEs
  em::MemoryBudget budget;
  std::mutex mu;
  SortCheck check;
  ams::AmsStats ams_stats;
};

namespace detail {

/// The Record100 variant of the sort program: same phases, same
/// verification, 100-byte elements. Only the sorters that are
/// element-type generic through the budgeted path run records.
inline void run_record_program(SortJobState& st, net::Comm& comm) {
  const RunConfig& cfg = st.cfg;
  auto data = make_record_workload(comm.rank(), cfg.p, cfg.n_per_pe, cfg.seed);
  const std::uint64_t in_hash =
      content_hash(std::span<const Record100>(data.data(), data.size()));
  const auto in_count = static_cast<std::int64_t>(data.size());

  ams::AmsStats stats;
  switch (cfg.algorithm) {
    case Algorithm::kAms: {
      auto a = cfg.ams;
      a.seed = cfg.seed;
      a.budget = st.budget;
      stats = ams::ams_sort(comm, data, a);
      break;
    }
    case Algorithm::kRlm: {
      auto r = cfg.rlm;
      r.seed = cfg.seed;
      r.budget = st.budget;
      rlm::rlm_sort(comm, data, r);
      break;
    }
    case Algorithm::kGvSampleSort: {
      baseline::GvConfig g;
      g.levels = cfg.ams.levels;
      g.seed = cfg.seed;
      g.budget = st.budget;
      baseline::gv_sample_sort(comm, data, g);
      break;
    }
    default:
      PMPS_CHECK_MSG(false,
                     "Record100 workloads support kAms/kRlm/kGvSampleSort");
  }

  auto check = verify_sorted_output(
      comm, std::span<const Record100>(data.data(), data.size()), in_hash,
      in_count);
  if (comm.rank() == 0) {
    std::lock_guard lock(st.mu);
    st.check = check;
    st.ams_stats = std::move(stats);
  }
}

}  // namespace detail

/// The per-rank SPMD program of a sort experiment — shared verbatim by the
/// serial runner and the service path, so a job's execution is the same
/// code in both.
inline std::function<void(net::Comm&)> make_sort_program(
    std::shared_ptr<SortJobState> st) {
  return [st = std::move(st)](net::Comm& comm) {
    const RunConfig& cfg = st->cfg;
    if (cfg.element == ElementKind::kRecord100) {
      detail::run_record_program(*st, comm);
      return;
    }
    auto data = make_workload(cfg.workload, comm.rank(), cfg.p, cfg.n_per_pe,
                              cfg.seed);
    const std::uint64_t in_hash =
        content_hash(std::span<const std::uint64_t>(data.data(), data.size()));
    const auto in_count = static_cast<std::int64_t>(data.size());

    ams::AmsStats stats;
    switch (cfg.algorithm) {
      case Algorithm::kAms: {
        auto a = cfg.ams;
        a.seed = cfg.seed;
        a.budget = st->budget;
        stats = ams::ams_sort(comm, data, a);
        break;
      }
      case Algorithm::kRlm: {
        auto r = cfg.rlm;
        r.seed = cfg.seed;
        r.budget = st->budget;
        rlm::rlm_sort(comm, data, r);
        break;
      }
      case Algorithm::kSampleSort1L:
        baseline::sample_sort_1l(comm, data, cfg.single);
        break;
      case Algorithm::kMergesort1L:
        baseline::mergesort_1l(comm, data, cfg.single);
        break;
      case Algorithm::kMpSortLike:
        baseline::mpsort_like(comm, data, cfg.single);
        break;
      case Algorithm::kGvSampleSort: {
        baseline::GvConfig g;
        g.levels = cfg.ams.levels;
        g.seed = cfg.seed;
        g.budget = st->budget;
        baseline::gv_sample_sort(comm, data, g);
        break;
      }
      case Algorithm::kHypercubeQuicksort: {
        baseline::HypercubeConfig h;
        h.seed = cfg.seed;
        baseline::hypercube_quicksort(comm, data, h);
        break;
      }
      case Algorithm::kBlockBitonic:
        baseline::block_bitonic_sort(comm, data);
        break;
    }

    auto check = verify_sorted_output(
        comm, std::span<const std::uint64_t>(data.data(), data.size()),
        in_hash, in_count);
    if (comm.rank() == 0) {
      std::lock_guard lock(st->mu);
      st->check = check;
      st->ams_stats = std::move(stats);
    }
  };
}

/// Assembles a RunResult from a finished experiment's state + report.
inline RunResult collect_sort_result(const SortJobState& st,
                                     net::RunReport report) {
  RunResult result;
  result.report = std::move(report);
  result.check = st.check;
  result.ams_stats = st.ams_stats;
  result.spill = st.spill_stats.totals();
  return result;
}

/// Runs one experiment end to end on a fresh engine.
inline RunResult run_sort_experiment(const RunConfig& cfg) {
  net::MachineParams machine = cfg.machine;
  if (cfg.faults.any()) machine.model = cfg.faults.build(cfg.p, cfg.seed);
  net::Engine engine(cfg.p, machine, cfg.seed, cfg.backend);
  auto st = std::make_shared<SortJobState>(cfg);
  engine.run(make_sort_program(st));
  return collect_sort_result(*st, engine.report());
}

/// A sort experiment submitted to a SortService: the service-side handle
/// plus the program state the result is assembled from.
struct SortJob {
  svc::JobHandle handle;
  std::shared_ptr<SortJobState> state;

  /// Waits for the job and returns its result, mirroring
  /// run_sort_experiment's contract: a job whose network model exhausted
  /// its retry budget throws NetworkError with the same message the serial
  /// run would have thrown. Throws runtime_error for a cancelled job.
  RunResult result() {
    svc::JobResult r = handle.wait();
    if (r.state == svc::JobState::kFailed) throw net::NetworkError(r.error);
    if (r.state == svc::JobState::kCancelled)
      throw std::runtime_error("sort job cancelled: " + r.error);
    return collect_sort_result(*state, std::move(r.report));
  }
};

/// Submits one experiment as a service job — the exact program and machine
/// run_sort_experiment(cfg) would execute, so the job's output, virtual
/// times and fault totals are bit-identical to the serial call. The
/// config's `backend` field is ignored (the service's backend governs).
inline SortJob submit_sort_experiment(svc::SortService& service,
                                      const RunConfig& cfg) {
  net::MachineParams machine = cfg.machine;
  if (cfg.faults.any()) machine.model = cfg.faults.build(cfg.p, cfg.seed);
  auto st = std::make_shared<SortJobState>(cfg);
  svc::JobSpec spec;
  spec.num_pes = cfg.p;
  spec.machine = machine;
  spec.seed = cfg.seed;
  spec.program = make_sort_program(st);
  spec.name = std::string(algorithm_name(cfg.algorithm));
  SortJob job;
  job.state = std::move(st);
  job.handle = service.submit(std::move(spec));
  return job;
}

}  // namespace pmps::harness
