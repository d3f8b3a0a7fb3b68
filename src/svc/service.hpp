// SortService: the persistent multi-job engine behind sort-as-a-service.
//
// The paper frames massively parallel sorting as a building block invoked
// many times inside larger applications (§1), and the MinuteSort regime of
// §7.3 is explicitly a sustained-service metric. A one-shot Engine models
// neither: every invocation pays worker-thread spin-up, stack-pool
// warm-up and pool population, and runs strictly serially. SortService
// keeps one EngineSubstrate (fiber worker pool + mailbox node/payload pool
// shards) warm for its whole lifetime and runs many independent sort jobs
// interleaved on it.
//
// Isolation: each job gets its *own* Engine — own virtual clocks, RNG
// streams, statistics, rendezvous board, NetworkModel — constructed on the
// shared substrate with the job id folded into its Comm namespace, so
// concurrent jobs' mailbox keys can never match each other. Virtual time
// depends only on (machine, seed, program); a job's outputs and clocks are
// bit-identical to a standalone one-shot run (tests/test_service.cpp).
//
// Admission control: a bounded queue (submit blocks while full) feeds a
// dispatcher thread that admits queued jobs in *batches* — whenever
// capacity frees at a job-completion boundary it admits as many queued
// jobs as fit under max_in_flight in one step, rather than trickling them
// one per completion. Per-job abort poisons only that job's mailboxes and
// unwinds only that job's fibers.
//
// Design: docs/DESIGN.md §12.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "svc/job.hpp"

namespace pmps::svc {

struct ServiceOptions {
  /// Jobs running concurrently (admission ceiling). More in-flight jobs
  /// hide each other's serialisation bubbles (tail PEs, rank-0 phases) on
  /// the shared workers; past the host's core count the returns flatten.
  int max_in_flight = 4;
  /// Admission-queue bound; submit() blocks while the queue is full —
  /// the service's back-pressure on producers.
  int queue_capacity = 64;
  /// Worker threads (and mailbox shards) of the shared substrate;
  /// 0 = the engine default (PMPS_FIBER_WORKERS or hardware concurrency).
  int workers = 0;
  /// Execution backend. On kThreads (or where fibers are unsupported) the
  /// service still works but runs jobs serially on the dispatcher thread —
  /// admission, isolation and results are identical, only overlap is lost.
  net::EngineBackend backend = net::EngineBackend::kAuto;
};

/// Lifetime counters of a service (all monotonic; read via stats()).
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;  ///< terminal kDone
  std::int64_t failed = 0;     ///< terminal kFailed
  std::int64_t cancelled = 0;  ///< terminal kCancelled
  /// Dispatcher wakes that admitted ≥ 1 job — with batched admission this
  /// stays well below `submitted` under load (many jobs per boundary).
  std::int64_t admission_batches = 0;
  std::int64_t peak_in_flight = 0;
};

class SortService {
 public:
  explicit SortService(ServiceOptions opt = {});

  /// Stops admission, cancels still-queued jobs, waits for in-flight jobs
  /// to finish, and tears the substrate down.
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Enqueues a job; blocks while the admission queue is full. Thread-safe.
  JobHandle submit(JobSpec spec);

  /// Non-blocking submit: nullopt when the queue is full.
  std::optional<JobHandle> try_submit(JobSpec spec);

  /// Blocks until every job submitted so far reached a terminal state.
  void wait_idle();

  /// Holds back admission of queued jobs (running jobs are unaffected).
  /// pause → submit N → resume admits all N in one batch: the deterministic
  /// way to provoke a full admission batch in tests.
  void pause_admission();
  void resume_admission();

  ServiceStats stats() const;
  /// The resolved execution backend (kFibers unless forced/unsupported).
  net::EngineBackend backend() const { return backend_; }
  /// True when jobs actually overlap (fiber backend); false on the serial
  /// dispatcher fallback.
  bool concurrent() const {
    return backend_ == net::EngineBackend::kFibers;
  }
  const std::shared_ptr<net::EngineSubstrate>& substrate() const {
    return substrate_;
  }

 private:
  void dispatcher_main();
  /// Starts `job` on a fresh engine (true) or resolves a pre-admission
  /// cancellation (false — the in-flight slot is returned by the caller).
  bool admit(const std::shared_ptr<detail::JobContext>& job);
  /// Collects a completed run: finish_run, report, terminal state, wakeups.
  void finalize(const std::shared_ptr<detail::JobContext>& job);
  /// Marks a never-admitted job cancelled (shutdown path).
  void cancel_unadmitted(const std::shared_ptr<detail::JobContext>& job,
                         const char* why);
  void bump_terminal_stat_locked(JobState s);

  ServiceOptions opt_;
  net::EngineBackend backend_;
  std::shared_ptr<net::EngineSubstrate> substrate_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< dispatcher wakeups
  std::condition_variable space_cv_;  ///< submitters waiting for queue space
  std::condition_variable idle_cv_;   ///< wait_idle waiters
  /// Bounded FIFO admission queue of at most queue_capacity_ (≥ 1) jobs,
  /// guarded by mu_ like the in-flight accounting admission reads.
  std::deque<std::shared_ptr<detail::JobContext>> queue_;
  std::size_t queue_capacity_;
  std::vector<std::shared_ptr<detail::JobContext>> done_;  ///< awaiting finalize
  int in_flight_ = 0;
  bool paused_ = false;
  bool stop_ = false;
  std::uint64_t next_job_id_ = 0;
  ServiceStats stats_;

  std::thread dispatcher_;  ///< last member: joined before the rest dies
};

}  // namespace pmps::svc
