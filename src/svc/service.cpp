#include "svc/service.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "net/fiber.hpp"

namespace pmps::svc {

std::uint64_t JobHandle::id() const {
  PMPS_CHECK(job_ != nullptr);
  return job_->id;
}

JobState JobHandle::state() const {
  PMPS_CHECK(job_ != nullptr);
  std::lock_guard lock(job_->mu);
  return job_->state;
}

void JobHandle::abort() {
  if (!job_) return;
  std::lock_guard lock(job_->mu);
  if (job_state_terminal(job_->state)) return;
  job_->abort_requested = true;
  if (job_->state == JobState::kRunning && job_->engine) {
    // Poisons only this job's mailboxes and rendezvous board; its fibers
    // unwind on RunAborted and the dispatcher finalizes it as kCancelled.
    job_->engine->abort_run("job " + std::to_string(job_->id) + " aborted");
  }
}

JobResult JobHandle::wait() {
  PMPS_CHECK(job_ != nullptr);
  std::unique_lock lock(job_->mu);
  job_->cv.wait(lock, [&] { return job_state_terminal(job_->state); });
  return JobResult{job_->state, job_->error, job_->report};
}

SortService::SortService(ServiceOptions opt)
    : opt_(opt),
      backend_(net::resolve_engine_backend(opt.backend)),
      queue_capacity_(
          static_cast<std::size_t>(std::max(1, opt.queue_capacity))) {
  PMPS_CHECK(opt_.max_in_flight >= 1);
  const int workers = opt_.workers > 0
                          ? opt_.workers
                          : net::engine_fiber_workers(
                                std::numeric_limits<int>::max());
  // Same substrate geometry a standalone engine of p ≥ workers would pick:
  // one mailbox shard per fiber worker, a single shard on threads.
  const int shards = backend_ == net::EngineBackend::kFibers ? workers : 1;
  substrate_ = std::make_shared<net::EngineSubstrate>(shards);
  if (backend_ == net::EngineBackend::kFibers) {
    // Eager pool creation: job engines find it via substrate()->pool(), and
    // the spin-up cost is paid once here instead of inside the first job.
    substrate_->ensure_pool(workers);
  }
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

SortService::~SortService() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
  dispatcher_.join();
}

JobHandle SortService::submit(JobSpec spec) {
  auto job = std::make_shared<detail::JobContext>();
  job->spec = std::move(spec);
  PMPS_CHECK(job->spec.num_pes >= 1);
  PMPS_CHECK(job->spec.program != nullptr);
  std::unique_lock lock(mu_);
  space_cv_.wait(lock,
                 [&] { return stop_ || queue_.size() < queue_capacity_; });
  PMPS_CHECK_MSG(!stop_, "submit on a stopping SortService");
  job->id = ++next_job_id_;
  queue_.push_back(job);
  ++stats_.submitted;
  cv_.notify_all();
  return JobHandle(job);
}

std::optional<JobHandle> SortService::try_submit(JobSpec spec) {
  auto job = std::make_shared<detail::JobContext>();
  job->spec = std::move(spec);
  PMPS_CHECK(job->spec.num_pes >= 1);
  PMPS_CHECK(job->spec.program != nullptr);
  std::lock_guard lock(mu_);
  PMPS_CHECK_MSG(!stop_, "try_submit on a stopping SortService");
  if (queue_.size() >= queue_capacity_) return std::nullopt;
  job->id = ++next_job_id_;
  queue_.push_back(job);
  ++stats_.submitted;
  cv_.notify_all();
  return JobHandle(job);
}

void SortService::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] {
    return stats_.completed + stats_.failed + stats_.cancelled ==
           stats_.submitted;
  });
}

void SortService::pause_admission() {
  std::lock_guard lock(mu_);
  paused_ = true;
}

void SortService::resume_admission() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

ServiceStats SortService::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void SortService::dispatcher_main() {
  std::unique_lock lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] {
      return stop_ || !done_.empty() ||
             (!paused_ && !queue_.empty() &&
              in_flight_ < opt_.max_in_flight);
    });

    // 1. Finalize everything that completed since the last wake. Done
    //    outside mu_ (finalize takes job->mu; never hold both).
    while (!done_.empty()) {
      auto job = std::move(done_.back());
      done_.pop_back();
      --in_flight_;
      lock.unlock();
      finalize(job);
      lock.lock();
    }

    if (stop_) {
      while (!queue_.empty()) {
        auto job = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        cancel_unadmitted(job, "service shutdown");
        lock.lock();
      }
      if (in_flight_ == 0 && done_.empty()) return;
      continue;  // in-flight jobs still draining
    }

    // 2. Batched admission: at this completion boundary, admit every
    //    queued job that fits under the in-flight ceiling in one step.
    std::vector<std::shared_ptr<detail::JobContext>> batch;
    while (!paused_ && !queue_.empty() &&
           in_flight_ < opt_.max_in_flight) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++in_flight_;
    }
    if (!batch.empty()) {
      ++stats_.admission_batches;
      stats_.peak_in_flight =
          std::max(stats_.peak_in_flight,
                   static_cast<std::int64_t>(in_flight_));
      space_cv_.notify_all();  // queue slots freed
      lock.unlock();
      int not_started = 0;
      for (auto& job : batch)
        if (!admit(job)) ++not_started;
      lock.lock();
      in_flight_ -= not_started;
    }
  }
}

bool SortService::admit(const std::shared_ptr<detail::JobContext>& job) {
  // job->mu is held across start_run: on the fiber path launch returns
  // immediately; on the synchronous fallback the whole run executes here,
  // which serialises jobs but keeps every visible guarantee.
  std::unique_lock lock(job->mu);
  if (job->abort_requested) {
    // Stats before state, as in finalize(): once result() returns, stats()
    // must already count this job.
    lock.unlock();
    {
      std::lock_guard slock(mu_);
      bump_terminal_stat_locked(JobState::kCancelled);
    }
    lock.lock();
    job->state = JobState::kCancelled;
    job->error = "aborted before admission";
    job->cv.notify_all();
    lock.unlock();
    idle_cv_.notify_all();
    return false;
  }
  job->engine = std::make_unique<net::Engine>(
      job->spec.num_pes, job->spec.machine, job->spec.seed, backend_,
      substrate_, job->id);
  job->state = JobState::kRunning;
  auto self = job;  // keeps the context alive until the completion hook ran
  job->engine->start_run(job->spec.program, [this, self] {
    // Runs on the worker thread that finished the job's last fiber (or on
    // this thread, on the synchronous fallback). Only hands the job to the
    // dispatcher — finalisation needs job->mu, which a fallback run still
    // holds here.
    std::lock_guard slock(mu_);
    done_.push_back(self);
    cv_.notify_all();
  });
  return true;
}

void SortService::finalize(const std::shared_ptr<detail::JobContext>& job) {
  // Reap the run first, holding job->mu only (never nested with mu_).
  std::optional<std::string> err;
  JobState final_state;
  net::RunReport report;
  {
    std::lock_guard lock(job->mu);
    err = job->engine->finish_run();
    report = job->engine->report();
    final_state = err ? (job->abort_requested ? JobState::kCancelled
                                              : JobState::kFailed)
                      : JobState::kDone;
    job->engine.reset();  // frees the per-job PeContexts; substrate stays
  }
  // Bump service stats BEFORE publishing the terminal state: a caller that
  // collected every JobHandle::result() must see stats() already counting
  // all of them (asserted by test_service's mixed-grid test).
  {
    std::lock_guard slock(mu_);
    bump_terminal_stat_locked(final_state);
  }
  {
    std::lock_guard lock(job->mu);
    if (err) job->error = *err;
    job->report = report;
    job->state = final_state;
    job->cv.notify_all();
  }
  idle_cv_.notify_all();
}

void SortService::cancel_unadmitted(
    const std::shared_ptr<detail::JobContext>& job, const char* why) {
  {
    std::lock_guard slock(mu_);
    bump_terminal_stat_locked(JobState::kCancelled);
  }
  {
    std::lock_guard lock(job->mu);
    job->state = JobState::kCancelled;
    job->error = why;
    job->cv.notify_all();
  }
  idle_cv_.notify_all();
}

void SortService::bump_terminal_stat_locked(JobState s) {
  switch (s) {
    case JobState::kDone: ++stats_.completed; break;
    case JobState::kFailed: ++stats_.failed; break;
    case JobState::kCancelled: ++stats_.cancelled; break;
    default: PMPS_CHECK_MSG(false, "non-terminal state in finalize"); break;
  }
}

}  // namespace pmps::svc
