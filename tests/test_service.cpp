// Tests for the sort service (src/svc/): per-job isolation and bit-exact
// determinism vs serial one-shot runs, admission control and batching,
// per-job abort, and the engine's start_run/finish_run split the service
// is built on.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "net/comm.hpp"
#include "net/engine.hpp"
#include "net/fiber.hpp"
#include "svc/service.hpp"

namespace pmps {
namespace {

using harness::Algorithm;
using harness::RunConfig;
using harness::RunResult;
using svc::JobState;

/// The acceptance-criteria grid: ≥ 8 jobs mixing algorithms (AMS/RLM/GV),
/// PE counts and seeds, including one job with a (recoverable) fault model.
std::vector<RunConfig> mixed_grid() {
  std::vector<RunConfig> grid;
  auto add = [&](Algorithm alg, int p, std::uint64_t seed) {
    RunConfig cfg;
    cfg.algorithm = alg;
    cfg.p = p;
    cfg.n_per_pe = 200;
    cfg.seed = seed;
    grid.push_back(cfg);
    return grid.size() - 1;
  };
  add(Algorithm::kAms, 64, 7);
  add(Algorithm::kRlm, 32, 11);
  add(Algorithm::kGvSampleSort, 16, 13);
  add(Algorithm::kAms, 128, 17);
  add(Algorithm::kRlm, 64, 19);
  add(Algorithm::kGvSampleSort, 32, 23);
  add(Algorithm::kHypercubeQuicksort, 64, 29);
  const std::size_t faulted = add(Algorithm::kAms, 32, 31);
  grid[faulted].faults.loss = 0.02;  // recoverable: retries always succeed
  return grid;
}

void expect_identical(const RunResult& serial, const RunResult& via_service,
                      const char* label) {
  // Bit-exact equality, not near-equality: virtual time must not depend on
  // host scheduling or on what ran concurrently.
  EXPECT_EQ(serial.report.wall_time, via_service.report.wall_time) << label;
  for (int ph = 0; ph < net::kNumPhases; ++ph)
    EXPECT_EQ(serial.report.phase_max[ph], via_service.report.phase_max[ph])
        << label << " phase " << ph;
  EXPECT_EQ(serial.report.total_bytes_sent, via_service.report.total_bytes_sent)
      << label;
  EXPECT_EQ(serial.report.max_messages_sent,
            via_service.report.max_messages_sent)
      << label;
  EXPECT_EQ(serial.report.faults, via_service.report.faults) << label;
  EXPECT_EQ(serial.check.globally_ordered, via_service.check.globally_ordered)
      << label;
  EXPECT_EQ(serial.check.permutation_ok, via_service.check.permutation_ok)
      << label;
  EXPECT_EQ(serial.check.total, via_service.check.total) << label;
  EXPECT_TRUE(via_service.check.ok()) << label;
}

TEST(SortService, MixedGridBitIdenticalToSerial) {
  const std::vector<RunConfig> grid = mixed_grid();

  std::vector<RunResult> serial;
  serial.reserve(grid.size());
  for (const RunConfig& cfg : grid)
    serial.push_back(harness::run_sort_experiment(cfg));

  svc::ServiceOptions opt;
  opt.max_in_flight = 4;
  svc::SortService service(opt);
  std::vector<harness::SortJob> jobs;
  jobs.reserve(grid.size());
  for (const RunConfig& cfg : grid)
    jobs.push_back(harness::submit_sort_experiment(service, cfg));

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string label =
        std::string(harness::algorithm_name(grid[i].algorithm)) + " p=" +
        std::to_string(grid[i].p) + " seed=" + std::to_string(grid[i].seed);
    expect_identical(serial[i], jobs[i].result(), label.c_str());
  }

  const svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.submitted, static_cast<std::int64_t>(grid.size()));
  EXPECT_EQ(st.completed, static_cast<std::int64_t>(grid.size()));
  EXPECT_EQ(st.failed, 0);
  if (service.concurrent()) {
    EXPECT_GT(st.peak_in_flight, 1);
  }
}

TEST(SortService, AbortedJobLeavesSiblingsUnharmed) {
  if (!net::fibers_supported()) GTEST_SKIP() << "no fiber backend";

  RunConfig sibling;
  sibling.algorithm = Algorithm::kAms;
  sibling.p = 64;
  sibling.n_per_pe = 500;
  sibling.seed = 41;
  RunConfig sibling2 = sibling;
  sibling2.algorithm = Algorithm::kRlm;
  sibling2.p = 32;
  sibling2.seed = 43;
  const RunResult serial1 = harness::run_sort_experiment(sibling);
  const RunResult serial2 = harness::run_sort_experiment(sibling2);

  svc::ServiceOptions opt;
  opt.max_in_flight = 4;
  svc::SortService service(opt);

  // The victim: a long-running job we abort mid-flight. Big enough that it
  // cannot finish before the abort lands.
  RunConfig victim;
  victim.algorithm = Algorithm::kAms;
  victim.p = 256;
  victim.n_per_pe = 20000;
  victim.seed = 47;
  harness::SortJob doomed = harness::submit_sort_experiment(service, victim);
  harness::SortJob j1 = harness::submit_sort_experiment(service, sibling);
  harness::SortJob j2 = harness::submit_sort_experiment(service, sibling2);

  doomed.handle.abort();
  const svc::JobResult aborted = doomed.handle.wait();
  EXPECT_EQ(aborted.state, JobState::kCancelled);

  expect_identical(serial1, j1.result(), "sibling AMS p=64");
  expect_identical(serial2, j2.result(), "sibling RLM p=32");

  service.wait_idle();
  const svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.cancelled, 1);
  EXPECT_EQ(st.completed, 2);
}

TEST(SortService, FailedJobReportsSerialErrorMessage) {
  // A fault model harsh enough to exhaust its retry budget aborts the job;
  // the service must surface the exact error the serial run throws.
  RunConfig cfg;
  cfg.algorithm = Algorithm::kSampleSort1L;
  cfg.p = 16;
  cfg.n_per_pe = 200;
  cfg.seed = 53;
  cfg.faults.loss = 0.95;
  cfg.faults.retransmit.max_retries = 1;

  std::string serial_error;
  try {
    (void)harness::run_sort_experiment(cfg);
  } catch (const net::NetworkError& e) {
    serial_error = e.what();
  }
  ASSERT_FALSE(serial_error.empty()) << "fault config unexpectedly survived";

  svc::SortService service;
  harness::SortJob job = harness::submit_sort_experiment(service, cfg);
  const svc::JobResult r = job.handle.wait();
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_EQ(r.error, serial_error);
  EXPECT_THROW((void)job.result(), net::NetworkError);
}

TEST(SortService, DeterminismIndependentOfMaxInFlight) {
  const std::vector<RunConfig> grid = mixed_grid();
  std::vector<double> wall_at_1, wall_at_4;
  for (const int max_in_flight : {1, 4}) {
    svc::ServiceOptions opt;
    opt.max_in_flight = max_in_flight;
    svc::SortService service(opt);
    std::vector<harness::SortJob> jobs;
    for (const RunConfig& cfg : grid)
      jobs.push_back(harness::submit_sort_experiment(service, cfg));
    auto& out = max_in_flight == 1 ? wall_at_1 : wall_at_4;
    for (auto& j : jobs) out.push_back(j.result().wall_time());
  }
  ASSERT_EQ(wall_at_1.size(), wall_at_4.size());
  for (std::size_t i = 0; i < wall_at_1.size(); ++i)
    EXPECT_EQ(wall_at_1[i], wall_at_4[i]) << "job " << i;
}

TEST(SortService, BatchedAdmissionAndPeakInFlight) {
  svc::ServiceOptions opt;
  opt.max_in_flight = 3;
  svc::SortService service(opt);

  service.pause_admission();
  RunConfig cfg;
  cfg.algorithm = Algorithm::kGvSampleSort;
  cfg.p = 16;
  cfg.n_per_pe = 100;
  std::vector<harness::SortJob> jobs;
  for (int i = 0; i < 6; ++i) {
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    jobs.push_back(harness::submit_sort_experiment(service, cfg));
  }
  // Nothing admitted while paused.
  EXPECT_EQ(service.stats().admission_batches, 0);
  for (auto& j : jobs) EXPECT_EQ(j.handle.state(), JobState::kQueued);

  service.resume_admission();
  service.wait_idle();

  const svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, 6);
  // The first post-resume batch admits min(6, max_in_flight) = 3 jobs in one
  // step; the rest are admitted at completion boundaries. Batching keeps the
  // batch count at or below the job count minus the first batch's extras.
  EXPECT_GE(st.admission_batches, 1);
  EXPECT_LE(st.admission_batches, 4);
  if (service.concurrent()) {
    EXPECT_EQ(st.peak_in_flight, 3);
  }
  for (auto& j : jobs) EXPECT_TRUE(j.result().check.ok());
}

TEST(SortService, QueuedJobAbortsWithoutRunning) {
  svc::SortService service;
  service.pause_admission();
  RunConfig cfg;
  cfg.algorithm = Algorithm::kAms;
  cfg.p = 16;
  cfg.n_per_pe = 100;
  cfg.seed = 61;
  harness::SortJob job = harness::submit_sort_experiment(service, cfg);
  job.handle.abort();
  service.resume_admission();
  const svc::JobResult r = job.handle.wait();
  EXPECT_EQ(r.state, JobState::kCancelled);
  EXPECT_EQ(r.error, "aborted before admission");
  EXPECT_EQ(r.report.wall_time, 0.0);  // never ran
}

TEST(SortService, TrySubmitRespectsQueueBound) {
  svc::ServiceOptions opt;
  opt.queue_capacity = 1;
  svc::SortService service(opt);
  service.pause_admission();

  RunConfig cfg;
  cfg.algorithm = Algorithm::kGvSampleSort;
  cfg.p = 8;
  cfg.n_per_pe = 50;
  auto st = std::make_shared<harness::SortJobState>(cfg);
  svc::JobSpec spec;
  spec.num_pes = cfg.p;
  spec.machine = cfg.machine;
  spec.seed = cfg.seed;
  spec.program = harness::make_sort_program(st);

  auto first = service.try_submit(spec);
  ASSERT_TRUE(first.has_value());
  auto second = service.try_submit(spec);
  EXPECT_FALSE(second.has_value());  // queue full while paused

  service.resume_admission();
  service.wait_idle();
  EXPECT_EQ(first->wait().state, JobState::kDone);
}

TEST(SortService, SurvivesManySmallJobsAndStaysWarm) {
  svc::ServiceOptions opt;
  opt.max_in_flight = 8;
  svc::SortService service(opt);
  RunConfig cfg;
  cfg.algorithm = Algorithm::kGvSampleSort;
  cfg.p = 16;
  cfg.n_per_pe = 64;
  std::vector<harness::SortJob> jobs;
  for (int i = 0; i < 32; ++i) {
    cfg.seed = 1000 + static_cast<std::uint64_t>(i);
    jobs.push_back(harness::submit_sort_experiment(service, cfg));
  }
  // Same seed ⇒ same virtual time, job slots and substrate reuse
  // notwithstanding.
  std::optional<double> wall_of_seed_1000;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    RunResult r = jobs[i].result();
    EXPECT_TRUE(r.check.ok()) << "job " << i;
    if (i == 0) wall_of_seed_1000 = r.wall_time();
  }
  cfg.seed = 1000;
  harness::SortJob again = harness::submit_sort_experiment(service, cfg);
  EXPECT_EQ(again.result().wall_time(), *wall_of_seed_1000);
}

TEST(Engine, StartRunFinishRunMatchesRun) {
  net::Engine serial(16, net::MachineParams::supermuc_like(), 77);
  std::atomic<int> count{0};
  auto simple = [&](net::Comm& comm) {
    count.fetch_add(1);
    const int partner = comm.rank() ^ 1;
    const std::uint64_t tag = comm.next_tag_block();
    std::int64_t v = comm.rank();
    comm.send<std::int64_t>(partner, tag,
                            std::span<const std::int64_t>(&v, 1));
    auto got = comm.recv<std::int64_t>(partner, tag);
    EXPECT_EQ(got[0], partner);
  };
  serial.run(simple);
  const double serial_wall = serial.report().wall_time;
  EXPECT_EQ(count.load(), 16);

  net::Engine async(16, net::MachineParams::supermuc_like(), 77);
  count.store(0);
  // on_complete fires on whichever thread retires the run's last fiber;
  // wait for it the way a real consumer (the service dispatcher) does,
  // then reap the run with finish_run.
  std::mutex mu;
  std::condition_variable cv;
  bool completed = false;
  async.start_run(simple, [&] {
    std::lock_guard lock(mu);
    completed = true;
    cv.notify_all();
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return completed; });
  }
  const std::optional<std::string> err = async.finish_run();
  EXPECT_FALSE(err.has_value());
  EXPECT_EQ(count.load(), 16);
  EXPECT_EQ(async.report().wall_time, serial_wall);
}

TEST(Engine, WorldCommNamespaceIsTimingNeutral) {
  // Two engines on one shared substrate with different job ids: different
  // Comm namespaces (disjoint mailbox keys), identical virtual results.
  auto substrate = std::make_shared<net::EngineSubstrate>(
      net::engine_fiber_workers(16));
  if (net::resolve_engine_backend() == net::EngineBackend::kFibers)
    substrate->ensure_pool(net::engine_fiber_workers(16));

  RunConfig cfg;
  cfg.algorithm = Algorithm::kAms;
  cfg.p = 16;
  cfg.n_per_pe = 100;
  cfg.seed = 91;

  std::vector<double> walls;
  for (const std::uint64_t job_id : {1ULL, 0xdeadbeefULL}) {
    auto st = std::make_shared<harness::SortJobState>(cfg);
    net::Engine engine(cfg.p, cfg.machine, cfg.seed,
                       net::EngineBackend::kAuto, substrate, job_id);
    engine.run(harness::make_sort_program(st));
    EXPECT_TRUE(st->check.ok());
    walls.push_back(engine.report().wall_time);
  }
  EXPECT_EQ(walls[0], walls[1]);

  const RunResult standalone = harness::run_sort_experiment(cfg);
  EXPECT_EQ(standalone.report.wall_time, walls[0]);
}

}  // namespace
}  // namespace pmps
