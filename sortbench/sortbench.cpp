// sortbench: runs one workload of the repository's benchmark and prints one
// JSON object of raw measurements as the last line of stdout. run.py builds
// this program, runs it, checks the tallies and turns the samples into the
// metrics BENCHMARK.json names (see sortbench/README.md).
//
//   sortbench <workload> [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//             [--spill-dir DIR] [--trace-out FILE]
//
// Untraced (--trace 0): set-up is repeated kSetupReps times (engine or
// service construction plus one warm-up sort), then sorts run through the
// library's own program (harness::make_sort_program) for S seconds.
// Traced (--trace 1): one set-up, S/2 seconds untraced, S/2 seconds through
// this file's traced copy of the sort program, then one probe per layer at
// the shape the workload's sort sees. Every sort is verified and compared
// with the first sort of the same seed; traced and untraced sorts share
// those references, so tracing that moved virtual time or output shows up
// as a mismatch.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/model.hpp"
#include "harness/runner.hpp"
#include "net/comm.hpp"
#include "select/multiselect.hpp"
#include "seq/multiway_merge.hpp"
#include "seq/partition.hpp"
#include "seq/small_sort.hpp"
#include "svc/service.hpp"

using namespace pmps;

// ---------------------------------------------------------------------------
// Spill-file placement. The library creates its anonymous spill files with
// tmpfile(); the link step wraps that symbol (CMakeLists.txt) so that, given
// --spill-dir, the files are created (and immediately unlinked) there.
// ---------------------------------------------------------------------------
namespace {
std::string g_spill_dir;
std::atomic<int> g_spill_files{0};
/// Probe results are stored here so the optimizer cannot drop the calls.
volatile std::int64_t g_sink = 0;
}  // namespace

extern "C" FILE* __real_tmpfile();
extern "C" FILE* __wrap_tmpfile() {
  if (g_spill_dir.empty()) return __real_tmpfile();
  std::string path = g_spill_dir + "/spill-XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) return nullptr;
  ::unlink(path.c_str());
  FILE* f = ::fdopen(fd, "w+b");
  if (f == nullptr) {
    ::close(fd);
    return nullptr;
  }
  g_spill_files.fetch_add(1, std::memory_order_relaxed);
  return f;
}

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

/// Host seconds since program start (also the trace's time base).
double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

// ---------------------------------------------------------------------------
// Minimal JSON output.
// ---------------------------------------------------------------------------
std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jarr(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", " : "") + jnum(v[i]);
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& raw(std::string_view key, std::string_view json) {
    out_ += first_ ? "" : ", ";
    first_ = false;
    out_ += jstr(key);
    out_ += ": ";
    out_ += json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) { return raw(key, jnum(v)); }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, jstr(v));
  }
  std::string done() const { return out_ + "}"; }

 private:
  std::string out_ = "{";
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Chrome trace-event recorder (kept in memory, written once at the end).
// ---------------------------------------------------------------------------
class Trace {
 public:
  int track(const std::string& name) {
    for (std::size_t i = 0; i < tracks_.size(); ++i)
      if (tracks_[i] == name) return static_cast<int>(i) + 1;
    tracks_.push_back(name);
    return static_cast<int>(tracks_.size());
  }
  void span(int track, std::string name, double t0, double t1,
            std::string args = "{}") {
    events_.push_back({std::move(name), track, t0, t1, std::move(args)});
  }
  bool write(const std::string& path, const std::string& process,
             const std::string& stamp) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                    " \"traceEvents\": [\n", stamp.c_str());
    std::fprintf(f, "  {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
                    "\"args\": {\"name\": %s}}", jstr(process).c_str());
    for (std::size_t i = 0; i < tracks_.size(); ++i)
      std::fprintf(f, ",\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, "
                      "\"name\": \"thread_name\", \"args\": {\"name\": %s}}",
                   i + 1, jstr(tracks_[i]).c_str());
    for (const Event& e : events_)
      std::fprintf(f, ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                      "\"name\": %s, \"ts\": %.3f, \"dur\": %.3f, \"args\": %s}",
                   e.track, jstr(e.name).c_str(), e.t0 * 1e6,
                   (e.t1 - e.t0) * 1e6, e.args.c_str());
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    std::string name;
    int track;
    double t0, t1;
    std::string args;
  };
  std::vector<std::string> tracks_;
  std::vector<Event> events_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------
struct Workload {
  std::string name;
  int p = 0;
  std::int64_t n_per_pe = 0;
  int levels = 2;
  bool records = false;    ///< Record100 elements instead of u64 keys
  bool service = false;    ///< closed loop of jobs on one SortService
  int budget_divisor = 0;  ///< per-PE budget = payload / divisor; 0 = in memory
  int num_seeds = 1;       ///< distinct inputs per run, cycled by the loop
};

constexpr int kMaxInFlight = 4;  ///< service admission ceiling = jobs outstanding
constexpr std::int64_t kBlockBytes = 2048;
constexpr int kSetupReps = 3;

/// The four workloads; --tiny shrinks each to a seconds-long smoke shape.
std::optional<Workload> find_workload(std::string_view name, bool tiny) {
  if (name == "ams_wide")
    return Workload{.name = "ams_wide", .p = tiny ? 64 : 4096,
                    .n_per_pe = tiny ? 200 : 1000, .levels = 2,
                    .num_seeds = 3};
  if (name == "ams_tall")
    return Workload{.name = "ams_tall", .p = tiny ? 4 : 16,
                    .n_per_pe = tiny ? 4096 : std::int64_t{1} << 18,
                    .levels = 1, .num_seeds = 16};
  if (name == "service_mix")
    return Workload{.name = "service_mix", .p = tiny ? 8 : 64,
                    .n_per_pe = tiny ? 200 : 1000, .levels = 2,
                    .service = true, .num_seeds = 256};
  if (name == "minute_spill")
    return Workload{.name = "minute_spill", .p = tiny ? 4 : 32,
                    .n_per_pe = tiny ? 800 : 4000, .levels = 2,
                    .records = true, .budget_divisor = 16, .num_seeds = 16};
  return std::nullopt;
}

/// service_mix alternates AMS and RLM jobs; the other workloads run AMS.
harness::Algorithm algorithm_of(const Workload& w, int seed_idx) {
  return w.service && seed_idx % 2 == 1 ? harness::Algorithm::kRlm
                                        : harness::Algorithm::kAms;
}

harness::RunConfig config_for(const Workload& w, std::uint64_t seed,
                              harness::Algorithm alg) {
  harness::RunConfig cfg;
  cfg.p = w.p;
  cfg.n_per_pe = w.n_per_pe;
  cfg.seed = seed;
  cfg.algorithm = alg;
  cfg.element =
      w.records ? harness::ElementKind::kRecord100 : harness::ElementKind::kU64;
  cfg.ams.levels = w.levels;
  cfg.rlm.levels = w.levels;
  if (w.budget_divisor > 0) {
    const std::int64_t elem = w.records ? sizeof(Record100) : sizeof(std::uint64_t);
    cfg.budget.bytes =
        std::max<std::int64_t>(1, w.n_per_pe * elem / w.budget_divisor);
    cfg.budget.block_bytes = kBlockBytes;
  }
  return cfg;
}

/// The run's inputs: seed i of the list is base·1000 + i.
std::vector<std::uint64_t> seed_list(std::uint64_t base, int count) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i)
    seeds.push_back(base * 1000 + static_cast<std::uint64_t>(i));
  return seeds;
}

template <typename T>
std::vector<T> make_keys(int rank, int p, std::int64_t n, std::uint64_t seed) {
  if constexpr (std::is_same_v<T, Record100>)
    return harness::make_record_workload(rank, p, n, seed);
  else
    return harness::make_workload(harness::Workload::kUniform, rank, p, n,
                                  seed);
}

// ---------------------------------------------------------------------------
// The traced sort program: harness::make_sort_program's AMS/RLM body with a
// host timestamp at each layer boundary, per PE.
// ---------------------------------------------------------------------------
struct SpanBoard {
  explicit SpanBoard(int p) : t(static_cast<std::size_t>(p)) {}
  /// Per PE: start of generation, sort, verification, and end of verification.
  std::vector<std::array<double, 4>> t;

  void mark(int pe, int i) { t[static_cast<std::size_t>(pe)][i] = now_s(); }
  double first(int i) const {
    double v = t[0][i];
    for (const auto& pe : t) v = std::min(v, pe[i]);
    return v;
  }
  double last(int i) const {
    double v = t[0][i];
    for (const auto& pe : t) v = std::max(v, pe[i]);
    return v;
  }
};

template <typename T>
void traced_sort_body(harness::SortJobState& st, SpanBoard& board,
                      net::Comm& comm) {
  const harness::RunConfig& cfg = st.cfg;
  const int me = comm.rank();
  board.mark(me, 0);
  auto data = make_keys<T>(me, cfg.p, cfg.n_per_pe, cfg.seed);
  const std::uint64_t in_hash =
      harness::content_hash(std::span<const T>(data.data(), data.size()));
  const auto in_count = static_cast<std::int64_t>(data.size());
  board.mark(me, 1);
  ams::AmsStats stats;
  if (cfg.algorithm == harness::Algorithm::kAms) {
    auto a = cfg.ams;
    a.seed = cfg.seed;
    a.budget = st.budget;
    stats = ams::ams_sort(comm, data, a);
  } else {
    auto r = cfg.rlm;
    r.seed = cfg.seed;
    r.budget = st.budget;
    rlm::rlm_sort(comm, data, r);
  }
  board.mark(me, 2);
  auto check = harness::verify_sorted_output(
      comm, std::span<const T>(data.data(), data.size()), in_hash, in_count);
  board.mark(me, 3);
  if (me == 0) {
    std::lock_guard lock(st.mu);
    st.check = check;
    st.ams_stats = std::move(stats);
  }
}

std::function<void(net::Comm&)> traced_program(
    std::shared_ptr<harness::SortJobState> st,
    std::shared_ptr<SpanBoard> board) {
  return [st = std::move(st), board = std::move(board)](net::Comm& comm) {
    if (st->cfg.element == harness::ElementKind::kRecord100)
      traced_sort_body<Record100>(*st, *board, comm);
    else
      traced_sort_body<std::uint64_t>(*st, *board, comm);
  };
}

harness::RunResult sort_on_engine(net::Engine& engine,
                                  const harness::RunConfig& cfg,
                                  const std::shared_ptr<SpanBoard>& board) {
  auto st = std::make_shared<harness::SortJobState>(cfg);
  engine.run(board ? traced_program(st, board) : harness::make_sort_program(st));
  return harness::collect_sort_result(*st, engine.report());
}

/// harness::submit_sort_experiment with the traced program (in-memory jobs).
harness::SortJob submit_traced(svc::SortService& service,
                               const harness::RunConfig& cfg,
                               std::shared_ptr<SpanBoard> board) {
  PMPS_CHECK(!cfg.budget.enabled() && !cfg.faults.any());
  auto st = std::make_shared<harness::SortJobState>(cfg);
  svc::JobSpec spec;
  spec.num_pes = cfg.p;
  spec.machine = cfg.machine;
  spec.seed = cfg.seed;
  spec.program = traced_program(st, std::move(board));
  spec.name = std::string(harness::algorithm_name(cfg.algorithm));
  harness::SortJob job;
  job.state = std::move(st);
  job.handle = service.submit(std::move(spec));
  return job;
}

// ---------------------------------------------------------------------------
// Correctness bookkeeping: every sort must verify and match the first sort of
// the same seed in output signature and virtual wall time.
// ---------------------------------------------------------------------------
struct Tally {
  explicit Tally(int num_seeds)
      : first(static_cast<std::size_t>(num_seeds)) {}

  int attempted = 0, errors = 0, unverified = 0, mismatches = 0;
  std::string last_error;
  std::vector<std::optional<harness::RunResult>> first;  ///< per seed index
  std::vector<em::SpillTotals> spills;                    ///< per sort
  net::EngineStats engine;                                ///< of the last sort

  bool add(int idx, const harness::RunResult& r) {
    ++attempted;
    spills.push_back(r.spill);
    engine = r.report.engine;
    if (!r.check.ok()) {
      ++unverified;
      return false;
    }
    auto& ref = first[static_cast<std::size_t>(idx)];
    if (!ref) {
      ref = r;
      return true;
    }
    if (r.check.out_signature != ref->check.out_signature ||
        r.wall_time() != ref->wall_time()) {
      ++mismatches;
      return false;
    }
    return true;
  }
  void fail(const std::exception& e) {
    ++attempted;
    ++errors;
    last_error = e.what();
  }
  int failed() const { return errors + unverified + mismatches; }
};

/// The shape the workload's level-0 sort sees; every probe runs at it.
struct Shape {
  int p = 0;
  std::int64_t sample = 0;   ///< S: level-0 global sample size
  int r = 0;                 ///< level-0 group count
  int buckets = 0;           ///< b·r (capped by S, as ams_sort does)
  std::int64_t n_per_pe = 0;
  std::int64_t budget = 0;   ///< per-PE bytes; 0 = in memory
};

/// Per-PE begin/end stamps of repeated calls inside one SPMD program.
class CallClock {
 public:
  CallClock(int p, int calls)
      : calls_(calls), t0_(static_cast<std::size_t>(p * calls)),
        t1_(static_cast<std::size_t>(p * calls)) {}
  void begin(int pe, int c) { t0_[at(pe, c)] = now_s(); }
  void end(int pe, int c) { t1_[at(pe, c)] = now_s(); }
  /// First PE's start to last PE's end of call `c`.
  std::pair<double, double> span(int c) const {
    double a = INFINITY, b = -INFINITY;
    for (std::size_t pe = 0; pe < t0_.size() / static_cast<std::size_t>(calls_);
         ++pe) {
      a = std::min(a, t0_[at(static_cast<int>(pe), c)]);
      b = std::max(b, t1_[at(static_cast<int>(pe), c)]);
    }
    return {a, b};
  }

 private:
  std::size_t at(int pe, int c) const {
    return static_cast<std::size_t>(pe * calls_ + c);
  }
  int calls_;
  std::vector<double> t0_, t1_;
};

std::string engine_backend_name(net::EngineBackend b) {
  return b == net::EngineBackend::kFibers ? "fibers" : "threads";
}

std::string spill_io_name(em::IoMode m) {
  if (m == em::IoMode::kSync) return "sync";
  return m == em::IoMode::kAsync ? "async" : "other";
}

// ---------------------------------------------------------------------------
// One benchmark run.
// ---------------------------------------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

class Bench {
 public:
  Bench(Workload w, Options opt)
      : w_(std::move(w)), opt_(std::move(opt)),
        seeds_(seed_list(opt_.seed, w_.num_seeds)), tally_(w_.num_seeds) {}

  void run() {
    const int reps = opt_.trace ? 1 : kSetupReps;
    const double loop_s = opt_.trace ? opt_.seconds / 2 : opt_.seconds;
    for (int rep = 0; rep < reps; ++rep) setup();
    if (w_.service) {
      loop_s_ = service_loop(w_, seeds_, tally_, loop_s, false, sort_s_);
    } else {
      loop_s_ = engine_loop(loop_s, false, sort_s_);
    }
    if (!opt_.trace) return;
    if (w_.service) {
      service_loop(w_, seeds_, tally_, loop_s, true, traced_sort_s_);
    } else {
      engine_loop(loop_s, true, traced_sort_s_);
    }
    probes();
  }

  int failed() const { return tally_.failed(); }

  std::string stamp_json() const {
    JsonObject s;
    s.str("workload", w_.name)
        .num("seed", static_cast<double>(opt_.seed))
        .raw("seeds", [&] {
          std::vector<double> v(seeds_.begin(), seeds_.end());
          return jarr(v);
        }())
        .num("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)))
        .num("fiber_workers",
             net::engine_fiber_workers(w_.service ? INT_MAX : w_.p))
        .str("engine_backend",
             engine_backend_name(net::resolve_engine_backend()))
        .str("spill_io", spill_io_name(em::io_mode_from_env()))
        .num("spill_io_threads", em::io_threads_from_env())
        .str("build_type", SORTBENCH_BUILD_TYPE)
        .str("compiler", __VERSION__)
        .str("element", w_.records ? "record100" : "u64")
        .num("p", w_.p)
        .num("n_per_pe", static_cast<double>(w_.n_per_pe))
        .num("levels", w_.levels)
        .num("setup_reps", opt_.trace ? 1 : kSetupReps)
        .num("max_in_flight", w_.service ? kMaxInFlight : 0)
        .num("budget_bytes", static_cast<double>(shape_.budget))
        .num("block_bytes", w_.budget_divisor > 0 ? kBlockBytes : 0)
        .num("spill_files", g_spill_files.load())
        .raw("shape", JsonObject()
                          .num("p", shape_.p)
                          .num("S", static_cast<double>(shape_.sample))
                          .num("r", shape_.r)
                          .num("b_r", shape_.buckets)
                          .num("n_per_pe", static_cast<double>(shape_.n_per_pe))
                          .num("budget", static_cast<double>(shape_.budget))
                          .done())
        .raw("probe_shapes", probe_shapes_.done());
    return s.done();
  }

  std::string result_json() const {
    std::string distinct = "[";
    bool first = true;
    for (std::size_t i = 0; i < tally_.first.size(); ++i) {
      const auto& r = tally_.first[i];
      if (!r) continue;
      distinct += (first ? "" : ", ") +
                  JsonObject()
                      .num("seed", static_cast<double>(seeds_[i]))
                      .str("algorithm", harness::algorithm_name(
                                            algorithm_of(w_, static_cast<int>(i))))
                      .num("n", static_cast<double>(r->check.total))
                      .num("virt_s", r->wall_time())
                      .num("imbalance", r->check.imbalance)
                      .done();
      first = false;
    }
    distinct += "]";
    JsonObject layers;
    for (const auto& [name, v] : layers_) layers.raw(name, jarr(v));
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return JsonObject()
        .raw("stamp", stamp_json())
        .num("attempted", tally_.attempted)
        .num("errors", tally_.errors)
        .num("unverified", tally_.unverified)
        .num("mismatches", tally_.mismatches)
        .str("last_error", tally_.last_error)
        .raw("setup_s", jarr(setup_s_))
        .raw("sort_s", jarr(sort_s_))
        .num("loop_s", loop_s_)
        .raw("traced_sort_s", jarr(traced_sort_s_))
        .raw("distinct", distinct)
        .num("peak_rss_kb", static_cast<double>(ru.ru_maxrss))
        .raw("layers", layers.done())
        .done();
  }

  bool write_trace() const {
    return trace_.write(opt_.trace_out, "sortbench " + w_.name, stamp_json());
  }

 private:
  // --- set-up and timed loops ----------------------------------------------

  /// Engine or service construction plus one warm-up sort of seed 0.
  void setup() {
    engine_.reset();
    service_.reset();
    const double t0 = now_s();
    const auto cfg = config_for(w_, seeds_[0], algorithm_of(w_, 0));
    std::optional<harness::RunResult> warm;
    try {
      if (w_.service) {
        service_ = std::make_unique<svc::SortService>(service_options());
        warm = harness::submit_sort_experiment(*service_, cfg).result();
      } else {
        engine_ = std::make_unique<net::Engine>(w_.p, cfg.machine, seeds_[0]);
        warm = sort_on_engine(*engine_, cfg, nullptr);
      }
      tally_.add(0, *warm);
    } catch (const std::exception& e) {
      tally_.fail(e);
    }
    const double t1 = now_s();
    setup_s_.push_back(t1 - t0);
    if (opt_.trace) trace_.span(trace_.track(w_.name + " setup"), "setup", t0, t1);
    if (warm) shape_ = shape_of(cfg, *warm);
  }

  static svc::ServiceOptions service_options() {
    svc::ServiceOptions opt;
    opt.max_in_flight = kMaxInFlight;
    return opt;
  }

  Shape shape_of(const harness::RunConfig& cfg,
                 const harness::RunResult& warm) const {
    Shape s;
    s.p = cfg.p;
    s.n_per_pe = cfg.n_per_pe;
    s.budget = cfg.budget.bytes;
    s.r = ams::level_group_counts(cfg.p, w_.levels, cfg.machine.pes_per_node)[0];
    s.sample = warm.ams_stats.sample_sizes.empty()
                   ? cfg.p
                   : warm.ams_stats.sample_sizes[0];
    s.buckets = static_cast<int>(std::min<std::int64_t>(
        static_cast<std::int64_t>(ams::AmsConfig{}.overpartition_b) * s.r,
        s.sample));
    return s;
  }

  /// Sorts on the workload's engine, cycling through the seeds, until
  /// `seconds` passed and every seed ran once; one sample per verified sort.
  double engine_loop(double seconds, bool traced, std::vector<double>& out) {
    const int track = traced ? trace_.track(w_.name + " traced sorts") : 0;
    const double t_start = now_s();
    for (int i = 0; i < w_.num_seeds || now_s() - t_start < seconds; ++i) {
      const int idx = i % w_.num_seeds;
      const auto cfg = config_for(w_, seeds_[idx], algorithm_of(w_, idx));
      auto board = traced ? std::make_shared<SpanBoard>(cfg.p) : nullptr;
      const double t0 = now_s();
      try {
        const auto r = sort_on_engine(*engine_, cfg, board);
        const double t1 = now_s();
        if (tally_.add(idx, r)) out.push_back(t1 - t0);
        if (traced) {
          trace_.span(track, "sort", t0, t1, sort_args(cfg));
          record_layer_spans(track, cfg, *board);
        }
      } catch (const std::exception& e) {
        tally_.fail(e);
      }
    }
    return now_s() - t_start;
  }

  /// Closed loop on the service: one client keeps kMaxInFlight jobs
  /// outstanding, waits for the oldest, then submits the next, until
  /// `seconds` passed and every seed was submitted. One latency sample
  /// (submit → result) per verified job.
  double service_loop(const Workload& w, const std::vector<std::uint64_t>& seeds,
                      Tally& tally, double seconds, bool traced,
                      std::vector<double>& out, bool probe = false) {
    struct Pending {
      int ordinal, idx;
      harness::RunConfig cfg;
      double t_submit;
      std::shared_ptr<SpanBoard> board;
      harness::SortJob job;
    };
    std::deque<Pending> queue;
    int next = 0;
    auto submit = [&] {
      const int idx = next % w.num_seeds;
      Pending pd{next++, idx, config_for(w, seeds[idx], algorithm_of(w, idx)),
                 now_s(), nullptr, {}};
      if (traced) {
        pd.board = std::make_shared<SpanBoard>(pd.cfg.p);
        pd.job = submit_traced(*service_, pd.cfg, pd.board);
      } else {
        pd.job = harness::submit_sort_experiment(*service_, pd.cfg);
      }
      queue.push_back(std::move(pd));
    };
    const double t_start = now_s();
    while (static_cast<int>(queue.size()) < kMaxInFlight) submit();
    while (!queue.empty()) {
      Pending pd = std::move(queue.front());
      queue.pop_front();
      try {
        const auto r = pd.job.result();
        const double t_done = now_s();
        if (tally.add(pd.idx, r)) out.push_back(t_done - pd.t_submit);
        if (traced) record_job_spans(probe ? "probe svc" : w.name, !probe,
                                     pd.ordinal, pd.cfg, *pd.board,
                                     pd.t_submit, t_done);
      } catch (const std::exception& e) {
        tally.fail(e);
      }
      if (next < w.num_seeds || now_s() - t_start < seconds) submit();
    }
    return now_s() - t_start;
  }

  void add_layer(const std::string& name, double v) { layers_[name].push_back(v); }

  /// harness.generate_s / <algorithm>.sort_s / harness.verify_s of one traced
  /// sort, each from the first PE's start to the last PE's end.
  void record_layer_spans(int track, const harness::RunConfig& cfg,
                          const SpanBoard& b) {
    const std::string sorter =
        cfg.algorithm == harness::Algorithm::kAms ? "ams" : "rlm";
    const std::array<std::string, 3> names{"harness.generate_s",
                                           sorter + ".sort_s",
                                           "harness.verify_s"};
    for (int i = 0; i < 3; ++i) {
      const double a = b.first(i), e = b.last(i + 1);
      add_layer(names[static_cast<std::size_t>(i)], e - a);
      trace_.span(track, names[static_cast<std::size_t>(i)], a, e);
    }
  }

  static std::string sort_args(const harness::RunConfig& cfg) {
    return JsonObject()
        .str("algorithm", harness::algorithm_name(cfg.algorithm))
        .num("seed", static_cast<double>(cfg.seed))
        .num("p", cfg.p)
        .num("n_per_pe", static_cast<double>(cfg.n_per_pe))
        .done();
  }

  /// Spans of one service job; `sort_layers` is false for the svc probe's
  /// jobs, whose sorts are not the workload's.
  void record_job_spans(const std::string& label, bool sort_layers,
                        int ordinal, const harness::RunConfig& cfg,
                        const SpanBoard& b, double t_submit, double t_done) {
    const int track = trace_.track(label + " job slot " +
                                   std::to_string(ordinal % kMaxInFlight));
    const double start = b.first(0), end = b.last(3);
    trace_.span(track, "job", t_submit, t_done, sort_args(cfg));
    trace_.span(track, "svc.queue_wait", t_submit, start);
    if (sort_layers) record_layer_spans(track, cfg, b);
    trace_.span(track, "svc.notify", end, t_done);
    add_layer("svc.queue_wait_s_p50", start - t_submit);
    add_layer("svc.run_s_p50", end - start);
    add_layer("svc.notify_s_p50", t_done - end);
  }

  // --- per-layer probes ----------------------------------------------------

  /// Calls per timed batch: doubled until one batch takes kMinBatchS, so
  /// microsecond calls are not timed one by one.
  template <typename F>
  static int batch_size(F&& call) {
    constexpr double kMinBatchS = 0.002;
    for (int batch = 1;; batch *= 2) {
      const double t0 = now_s();
      for (int i = 0; i < batch; ++i) call();
      if (now_s() - t0 >= kMinBatchS || batch >= (1 << 20)) return batch;
    }
  }

  /// `samples` batches of `call`; each sample is the batch's per-call mean,
  /// scaled (e.g. 1e6 for µs).
  template <typename F>
  void timed_calls(const std::string& metric, double scale, int samples,
                   F&& call) {
    const int batch = batch_size(call);
    const int track = trace_.track("probe " + metric);
    for (int c = 0; c < samples; ++c) {
      const double t0 = now_s();
      for (int i = 0; i < batch; ++i) call();
      const double t1 = now_s();
      add_layer(metric, (t1 - t0) / batch * scale);
      trace_.span(track, metric, t0, t1,
                  JsonObject().num("calls", batch).done());
    }
  }

  /// Runs `body` once on every PE of `engine`; body stamps `calls` calls on
  /// the CallClock, and each call's span (scaled) becomes one sample.
  void spmd_calls(net::Engine& engine, const std::string& metric, int calls,
                  double scale,
                  const std::function<void(net::Comm&, CallClock&)>& body) {
    CallClock clock(engine.num_pes(), calls);
    engine.run([&](net::Comm& comm) { body(comm, clock); });
    const int track = trace_.track("probe " + metric);
    for (int c = 0; c < calls; ++c) {
      const auto [a, b] = clock.span(c);
      add_layer(metric, (b - a) * scale);
      trace_.span(track, metric, a, b);
    }
  }

  void probes() {
    const Shape& s = shape_;
    const auto machine = net::MachineParams::supermuc_like();
    std::unique_ptr<net::Engine> own;
    net::Engine* engine = engine_.get();
    if (engine == nullptr) {
      own = std::make_unique<net::Engine>(s.p, machine, seeds_[0]);
      engine = own.get();
    }
    probe_shapes_.raw("collective",
                      JsonObject().num("p", s.p).num("S", static_cast<double>(s.sample))
                          .num("b_r", s.buckets).num("r", s.r)
                          .num("n_per_pe", static_cast<double>(s.n_per_pe))
                          .num("budget", static_cast<double>(s.budget)).done());

    // net
    {
      const int track = trace_.track("probe net.engine_new_s");
      for (int c = 0; c < 3; ++c) {
        const double t0 = now_s();
        auto fresh = std::make_unique<net::Engine>(s.p, machine, seeds_[0]);
        const double t1 = now_s();
        add_layer("net.engine_new_s", t1 - t0);
        trace_.span(track, "net.engine_new", t0, t1);
      }
    }
    timed_calls("net.run_empty_s", 1, 5,
                [&] { engine->run([](net::Comm&) {}); });
    constexpr int kRingRounds = 16;
    spmd_calls(*engine, "net.ring_msg_us", 3, 1e6 / (kRingRounds * s.p),
               [&](net::Comm& comm, CallClock& clock) {
                 const int me = comm.rank(), p = comm.size();
                 for (int c = 0; c < 3; ++c) {
                   const std::uint64_t tag = comm.next_tag_block();
                   std::uint64_t v = static_cast<std::uint64_t>(me);
                   coll::barrier(comm);
                   clock.begin(me, c);
                   for (int round = 0; round < kRingRounds; ++round) {
                     comm.send_one<std::uint64_t>((me + 1) % p, tag + round, v);
                     v = comm.recv_one<std::uint64_t>((me + p - 1) % p,
                                                      tag + round);
                   }
                   clock.end(me, c);
                 }
               });

    // coll
    spmd_calls(*engine, "coll.barrier_us", 20, 1e6,
               [&](net::Comm& comm, CallClock& clock) {
                 for (int c = 0; c < 20; ++c) {
                   coll::barrier(comm);
                   clock.begin(comm.rank(), c);
                   coll::barrier(comm);
                   clock.end(comm.rank(), c);
                 }
               });
    spmd_calls(*engine, "coll.allreduce_s", 5, 1,
               [&](net::Comm& comm, CallClock& clock) {
                 for (int c = 0; c < 5; ++c) {
                   std::vector<std::int64_t> counts(
                       static_cast<std::size_t>(s.buckets), comm.rank());
                   coll::barrier(comm);
                   clock.begin(comm.rank(), c);
                   counts = coll::allreduce_add(comm, std::move(counts));
                   clock.end(comm.rank(), c);
                 }
               });

    if (w_.records) {
      element_probes<Record100>(*engine);
    } else {
      element_probes<std::uint64_t>(*engine);
    }

    // grouping: b·r bucket sizes of a uniform input, ±10 % jitter.
    {
      Xoshiro256 rng(seeds_[0], 7);
      const std::int64_t mean =
          std::max<std::int64_t>(1, s.n_per_pe * s.p / s.buckets);
      std::vector<std::int64_t> sizes(static_cast<std::size_t>(s.buckets));
      for (auto& b : sizes)
        b = mean + static_cast<std::int64_t>(rng.bounded(
                       static_cast<std::uint64_t>(mean / 5 + 1))) - mean / 10;
      timed_calls("grouping.optimal_us", 1e6, 7, [&] {
        g_sink = grouping::group_buckets_optimal(
                     std::span<const std::int64_t>(sizes), s.r)
                     .max_load;
      });
    }

    multiselect_probe(machine);
    external_sort_probe();
    if (!w_.service) {
      service_probe();
      rlm_probe();
    } else {
      service_counters(*service_);
    }
    add_real_sort_layers();
  }

  /// The probes whose element type follows the workload (u64 or Record100).
  template <typename T>
  void element_probes(net::Engine& engine) {
    const Shape& s = shape_;
    const std::uint64_t seed = seeds_[0];

    // fastsort: fast_rank_select of S samples for b·r − 1 splitters.
    std::vector<std::int64_t> want;
    for (std::int64_t j = 1; j < s.buckets; ++j)
      want.push_back(j * s.sample / s.buckets);
    spmd_calls(engine, "fastsort.select_s", 3, 1,
               [&](net::Comm& comm, CallClock& clock) {
                 const int me = comm.rank();
                 const std::int64_t share =
                     s.sample / s.p + (me < s.sample % s.p ? 1 : 0);
                 const auto sample = make_keys<T>(me, s.p, share, seed + 1);
                 for (int c = 0; c < 3; ++c) {
                   coll::barrier(comm);
                   clock.begin(me, c);
                   const auto splitters = fastsort::fast_rank_select(
                       comm, std::span<const T>(sample), want);
                   if (me == 0) g_sink = static_cast<std::int64_t>(splitters.size());
                   clock.end(me, c);
                 }
               });

    // delivery: deliver_flat of n/p elements in r equal pieces, under the
    // workload's budget (spilling exactly when the workload's sorts do).
    auto st = std::make_shared<harness::SortJobState>(
        config_for(w_, seed, harness::Algorithm::kAms));
    spmd_calls(engine, "delivery.deliver_s", 3, 1,
               [&](net::Comm& comm, CallClock& clock) {
                 const int me = comm.rank();
                 const auto data = make_keys<T>(me, s.p, s.n_per_pe, seed);
                 std::vector<std::int64_t> pieces(static_cast<std::size_t>(s.r),
                                                  s.n_per_pe / s.r);
                 pieces[0] += s.n_per_pe % s.r;
                 for (int c = 0; c < 3; ++c) {
                   auto src = data;
                   coll::barrier(comm);
                   clock.begin(me, c);
                   const auto out = delivery::deliver_flat(
                       comm, src, pieces, ams::AmsConfig{}.delivery,
                       seed + static_cast<std::uint64_t>(c), st->budget);
                   if (me == 0) g_sink = static_cast<std::int64_t>(out.size());
                   clock.end(me, c);
                 }
               });

    // seq: classification into b·r buckets, local sort, r-way merge.
    const auto input = make_keys<T>(0, s.p, s.n_per_pe, seed);
    std::vector<TaggedKey<T>> splitters;
    {
      const auto keys = make_keys<T>(0, s.p, s.buckets - 1, seed + 2);
      for (std::size_t i = 0; i < keys.size(); ++i)
        splitters.push_back({keys[i], 0, static_cast<std::int64_t>(i)});
      std::sort(splitters.begin(), splitters.end());
    }
    const double per_key = 1e9 / static_cast<double>(s.n_per_pe);
    if (!splitters.empty()) {
      seq::BucketClassifier<T> cls(splitters);
      timed_calls("seq.classify_ns_per_key", per_key, 7, [&] {
        g_sink = seq::partition_into_buckets(std::span<const T>(input), 0, cls)
                     .sizes[0];
      });
    }
    {
      // Sorted in place, so each batch sorts fresh copies made untimed.
      const int batch = batch_size([&] {
        auto work = input;
        seq::local_sort(std::span<T>(work));
      });
      const int track = trace_.track("probe seq.local_sort_ns_per_key");
      for (int c = 0; c < 7; ++c) {
        std::vector<std::vector<T>> work(static_cast<std::size_t>(batch), input);
        const double t0 = now_s();
        for (auto& v : work) seq::local_sort(std::span<T>(v));
        const double t1 = now_s();
        g_sink = static_cast<std::int64_t>(work.back().size());
        add_layer("seq.local_sort_ns_per_key", (t1 - t0) / batch * per_key);
        trace_.span(track, "seq.local_sort_ns_per_key", t0, t1,
                    JsonObject().num("calls", batch).done());
      }
    }
    {
      std::vector<std::vector<T>> runs(static_cast<std::size_t>(s.r));
      for (std::size_t i = 0; i < input.size(); ++i)
        runs[i % runs.size()].push_back(input[i]);
      for (auto& run : runs) seq::local_sort(std::span<T>(run));
      timed_calls("seq.merge_ns_per_key", per_key, 7,
                  [&] {
                    g_sink = static_cast<std::int64_t>(
                        seq::multiway_merge(runs).size());
                  });
    }
  }

  /// select: multiselect at p = 64 (service_mix's job shape), r = its
  /// level-0 group count, n/p = 1000.
  void multiselect_probe(const net::MachineParams& machine) {
    const int p = 64;
    const std::int64_t n = 1000;
    const int r = ams::level_group_counts(p, 2, machine.pes_per_node)[0];
    probe_shapes_.raw("select", JsonObject().num("p", p).num("r", r)
                                    .num("n_per_pe", static_cast<double>(n)).done());
    std::vector<std::int64_t> ranks;
    for (int j = 1; j < r; ++j) ranks.push_back(j * n * p / r);
    net::Engine engine(p, machine, seeds_[0]);
    spmd_calls(engine, "select.multiselect_s", 3, 1,
               [&](net::Comm& comm, CallClock& clock) {
                 auto local = make_keys<std::uint64_t>(comm.rank(), p, n,
                                                       seeds_[0]);
                 std::sort(local.begin(), local.end());
                 for (int c = 0; c < 3; ++c) {
                   coll::barrier(comm);
                   clock.begin(comm.rank(), c);
                   const auto res = select::multiselect(
                       comm, std::span<const std::uint64_t>(local), ranks);
                   if (comm.rank() == 0) g_sink = res.split_positions.front();
                   clock.end(comm.rank(), c);
                 }
               });
  }

  /// em: external_sort of one PE's minute_spill input (n/p Record100 under
  /// payload/16, 2 KiB blocks, the configured spill I/O mode). Its spill
  /// counters stand in for the real sorts' on workloads that do not spill.
  void external_sort_probe() {
    const auto ms = *find_workload("minute_spill", opt_.tiny);
    const auto cfg = config_for(ms, seeds_[0], harness::Algorithm::kAms);
    probe_shapes_.raw("em", JsonObject().num("n", static_cast<double>(ms.n_per_pe))
                                .num("budget", static_cast<double>(cfg.budget.bytes))
                                .num("block_bytes", static_cast<double>(kBlockBytes))
                                .done());
    const auto input = make_keys<Record100>(0, ms.p, ms.n_per_pe, seeds_[0]);
    std::unique_ptr<em::IoExecutor> io;
    const em::IoMode mode = em::io_mode_from_env();
    if (mode != em::IoMode::kSync)
      io = std::make_unique<em::IoExecutor>(em::io_threads_from_env(), mode);
    const int track = trace_.track("probe em.external_sort_s");
    for (int c = 0; c < 3; ++c) {
      em::SpillStats stats;
      em::MemoryBudget budget = cfg.budget;
      budget.stats = &stats;
      budget.io = io.get();
      auto data = input;
      const double t0 = now_s();
      em::external_sort(data, budget);
      const double t1 = now_s();
      add_layer("em.external_sort_s", t1 - t0);
      trace_.span(track, "em.external_sort", t0, t1);
      if (!w_.records) probe_spills_.push_back(stats.totals());
    }
  }

  /// svc on workloads without a service: a 16-job closed loop at
  /// service_mix's shape on a fresh service.
  void service_probe() {
    auto sm = *find_workload("service_mix", opt_.tiny);
    sm.num_seeds = 16;
    const auto seeds = seed_list(opt_.seed, sm.num_seeds);
    probe_shapes_.raw("svc", JsonObject().num("p", sm.p)
                                 .num("n_per_pe", static_cast<double>(sm.n_per_pe))
                                 .num("jobs", sm.num_seeds).num("max_in_flight", kMaxInFlight)
                                 .done());
    service_ = std::make_unique<svc::SortService>(service_options());
    Tally tally(sm.num_seeds);
    std::vector<double> latencies;
    service_loop(sm, seeds, tally, 0, true, latencies, /*probe=*/true);
    merge_failures(tally);
    service_counters(*service_);
    service_.reset();
  }

  void service_counters(svc::SortService& service) {
    const int track = trace_.track("probe svc.noop_job_us");
    for (int c = 0; c < 20; ++c) {
      svc::JobSpec spec;
      spec.num_pes = 1;
      spec.program = [](net::Comm&) {};
      const double t0 = now_s();
      service.submit(std::move(spec)).wait();
      const double t1 = now_s();
      add_layer("svc.noop_job_us", (t1 - t0) * 1e6);
      trace_.span(track, "svc.noop_job", t0, t1);
    }
    const auto st = service.stats();
    add_layer("svc.admission_batches", static_cast<double>(st.admission_batches));
    add_layer("svc.peak_in_flight", static_cast<double>(st.peak_in_flight));
  }

  /// rlm on workloads that only run AMS: one traced RLM sort of seed 0 at
  /// the workload's shape, on its engine.
  void rlm_probe() {
    const auto cfg = config_for(w_, seeds_[0], harness::Algorithm::kRlm);
    auto board = std::make_shared<SpanBoard>(cfg.p);
    Tally tally(1);
    const int track = trace_.track("probe rlm.sort");
    try {
      const double t0 = now_s();
      const auto r = sort_on_engine(*engine_, cfg, board);
      const double t1 = now_s();
      tally.add(0, r);
      trace_.span(track, "sort", t0, t1, sort_args(cfg));
      const double a = board->first(1), e = board->last(2);
      add_layer("rlm.sort_s", e - a);
      trace_.span(track, "rlm.sort_s", a, e);
    } catch (const std::exception& e) {
      tally.fail(e);
    }
    merge_failures(tally);
  }

  void merge_failures(const Tally& t) {
    tally_.attempted += t.attempted;
    tally_.errors += t.errors;
    tally_.unverified += t.unverified;
    tally_.mismatches += t.mismatches;
    if (!t.last_error.empty()) tally_.last_error = t.last_error;
  }

  /// Layers read from the real sorts: RunReport / EngineStats, AmsStats,
  /// SpillTotals, and the executed-vs-model phase error.
  void add_real_sort_layers() {
    static constexpr std::array<net::Phase, 4> kPhases{
        net::Phase::kSplitterSelection, net::Phase::kBucketProcessing,
        net::Phase::kDataDelivery, net::Phase::kLocalSort};
    static constexpr std::array<const char*, 4> kPhaseNames{
        "splitter", "bucket", "delivery", "local_sort"};
    const auto machine = net::MachineParams::supermuc_like();
    const auto rs = ams::level_group_counts(w_.p, w_.levels, machine.pes_per_node);
    double imbalance = 0;
    for (std::size_t i = 0; i < tally_.first.size(); ++i) {
      const auto& r = tally_.first[i];
      if (!r) continue;
      const net::RunReport& rep = r->report;
      add_layer("net.msgs_max", static_cast<double>(rep.max_messages_sent));
      add_layer("net.bytes_total", static_cast<double>(rep.total_bytes_sent));
      for (double li : r->ams_stats.level_imbalance)
        imbalance = std::max(imbalance, li);
      const std::int64_t n_total = r->check.total;
      const harness::ModelPoint model =
          algorithm_of(w_, static_cast<int>(i)) == harness::Algorithm::kAms
              ? harness::model_ams(
                    machine, w_.p, w_.n_per_pe, rs,
                    std::max(1.0, 1.6 * std::log10(std::max<double>(
                                            static_cast<double>(n_total), 10.0))),
                    ams::AmsConfig{}.overpartition_b)
              : harness::model_rlm(machine, w_.p, w_.n_per_pe, rs);
      for (std::size_t k = 0; k < kPhases.size(); ++k) {
        const double executed = rep.phase(kPhases[k]);
        add_layer(std::string("virt.") + kPhaseNames[k] + "_s", executed);
        const double predicted = model.get(kPhases[k]);
        if (predicted > 0)
          add_layer(std::string("model.err_") + kPhaseNames[k],
                    (executed - predicted) / predicted);
      }
    }
    add_layer("ams.imbalance_max", imbalance);
    const net::EngineStats& es = tally_.engine;
    add_layer("net.peak_stack_mb",
              static_cast<double>(es.peak_stack_bytes) / (1 << 20));
    add_layer("net.mailbox_hwm", static_cast<double>(es.mailbox_node_high_water));
    add_layer("coll.ff_barriers", static_cast<double>(es.collective_fast_forwards));

    const auto& spills = w_.records ? tally_.spills : probe_spills_;
    std::int64_t hits = 0, misses = 0, coalesced = 0, behind = 0;
    for (const em::SpillTotals& t : spills) {
      add_layer("em.bytes_written", static_cast<double>(t.bytes_written));
      add_layer("em.bytes_read", static_cast<double>(t.bytes_read));
      add_layer("em.merge_passes", static_cast<double>(t.merge_passes));
      add_layer("em.io_wait_s", t.io_wait_sec);
      hits += t.prefetch_hits;
      misses += t.prefetch_misses;
      coalesced += t.write_coalesced;
      behind += t.writes_behind;
    }
    add_layer("em.prefetch_hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0);
    add_layer("em.coalesced_ratio",
              behind > 0 ? static_cast<double>(coalesced) / static_cast<double>(behind) : 0);
  }

  Workload w_;
  Options opt_;
  std::vector<std::uint64_t> seeds_;
  Tally tally_;
  Shape shape_;
  std::unique_ptr<net::Engine> engine_;
  std::unique_ptr<svc::SortService> service_;
  std::vector<double> setup_s_, sort_s_, traced_sort_s_;
  double loop_s_ = 0;
  std::map<std::string, std::vector<double>> layers_;
  std::vector<em::SpillTotals> probe_spills_;
  JsonObject probe_shapes_;
  Trace trace_;
};

int usage() {
  std::fputs(
      "usage: sortbench <ams_wide|ams_tall|service_mix|minute_spill> "
      "[--seed N] [--seconds S] [--trace 0|1] [--tiny] [--spill-dir DIR] "
      "[--trace-out FILE]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string_view(argv[++i]) == "1";
    } else if (a == "--spill-dir" && has_value) {
      g_spill_dir = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  const auto w = find_workload(opt.workload, opt.tiny);
  if (!w || opt.seconds < 0) return usage();

  Bench bench(*w, opt);
  bench.run();
  if (opt.trace && !opt.trace_out.empty() && !bench.write_trace()) {
    std::fprintf(stderr, "sortbench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", bench.result_json().c_str());
  return bench.failed() == 0 ? 0 : 1;
}
