// MinuteSort-regime bench (§7.3): executed AMS-sort over 100-byte
// sort-benchmark records, through the out-of-core path.
//
// The paper positions AMS-sort against the sortbenchmark.org MinuteSort
// entries (TritonSort, Baidu-Sort), whose regime is 100-byte records far
// larger than RAM. This bench runs that regime end to end on the simulated
// cluster: a (n/p × budget) grid of Record100 AMS sorts — plus the same
// grid over plain u64 keys as an ablation — reporting the MinuteSort
// figure of merit (records sorted per simulated minute) and the spill I/O
// each budget induces. Budgets are fractions of the per-PE payload, so
// every budgeted row actually exercises streaming classification and the
// fan-in-bounded multi-pass merge.
//
// Results land in BENCH_minute_sort.json. With --check the bench is the
// CI acceptance gate for the MinuteSort regime: every row must verify,
// budgeted rows must spill, virtual time and the order-dependent output
// signature must be identical across budgets — and a final run lowers
// RLIMIT_NOFILE to 64 in-process and executes a budgeted Record100 sort at
// p = 1024 (one shared spill file for all 1024 PEs), asserting it verifies
// and is bit-identical to the unbudgeted in-memory run.

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "em/memory_budget.hpp"
#include "harness/runner.hpp"
#include "harness/tables.hpp"

using namespace pmps;

namespace {

constexpr int kP = 32;
constexpr std::int64_t kBlockBytes = 2048;

struct Row {
  harness::ElementKind element = harness::ElementKind::kRecord100;
  std::int64_t n_per_pe = 0;
  int divisor = 0;  ///< budget = payload / divisor; 0 = unlimited
  double recs_per_sim_minute = 0;
  double virtual_time = 0;
  double runs_per_sec = 0;
  std::uint64_t signature = 0;
  bool verified = false;
  em::SpillTotals spill;
};

harness::RunConfig base_config(harness::ElementKind element,
                               std::int64_t n_per_pe, int divisor, int p,
                               std::uint64_t seed) {
  harness::RunConfig cfg;
  cfg.p = p;
  cfg.n_per_pe = n_per_pe;
  cfg.element = element;
  cfg.algorithm = harness::Algorithm::kAms;
  cfg.ams.levels = 2;
  cfg.seed = seed;
  if (divisor > 0) {
    const std::int64_t elem_bytes =
        element == harness::ElementKind::kRecord100 ? 100 : 8;
    cfg.budget.bytes = std::max<std::int64_t>(1, n_per_pe * elem_bytes / divisor);
    cfg.budget.block_bytes = kBlockBytes;
  }
  return cfg;
}

std::string budget_label(int divisor) {
  if (divisor == 0) return "unlimited";
  return "payload/" + std::to_string(divisor);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::Flags::parse(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--check") == 0) check = true;

  const std::vector<std::int64_t> ns{500, 2000};
  const std::vector<int> divisors{0, 4, 16};

  std::printf(
      "MinuteSort regime: executed AMS-sort, p = %d, Record100 vs u64, "
      "spill blocks of %lld B\n\n",
      kP, static_cast<long long>(kBlockBytes));

  std::vector<Row> rows;
  harness::Table table({"element", "n/p", "budget", "recs/sim-min",
                        "virt time [s]", "runs/s", "spilled [KB]",
                        "merge passes", "verify"});

  for (const auto element :
       {harness::ElementKind::kRecord100, harness::ElementKind::kU64}) {
    for (const auto n_per_pe : ns) {
      for (const int divisor : divisors) {
        Row row;
        row.element = element;
        row.n_per_pe = n_per_pe;
        row.divisor = divisor;
        const int reps = std::max(1, flags.reps);
        double total_sec = 0;
        for (int rep = 0; rep < reps; ++rep) {
          const auto cfg =
              base_config(element, n_per_pe, divisor, kP, flags.seed);
          const double t0 = bench::now_sec();
          const auto res = harness::run_sort_experiment(cfg);
          total_sec += bench::now_sec() - t0;
          row.virtual_time = res.wall_time();
          row.signature = res.check.out_signature;
          row.verified = res.check.ok();
          row.spill = res.spill;
          const double total_recs = static_cast<double>(res.check.total);
          row.recs_per_sim_minute =
              res.wall_time() > 0 ? total_recs * 60.0 / res.wall_time() : 0;
        }
        row.runs_per_sec = total_sec > 0 ? reps / total_sec : 0;
        rows.push_back(row);
        table.add_row({std::string(harness::element_name(element)),
                       std::to_string(n_per_pe), budget_label(divisor),
                       harness::format_double(row.recs_per_sim_minute, 0),
                       harness::format_double(row.virtual_time, 4),
                       harness::format_double(row.runs_per_sec, 2),
                       std::to_string(row.spill.bytes_written / 1024),
                       std::to_string(row.spill.merge_passes),
                       row.verified ? "OK" : "FAIL"});
      }
    }
  }
  flags.csv ? table.print_csv() : table.print();

  if (FILE* f = std::fopen("BENCH_minute_sort.json", "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"minute_sort\",\n  \"p\": %d,\n"
                 "  \"block_bytes\": %lld,\n  \"rows\": [\n",
                 kP, static_cast<long long>(kBlockBytes));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"element\": \"%s\", \"n_per_pe\": %lld, "
          "\"budget_divisor\": %d, \"recs_per_sim_minute\": %.1f, "
          "\"virtual_time\": %.6f, \"runs_per_sec\": %.3f, "
          "\"bytes_spilled\": %lld, \"merge_passes\": %lld, "
          "\"verified\": %s}%s\n",
          std::string(harness::element_name(r.element)).c_str(),
          static_cast<long long>(r.n_per_pe), r.divisor, r.recs_per_sim_minute,
          r.virtual_time, r.runs_per_sec,
          static_cast<long long>(r.spill.bytes_written),
          static_cast<long long>(r.spill.merge_passes),
          r.verified ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_minute_sort.json\n");
  }

  if (!check) return 0;

  bool ok = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const char* elem = r.element == harness::ElementKind::kRecord100
                           ? "record100"
                           : "u64";
    if (!r.verified) {
      std::printf("check: FAIL — %s n/p=%lld %s did not verify\n", elem,
                  static_cast<long long>(r.n_per_pe),
                  budget_label(r.divisor).c_str());
      ok = false;
    }
    if (r.divisor > 0 && !r.spill.spilled()) {
      std::printf("check: FAIL — %s n/p=%lld %s spilled nothing\n", elem,
                  static_cast<long long>(r.n_per_pe),
                  budget_label(r.divisor).c_str());
      ok = false;
    }
    if (r.divisor == 0 && r.spill.spilled()) {
      std::printf("check: FAIL — %s n/p=%lld spilled while unlimited\n", elem,
                  static_cast<long long>(r.n_per_pe));
      ok = false;
    }
    // Regression floor: the simulated cluster must stay in a sane
    // throughput regime (two orders of magnitude below observed values).
    if (r.recs_per_sim_minute < 1e4) {
      std::printf("check: FAIL — %s n/p=%lld %s below the throughput floor "
                  "(%.0f recs/sim-min)\n",
                  elem, static_cast<long long>(r.n_per_pe),
                  budget_label(r.divisor).c_str(), r.recs_per_sim_minute);
      ok = false;
    }
    // Budgeted rows must be bit-identical to the unlimited row of the same
    // (element, n/p) — rows are grouped with divisor 0 first.
    const Row& base = rows[i - i % divisors.size()];
    if (r.signature != base.signature) {
      std::printf("check: FAIL — %s n/p=%lld %s not bit-identical to the "
                  "in-memory run\n",
                  elem, static_cast<long long>(r.n_per_pe),
                  budget_label(r.divisor).c_str());
      ok = false;
    }
    if (r.virtual_time != base.virtual_time) {
      std::printf("check: FAIL — %s n/p=%lld %s changed virtual time "
                  "(%.6f vs %.6f): spilling leaked into the machine model\n",
                  elem, static_cast<long long>(r.n_per_pe),
                  budget_label(r.divisor).c_str(), r.virtual_time,
                  base.virtual_time);
      ok = false;
    }
  }

  // Acceptance run (ISSUE 9): RLIMIT_NOFILE = 64 in-process, then a
  // budgeted Record100 AMS sort at p = 1024 — 1024 spilling PEs sharing
  // one spill file — must execute, verify, engage the multi-pass merge,
  // and match the unbudgeted run bit-for-bit in output and virtual time.
  {
    struct rlimit lim;
    PMPS_CHECK(getrlimit(RLIMIT_NOFILE, &lim) == 0);
    lim.rlim_cur = 64;
    PMPS_CHECK(setrlimit(RLIMIT_NOFILE, &lim) == 0);

    const int p = 1024;
    const std::int64_t n_per_pe = 200;  // 20 KB of records per PE
    auto mem_cfg = base_config(harness::ElementKind::kRecord100, n_per_pe,
                               0, p, flags.seed);
    auto spill_cfg = base_config(harness::ElementKind::kRecord100, n_per_pe,
                                 0, p, flags.seed);
    spill_cfg.budget.bytes = 2048;      // 20 records resident per PE stage
    spill_cfg.budget.block_bytes = 512;
    const auto mem = harness::run_sort_experiment(mem_cfg);
    const auto spill = harness::run_sort_experiment(spill_cfg);
    std::printf(
        "\nacceptance: p=1024 Record100 under RLIMIT_NOFILE=64 — "
        "verify %s/%s, spilled %lld KB, merge passes %lld, "
        "virt %.6f vs %.6f\n",
        mem.check.ok() ? "OK" : "FAIL", spill.check.ok() ? "OK" : "FAIL",
        static_cast<long long>(spill.spill.bytes_written / 1024),
        static_cast<long long>(spill.spill.merge_passes), spill.wall_time(),
        mem.wall_time());
    if (!mem.check.ok() || !spill.check.ok()) ok = false;
    if (!spill.spill.spilled() || spill.spill.merge_passes < 1) {
      std::printf("check: FAIL — acceptance run did not exercise the "
                  "multi-pass spill path\n");
      ok = false;
    }
    if (spill.check.out_signature != mem.check.out_signature ||
        spill.wall_time() != mem.wall_time()) {
      std::printf("check: FAIL — acceptance run not bit-identical to the "
                  "in-memory run\n");
      ok = false;
    }
  }

  if (ok)
    std::printf(
        "check: OK (all rows verified; budgeted rows spilled; outputs "
        "bit-identical and virtual time unchanged across budgets; p=1024 "
        "shared-spill-file acceptance passed under RLIMIT_NOFILE=64)\n");
  return ok ? 0 : 1;
}
