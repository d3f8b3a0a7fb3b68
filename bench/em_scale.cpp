// Out-of-core scaling bench: executed AMS-sort and RLM-sort under shrinking
// memory budgets, reporting host-time runs/sec and the spill I/O the budget
// induces (runs formed, bytes spilled and read back per sort).
//
// The interesting claims are (a) the spill machinery's host-time overhead
// stays modest while bytes_spilled grows as the budget shrinks, and (b) the
// out-of-core path is *observationally identical* to the in-memory path:
// same verify result, same virtual wall-time, and bit-identical per-PE
// output (asserted here via an order-dependent output signature).
//
// Results land in BENCH_em_scale.json. With --check the bench exits
// non-zero unless every row verifies, every budgeted row actually spilled,
// the unlimited row did not, and signatures and virtual times match across
// budgets — the CI acceptance gate for the out-of-core subsystem.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "ams/ams_sort.hpp"
#include "bench_common.hpp"
#include "common/check.hpp"
#include "common/random.hpp"
#include "em/memory_budget.hpp"
#include "harness/tables.hpp"
#include "harness/verify.hpp"
#include "harness/workloads.hpp"
#include "net/comm.hpp"
#include "net/engine.hpp"
#include "rlm/rlm_sort.hpp"

using namespace pmps;

namespace {

constexpr int kP = 16;
constexpr std::int64_t kNPerPe = 40000;  // 320 KB of keys per PE

struct Outcome {
  bool verified = false;
  double virtual_time = 0;
  std::uint64_t out_signature = 0;  ///< order-dependent; bit-identity witness
  em::SpillTotals spill;
  double host_sec = 0;
};

/// One executed sort. The signature hashes every PE's output *in order*
/// (FNV within a PE, keyed by rank across PEs), so equal signatures mean
/// bit-identical outputs, not just equal multisets.
Outcome run_once(bool rlm, std::int64_t budget_bytes, std::uint64_t seed) {
  Outcome o;
  em::SpillStats stats;
  em::MemoryBudget budget;
  budget.bytes = budget_bytes;
  budget.block_bytes = 8192;
  budget.stats = &stats;

  net::Engine engine(kP, net::MachineParams::supermuc_like(), seed);
  std::mutex mu;
  const double t0 = bench::now_sec();
  engine.run([&](net::Comm& comm) {
    auto data = harness::make_workload(harness::Workload::kUniform,
                                       comm.rank(), kP, kNPerPe, seed);
    const auto in_hash = harness::content_hash(
        std::span<const std::uint64_t>(data.data(), data.size()));
    if (rlm) {
      rlm::RlmConfig cfg;
      cfg.levels = 2;
      cfg.seed = seed;
      cfg.budget = budget;
      rlm::rlm_sort(comm, data, cfg);
    } else {
      ams::AmsConfig cfg;
      cfg.levels = 2;
      cfg.seed = seed;
      cfg.budget = budget;
      ams::ams_sort(comm, data, cfg);
    }
    const auto check = harness::verify_sorted_output(
        comm, std::span<const std::uint64_t>(data.data(), data.size()),
        in_hash, kNPerPe);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (auto v : data) h = (h ^ mix64(v)) * 0x100000001b3ULL;
    std::lock_guard lock(mu);
    o.out_signature += mix64(h ^ mix64(static_cast<std::uint64_t>(comm.rank())));
    if (comm.rank() == 0) o.verified = check.ok();
  });
  o.host_sec = bench::now_sec() - t0;
  o.virtual_time = engine.report().wall_time;
  o.spill = stats.totals();
  return o;
}

std::string fmt_kb(std::int64_t bytes) {
  if (bytes <= 0) return "unlimited";
  return std::to_string(bytes / 1024) + " KB";
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = bench::Flags::parse(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--check") == 0) check = true;

  // Budgets from "everything fits" down to 1/20 of the per-PE data.
  const std::vector<std::int64_t> budgets{0, 256 * 1024, 64 * 1024, 16 * 1024};

  std::printf(
      "Out-of-core scaling: executed AMS/RLM sort, p = %d, n/p = %lld "
      "(%lld KB per PE), spill blocks of 8 KB\n\n",
      kP, static_cast<long long>(kNPerPe),
      static_cast<long long>(kNPerPe * 8 / 1024));

  struct Row {
    const char* algo = "";
    std::int64_t budget = 0;
    double runs_per_sec = 0;
    double virtual_time = 0;
    std::uint64_t signature = 0;
    bool verified = false;
    em::SpillTotals spill;  ///< per sort (averaged over reps)
  };
  std::vector<Row> rows;
  harness::Table table({"algo", "budget", "runs/s", "virt time [s]",
                        "runs formed", "spilled [KB]", "read [KB]", "verify"});

  for (const bool rlm : {false, true}) {
    for (const auto budget : budgets) {
      Row row;
      row.algo = rlm ? "RLM" : "AMS";
      row.budget = budget;
      const int reps = std::max(1, flags.reps);
      double total_sec = 0;
      em::SpillTotals acc;
      for (int rep = 0; rep < reps; ++rep) {
        const auto o = run_once(rlm, budget, flags.seed);
        total_sec += o.host_sec;
        row.virtual_time = o.virtual_time;
        row.signature = o.out_signature;
        row.verified = o.verified;
        acc = o.spill;  // per-run stats (fresh SpillStats each run)
      }
      row.runs_per_sec = total_sec > 0 ? reps / total_sec : 0;
      row.spill = acc;
      rows.push_back(row);
      table.add_row(
          {row.algo, fmt_kb(budget), harness::format_double(row.runs_per_sec, 2),
           harness::format_double(row.virtual_time, 4),
           std::to_string(row.spill.runs_written),
           std::to_string(row.spill.bytes_written / 1024),
           std::to_string(row.spill.bytes_read / 1024),
           row.verified ? "OK" : "FAIL"});
    }
  }
  flags.csv ? table.print_csv() : table.print();

  if (FILE* f = std::fopen("BENCH_em_scale.json", "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"em_scale\",\n  \"p\": %d,\n"
                 "  \"n_per_pe\": %lld,\n  \"block_bytes\": 8192,\n"
                 "  \"rows\": [\n",
                 kP, static_cast<long long>(kNPerPe));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"algo\": \"%s\", \"budget_bytes\": %lld, "
          "\"runs_per_sec\": %.3f, \"virtual_time\": %.6f, "
          "\"runs_written\": %lld, \"bytes_spilled\": %lld, "
          "\"bytes_read\": %lld, \"verified\": %s}%s\n",
          r.algo, static_cast<long long>(r.budget), r.runs_per_sec,
          r.virtual_time, static_cast<long long>(r.spill.runs_written),
          static_cast<long long>(r.spill.bytes_written),
          static_cast<long long>(r.spill.bytes_read),
          r.verified ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_em_scale.json\n");
  }

  if (check) {
    bool ok = true;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      if (!r.verified) {
        std::printf("check: FAIL — %s at budget %s did not verify\n", r.algo,
                    fmt_kb(r.budget).c_str());
        ok = false;
      }
      if (r.budget > 0 && !r.spill.spilled()) {
        std::printf("check: FAIL — %s at budget %s spilled nothing\n", r.algo,
                    fmt_kb(r.budget).c_str());
        ok = false;
      }
      if (r.budget == 0 && r.spill.spilled()) {
        std::printf("check: FAIL — %s spilled with an unlimited budget\n",
                    r.algo);
        ok = false;
      }
      // Compare against the unlimited-budget row of the same algorithm
      // (rows are grouped per algo with budgets[0] == 0 first).
      const Row& base = rows[i - i % budgets.size()];
      if (r.signature != base.signature) {
        std::printf(
            "check: FAIL — %s at budget %s is not bit-identical to the "
            "in-memory run\n",
            r.algo, fmt_kb(r.budget).c_str());
        ok = false;
      }
      if (r.virtual_time != base.virtual_time) {
        std::printf(
            "check: FAIL — %s at budget %s changed virtual time "
            "(%.6f vs %.6f): spilling leaked into the machine model\n",
            r.algo, fmt_kb(r.budget).c_str(), r.virtual_time,
            base.virtual_time);
        ok = false;
      }
    }
    if (ok)
      std::printf(
          "check: OK (all rows verified; budgeted rows spilled; outputs "
          "bit-identical and virtual time unchanged across budgets)\n");
    return ok ? 0 : 1;
  }
  return 0;
}
