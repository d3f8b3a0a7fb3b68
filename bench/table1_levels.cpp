// Table 1: "Selection of r for weak scaling experiments" — the per-level
// group counts chosen by the level-configuration rule for k ∈ {1, 2, 3}
// and every p of bench::paper_ps(): the paper's 512, 2048, 8192 and 32768,
// plus 131072, which the paper's table does not list.
//
// The rule reproduces the paper's multi-level rows exactly (last level 16 =
// node-internal, first levels split p/16 into near-equal powers of two).
// For k = 1 a single level must split all the way down, so r = p (the paper
// lists the node size there, which cannot multiply to p; see
// docs/DESIGN.md §4).

#include <cstdio>
#include <string>

#include "ams/level_config.hpp"
#include "bench_common.hpp"
#include "harness/tables.hpp"

int main(int argc, char** argv) {
  using namespace pmps;
  const auto flags = bench::Flags::parse(argc, argv);

  std::printf("Table 1: selection of r (groups per level)\n\n");
  std::vector<std::string> header{"k", "level"};
  for (std::int64_t p : bench::paper_ps())
    header.push_back("p=" + std::to_string(p));
  harness::Table table(std::move(header));
  for (int k = 1; k <= 3; ++k) {
    std::vector<std::vector<int>> configs;
    for (std::int64_t p : bench::paper_ps())
      configs.push_back(ams::level_group_counts(p, k));
    std::size_t max_levels = 0;
    for (const auto& c : configs) max_levels = std::max(max_levels, c.size());
    for (std::size_t lvl = 0; lvl < max_levels; ++lvl) {
      std::vector<std::string> row;
      row.push_back(lvl == 0 ? std::to_string(k) : "");
      row.push_back(std::to_string(lvl + 1));
      for (const auto& c : configs)
        row.push_back(lvl < c.size() ? std::to_string(c[lvl]) : "-");
      table.add_row(std::move(row));
    }
  }
  if (flags.csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf(
      "\npaper reference (k=2): 32/16, 128/16, 512/16, 2048/16\n"
      "paper reference (k=3): 8/4/16, 16/8/16, 32/16/16, 64/32/16\n");
  return 0;
}
