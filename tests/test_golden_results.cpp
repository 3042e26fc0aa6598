// Golden result digests: fixed seed-2005 cells, each RunResult
// serialised through run_result_io (execution stamps cleared) and
// hashed, compared against the committed table in
// tests/golden_results.tsv.  Any change to simulation semantics shows up
// here as a diff of that table.  Four groups, one test each so ctest
// runs them side by side: the short seed matrix, the uplink shapes, the
// fig9_fast cells and a 2,000-node city cell
// (tests/support/golden_matrix.hpp).
//
// To regenerate the table after an intended semantic change, run
// `caem_tests --gtest_filter='GoldenResults.*'` (one process: each test
// rewrites its own rows in place) with CAEM_GOLDEN_REWRITE=1, and name
// the change in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_result_io.hpp"
#include "core/simulation_runner.hpp"
#include "support/golden_matrix.hpp"
#include "util/digest.hpp"

#ifndef CAEM_GOLDEN_TABLE
#error "CAEM_GOLDEN_TABLE must name the committed golden table"
#endif

namespace caem::core {
namespace {

constexpr std::uint64_t kSeed = 2005;

std::string result_digest(RunResult result) {
  result.wall_ms = 0.0;
  result.exec_host.clear();
  result.exec_pid = 0;
  return util::content_digest(to_json(result));
}

using Rows = std::vector<std::pair<std::string, std::string>>;  // in file order

Rows read_table() {
  Rows rows;
  std::ifstream in(CAEM_GOLDEN_TABLE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    rows.emplace_back(line.substr(0, tab), line.substr(tab + 1));
  }
  return rows;
}

// Replace the rows of `digests` in the table (appending new keys), keeping
// every other row where it is.
void rewrite_rows(const Rows& digests) {
  Rows rows = read_table();
  for (const auto& [key, digest] : digests) {
    const auto it = std::find_if(rows.begin(), rows.end(),
                                 [&key = key](const auto& row) { return row.first == key; });
    if (it != rows.end()) {
      it->second = digest;
    } else {
      rows.emplace_back(key, digest);
    }
  }
  std::ofstream out(CAEM_GOLDEN_TABLE);
  out << "# cell\tresult digest (seed " << kSeed
      << "; horizons in tests/support/golden_matrix.hpp)\n";
  for (const auto& [key, digest] : rows) out << key << '\t' << digest << '\n';
  ASSERT_TRUE(out.good()) << "could not rewrite " << CAEM_GOLDEN_TABLE;
}

void check_cells(const std::vector<test_support::GoldenCell>& cells) {
  Rows digests;
  for (const test_support::GoldenCell& cell : cells) {
    digests.emplace_back(cell.key, result_digest(SimulationRunner::run(
                                       cell.config, cell.protocol, kSeed, cell.options)));
  }

  const char* rewrite = std::getenv("CAEM_GOLDEN_REWRITE");
  if (rewrite != nullptr && std::string(rewrite) == "1") {
    rewrite_rows(digests);
    GTEST_SKIP() << "rewrote " << digests.size() << " digests";
  }

  const Rows rows = read_table();
  const std::map<std::string, std::string> table(rows.begin(), rows.end());
  for (const auto& [key, digest] : digests) {
    const auto it = table.find(key);
    ASSERT_NE(it, table.end()) << key << " not in the golden table";
    EXPECT_EQ(it->second, digest) << key;
  }
}

TEST(GoldenResults, SeedMatrixMatchesCommittedTable) {
  check_cells(test_support::golden_matrix());
  if (IsSkipped()) return;  // rewrite mode
  const std::size_t cells = test_support::golden_matrix().size() +
                            test_support::golden_uplink_cells().size() +
                            test_support::golden_fig9_fast_cells().size() +
                            test_support::golden_city_cells().size();
  EXPECT_EQ(read_table().size(), cells) << "the golden table has stale or missing rows";
}

TEST(GoldenResults, UplinkCellsMatchCommittedTable) {
  check_cells(test_support::golden_uplink_cells());
}

TEST(GoldenResults, Fig9FastCellsMatchCommittedTable) {
  check_cells(test_support::golden_fig9_fast_cells());
}

TEST(GoldenResults, CityCellMatchesCommittedTable) {
  check_cells(test_support::golden_city_cells());
}

}  // namespace
}  // namespace caem::core
