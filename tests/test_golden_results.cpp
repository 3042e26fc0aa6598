// Golden result digests: a fixed seed-2005 matrix of small runs, each
// RunResult serialised through run_result_io (execution stamps cleared)
// and hashed, compared against the committed table in
// tests/golden_results.tsv.  Any change to simulation semantics shows up
// here as a diff of that table.
//
// To regenerate the table after an intended semantic change, run the
// test with CAEM_GOLDEN_REWRITE=1 and name the change in CHANGES.md.
#include <gtest/gtest.h>

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

std::map<std::string, std::string> read_table(const std::string& path) {
  std::map<std::string, std::string> table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    table[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return table;
}

TEST(GoldenResults, SeedMatrixMatchesCommittedTable) {
  RunOptions options;
  options.max_sim_s = 20.0;
  std::vector<std::pair<std::string, std::string>> digests;
  for (const test_support::GoldenCell& cell : test_support::golden_matrix()) {
    digests.emplace_back(cell.key,
                         result_digest(SimulationRunner::run(cell.config, cell.protocol,
                                                             kSeed, options)));
  }

  const char* rewrite = std::getenv("CAEM_GOLDEN_REWRITE");
  if (rewrite != nullptr && std::string(rewrite) == "1") {
    std::ofstream out(CAEM_GOLDEN_TABLE);
    out << "# cell\tresult digest (seed " << kSeed
        << ", 20 s; see tests/test_golden_results.cpp)\n";
    for (const auto& [key, digest] : digests) out << key << '\t' << digest << '\n';
    ASSERT_TRUE(out.good()) << "could not rewrite " << CAEM_GOLDEN_TABLE;
    GTEST_SKIP() << "rewrote " << digests.size() << " digests";
  }

  const auto table = read_table(CAEM_GOLDEN_TABLE);
  ASSERT_EQ(table.size(), digests.size()) << "golden table is missing cells";
  for (const auto& [key, digest] : digests) {
    const auto it = table.find(key);
    ASSERT_NE(it, table.end()) << key << " not in the golden table";
    EXPECT_EQ(it->second, digest) << key;
  }
}

}  // namespace
}  // namespace caem::core
