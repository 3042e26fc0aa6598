// perfbench — run one benchmark workload and print its metrics as JSON.
//
//   perfbench --workload fig9-paper|city-10k|sweep-cache --seed N --seconds S
//             --trace 0|1 --work DIR [--trace-dir DIR]
//
// --trace 0 runs untraced passes for S seconds and reports the
// end-to-end metrics; --trace 1 runs one traced pass plus the per-layer
// probes.  The last line of stdout is one JSON object: metrics, the
// attempted/failed operation counts, failure notes and the output
// digests perfbench/run.py compares with perfbench/reference.json.
// Exit code 0 on a completed measurement (failed outputs included),
// 2 on bad arguments or an error.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "workload.hpp"

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR "
               "[--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold (glibc's default value, without its dynamic
  // raising): every large block is mapped and returned on free, so peak
  // RSS follows live data.  With the dynamic threshold, fig9-paper's peak
  // RSS was 15.4 MB on some seeds and 17.2 MB on others.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::string workload_name;
  std::uint64_t seed = perfbench::kReferenceSeed;
  bool traced = false;
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        traced = value == "1";
      } else if (flag == "--work") {
        options.work_dir = value;
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (workload_name.empty() || options.work_dir.empty()) return usage("--workload and --work are required");

  try {
    const perfbench::Workload workload = perfbench::make_workload(workload_name, seed);
    const perfbench::Report report =
        traced ? perfbench::run_traced(workload, options) : perfbench::run_untraced(workload, options);
    std::ostringstream out;
    out << "{\"workload\":" << quoted(workload.name) << ",\"seed\":" << seed
        << ",\"trace\":" << (traced ? 1 : 0) << ",\"passes\":" << report.passes
        << ",\"attempted\":" << report.attempted << ",\"failed\":" << report.failed
        << ",\"failures\":[";
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
      out << (i ? "," : "") << quoted(report.failures[i]);
    }
    out << "],\"checks\":[";
    for (std::size_t i = 0; i < report.checks.size(); ++i) {
      const perfbench::Check& check = report.checks[i];
      out << (i ? "," : "") << "{\"id\":" << quoted(check.id)
          << ",\"digest\":" << quoted(check.digest) << ",\"ops\":" << check.ops << "}";
    }
    out << "],\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const perfbench::Metric& metric = report.metrics[i];
      out << (i ? "," : "") << quoted(metric.name) << ":{\"value\":" << number(metric.value)
          << ",\"unit\":" << quoted(metric.unit) << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
  return 0;
}
