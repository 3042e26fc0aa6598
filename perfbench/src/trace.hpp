// trace.hpp — in-memory span recorder for the traced benchmark pass.
//
// A span is one call into a simulator layer, timed from the benchmark's
// side of the boundary: name, start, end, the span that was open when it
// began (its parent) and the run id of the cell it belongs to.  Spans
// stay in memory while the pass runs and are written once at the end,
// together with a per-name self-time table (a span's duration minus the
// time its direct children cover).  Single-threaded: only the thread
// that drives the traced pass records.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< steady-clock ns since the tracer's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into Tracer::spans(), -1 = root
  std::int64_t run = -1;      ///< cell index the span belongs to, -1 = none
};

/// Self time of every span: duration minus the time covered by its
/// direct children.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Whether every child lies inside its parent and starts after it
/// (parents are recorded before their children).  Returns "" when they
/// nest, else a description of the first violation.
[[nodiscard]] std::string check_nesting(const std::vector<Span>& spans);

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Open a span under the innermost open one; returns its index.
  int open(std::string name, std::int64_t run = -1);
  /// Close the innermost open span, which must be `index`.
  void close(int index);

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] double duration_ms(int index) const {
    return static_cast<double>(spans_.at(static_cast<std::size_t>(index)).end_ns -
                               spans_.at(static_cast<std::size_t>(index)).start_ns) /
           1e6;
  }

  /// Write `spans.jsonl` (one span per line) and `self_time.tsv` (per
  /// span name: count, total ms, self ms, self share of the root span)
  /// into `dir`, creating it.  Throws std::runtime_error when unwritable.
  void write(const std::string& dir) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.  A null
/// tracer records nothing, so one code path serves traced and untraced
/// passes.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::int64_t run = -1)
      : tracer_(tracer), index_(tracer ? tracer->open(std::move(name), run) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
