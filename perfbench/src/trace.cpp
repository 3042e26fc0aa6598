#include "trace.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& span : spans) {
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
  }
  return self;
}

std::string check_nesting(const std::vector<Span>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns < span.start_ns) return "span " + std::to_string(i) + " ends before it starts";
    if (span.parent < 0) continue;
    if (static_cast<std::size_t>(span.parent) >= i) {
      return "span " + std::to_string(i) + " precedes its parent";
    }
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      return "span " + std::to_string(i) + " (" + span.name + ") escapes its parent " +
             parent.name;
    }
  }
  return "";
}

int Tracer::open(std::string name, std::int64_t run) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  // Scopes close in LIFO order by construction; anything else would be a
  // bug in this file, and check_nesting() would report the open span.
  if (open_.empty() || open_.back() != index) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::write(const std::string& dir) const {
  std::filesystem::create_directories(dir);
  std::ofstream dump(std::filesystem::path(dir) / "spans.jsonl");
  if (!dump) throw std::runtime_error("cannot write spans to '" + dir + "'");
  for (const Span& span : spans_) {
    dump << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
         << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
         << ",\"run\":" << span.run << "}\n";
  }

  struct Row {
    std::size_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  std::int64_t root_ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    row.self_ns += self[i];
    if (spans_[i].parent < 0) root_ns += spans_[i].end_ns - spans_[i].start_ns;
  }
  std::ofstream table(std::filesystem::path(dir) / "self_time.tsv");
  if (!table) throw std::runtime_error("cannot write self-time table to '" + dir + "'");
  table << "span\tcount\ttotal_ms\tself_ms\tself_share\n";
  for (const auto& [name, row] : rows) {
    table << name << '\t' << row.count << '\t' << static_cast<double>(row.total_ns) / 1e6 << '\t'
          << static_cast<double>(row.self_ns) / 1e6 << '\t'
          << (root_ns > 0 ? static_cast<double>(row.self_ns) / static_cast<double>(root_ns) : 0.0)
          << '\n';
  }
}

}  // namespace perfbench
