// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into the library
// (the library itself carries no tracing). They stay in memory and are
// written once, at exit, as Chrome trace-event JSON that Perfetto and
// chrome://tracing open. Single-threaded: only the load-generating thread
// records, so the parent of a span is whatever span is open when it begins.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation the span belongs to (0 = none)
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> args;
  std::int64_t dur_ns() const { return end_ns - start_ns; }
};

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its direct children cover (overlapping children are
/// counted once; a child sticking out of its parent is clipped).
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh operation id; spans begun under it share it.
  std::uint64_t new_op() { return enabled_ ? ++last_op_ : 0; }

  /// Opens a span under the innermost open span. Returns 0 when disabled.
  std::uint64_t begin(std::string name, std::uint64_t op);
  void end(std::uint64_t id);
  void arg(std::uint64_t id, std::string key, double value);

  std::int64_t now_ns() const;

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::uint64_t last_op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& t, std::string name, std::uint64_t op)
      : t_(t), id_(t.begin(std::move(name), op)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string key, double value) {
    t_.arg(id_, std::move(key), value);
  }

 private:
  Tracer& t_;
  std::uint64_t id_;
};

}  // namespace perfbench
