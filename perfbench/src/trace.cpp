#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "common/error.hpp"

namespace perfbench {

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[it->second].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].dur_ns() - covered;
  }
  return self;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t op) {
  if (!enabled_) return 0;
  SpanRecord rec;
  rec.id = spans_.size() + 1;
  rec.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  rec.op = op;
  rec.name = std::move(name);
  rec.start_ns = now_ns();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  SpanRecord& rec = spans_[id - 1];
  rec.end_ns = now_ns();
  if (!open_.empty() && open_.back() == id - 1) open_.pop_back();
}

void Tracer::arg(std::uint64_t id, std::string key, double value) {
  if (id == 0) return;
  spans_[id - 1].args.emplace_back(std::move(key), value);
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw fixd::IoError("cannot write trace " + path.string());
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, ";
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f, ",
                  s.start_ns / 1e3, s.dur_ns() / 1e3);
    out << buf << "\"args\": {\"id\": " << s.id << ", \"parent\": "
        << s.parent << ", \"op\": " << s.op << ", \"end_us\": ";
    std::snprintf(buf, sizeof buf, "%.3f", s.end_ns / 1e3);
    out << buf;
    for (const auto& [k, v] : s.args) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out << ", \"" << k << "\": " << buf;
    }
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
