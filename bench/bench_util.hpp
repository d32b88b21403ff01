// Shared helpers for the figure-reproduction benches: wall timing,
// fixed-width table printing, so every bench emits the paper-shaped rows,
// and the JSON writer behind every BENCH_*.json record.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace fixd::bench {

class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(clock::now() - start_)
        .count();
  }
  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

inline void rule() {
  std::printf("%s\n", std::string(78, '-').c_str());
}

/// Streaming writer for the BENCH_*.json records. The top-level object and
/// every array put one member per line, indented two spaces per level;
/// any other object prints on one line, so each array row stays one line.
/// Doubles take the printf format they are reported with (e.g. "%.3f").
/// Keys and strings are plain text and are not escaped.
class JsonWriter {
 public:
  JsonWriter() : out_("{"), open_{{/*block=*/true, /*empty=*/true}} {}

  JsonWriter& u64(const char* key, std::uint64_t v) {
    return field(key, std::to_string(v));
  }
  JsonWriter& boolean(const char* key, bool v) {
    return field(key, v ? "true" : "false");
  }
  JsonWriter& str(const char* key, const std::string& v) {
    return field(key, "\"" + v + "\"");
  }
  JsonWriter& num(const char* key, double v, const char* fmt) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return field(key, buf);
  }
  /// Open a one-line object: a member of the enclosing object under
  /// `key`, or (key omitted) the next row of the enclosing array.
  JsonWriter& object(const char* key = nullptr) {
    return open(key, '{', /*block=*/false);
  }
  /// Open an array, one row per line.
  JsonWriter& array(const char* key) { return open(key, '[', true); }
  /// Close the innermost open object or array.
  JsonWriter& end() {
    const Level l = open_.back();
    open_.pop_back();
    if (l.block) newline();
    out_ += l.close;
    return *this;
  }

  /// Close the top-level object and write the record to `path`.
  bool write(const char* path) {
    while (!open_.empty()) end();
    std::FILE* f = std::fopen(path, "w");
    if (!f) return false;
    const bool ok = std::fputs((out_ + "\n").c_str(), f) >= 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Level {
    bool block;
    bool empty;
    char close = '}';
  };

  void newline() {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
  /// Separator and (when given) key for the next member.
  void member(const char* key) {
    Level& l = open_.back();
    if (!l.empty) out_ += l.block ? "," : ", ";
    l.empty = false;
    if (l.block) newline();
    if (key) (out_ += '"').append(key) += "\": ";
  }
  JsonWriter& field(const char* key, const std::string& v) {
    member(key);
    out_ += v;
    return *this;
  }
  JsonWriter& open(const char* key, char bracket, bool block) {
    member(key);
    out_ += bracket;
    open_.push_back({block, true, bracket == '{' ? '}' : ']'});
    return *this;
  }

  std::string out_;
  std::vector<Level> open_;
};

}  // namespace fixd::bench
