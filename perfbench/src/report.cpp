#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Result::metric(std::string name, double value, std::string unit,
                    std::size_t n, std::string note) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), n, std::move(note)});
}

void Result::timing(std::string name, const std::vector<double>& samples,
                    std::string unit, std::string note) {
  const Summary s = summarize(samples);
  std::ostringstream os;
  os << "median of n=" << s.n;
  if (s.tail.q > 0) {
    os << "; " << s.tail.label() << "=" << json_number(s.tail.value) << " "
       << unit;
  } else {
    os << "; no percentile above the median has 10 samples beyond it";
  }
  if (!note.empty()) os << "; " << note;
  metric(std::move(name), s.p50, std::move(unit), s.n, os.str());
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}
}  // namespace

std::string metadata_json(const RunContext& ctx) {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(ctx.workload)
     << ", \"seed\": " << ctx.seed
     << ", \"seconds\": " << json_number(ctx.seconds)
     << ", \"trace\": " << (ctx.trace ? 1 : 0)
     << ", \"commit\": " << json_string(ctx.commit)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << json_string(cpu_model())
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"flags\": " << json_string(PERFBENCH_FLAGS)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}";
  return os.str();
}

int Result::emit(const RunContext& ctx) const {
  const bool ok = correct() && ops.failed() == 0;
  std::printf("\n%-28s %18s  %-9s %7s  %s\n", "metric", "value", "unit", "n",
              "how");
  for (const Metric& m : metrics_) {
    std::printf("%-28s %18.6g  %-9s %7zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n, m.note.c_str());
  }
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  std::printf("ops: attempted=%zu failed=%zu error_rate=%s\n", ops.attempted(),
              ops.failed(), json_number(ops.error_rate()).c_str());
  for (const std::string& e : errors_) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }

  std::ostringstream rec;
  rec << "{\"meta\": " << metadata_json(ctx) << ", \"correct\": "
      << (ok ? "true" : "false") << ", \"attempted\": " << ops.attempted()
      << ", \"failed\": " << ops.failed()
      << ", \"error_rate\": " << json_number(ops.error_rate())
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    rec << (i ? ", " : "") << json_string(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << ", \"n\": " << m.n
        << ", \"how\": " << json_string(m.note) << "}";
  }
  rec << "}, \"checks_failed\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    rec << (i ? ", " : "") << json_string(errors_[i]);
  }
  rec << "], \"lines\": [";
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    rec << (i ? ", " : "") << json_string(lines_[i]);
  }
  rec << "]}\n";
  std::filesystem::create_directories(ctx.out_dir);
  const auto path = ctx.out_dir / (ctx.workload + "-seed" +
                                   std::to_string(ctx.seed) + "-trace" +
                                   (ctx.trace ? "1" : "0") + ".json");
  std::ofstream(path) << rec.str();
  std::printf("record: %s\n", path.string().c_str());
  std::printf("meta: %s\n", metadata_json(ctx).c_str());

  std::ostringstream last;
  last << "{\"correct\": " << (ok ? "true" : "false")
       << ", \"attempted\": " << ops.attempted()
       << ", \"failed\": " << ops.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    last << (i ? ", " : "") << json_string(m.name)
         << ": {\"value\": " << json_number(m.value)
         << ", \"unit\": " << json_string(m.unit) << "}";
  }
  last << "}}";
  std::printf("%s\n", last.str().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace perfbench
