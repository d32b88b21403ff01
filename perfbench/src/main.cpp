// fixd_perfbench: runs one workload and prints its metrics.
//
//   fixd_perfbench --workload investigate|protect|service --seed N
//                  --seconds S --trace 0|1 [--out DIR] [--commit ID]
//
// Exit status 0 iff every output check passed and no operation failed.
// perfbench/run.py builds this binary and is the normal entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

/// Writes the spans once, at exit, and adds each span name's self time
/// (duration minus the time its children cover) to the report.
void write_trace(const perfbench::RunContext& ctx,
                 const perfbench::Tracer& tracer, perfbench::Result& result) {
  using namespace perfbench;
  const auto path = ctx.out_dir / ("trace-" + ctx.workload + "-seed" +
                                   std::to_string(ctx.seed) + ".json");
  std::filesystem::create_directories(ctx.out_dir);
  tracer.write_chrome_json(path);
  result.line("trace: " + path.string() + " (Chrome trace-event JSON, " +
              std::to_string(tracer.spans().size()) + " spans)");
  const std::vector<std::int64_t> self = self_times_ns(tracer.spans());
  std::map<std::string, std::pair<double, std::size_t>> by_name;
  for (std::size_t i = 0; i < self.size(); ++i) {
    auto& [ms, n] = by_name[tracer.spans()[i].name];
    ms += self[i] / 1e6;
    ++n;
  }
  for (const auto& [name, v] : by_name) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "span %-28s n=%-6zu self_ms=%.3f",
                  name.c_str(), v.second, v.first);
    result.line(buf);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") ctx.workload = v;
    else if (k == "--seed") ctx.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") ctx.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") ctx.trace = v == "1";
    else if (k == "--out") ctx.out_dir = v;
    else if (k == "--commit") ctx.commit = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (!(ctx.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  void (*run)(Bench&) = nullptr;
  if (ctx.workload == "investigate") run = run_investigate;
  if (ctx.workload == "protect") run = run_protect;
  if (ctx.workload == "service") run = run_service;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", ctx.workload.c_str());
    return 2;
  }

  std::printf("fixd_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, ctx.trace ? 1 : 0);
  Tracer tracer(ctx.trace);
  Result result;
  Bench bench{ctx, tracer, result};
  try {
    run(bench);
    if (tracer.enabled()) write_trace(ctx, tracer, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload aborted: %s\n", e.what());
    return 1;
  }
  return result.emit(ctx);
}

