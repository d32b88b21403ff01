// Figure 7 — The components of the ModelD model checker.
//
// Micro-benchmarks of the back-end engine: raw state-transition throughput,
// reachability-graph construction, the cost of each search order, and the
// price of the dynamic action-set feature (guard re-evaluation with
// injected actions). Plus the daemon-mode rows: RPC round-trip latency
// (p50/p99) against an in-process fixdd over a unix socket, clean and under
// the deterministic fault shim, and the overhead of journaling durable
// checkpoints of a live investigation. google-benchmark binary; exits
// nonzero when the checkpoint-overhead gate (BM_CheckpointOverheadGate)
// fails.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/io.hpp"
#include "mc/modeld.hpp"
#include "svc/client.hpp"
#include "svc/jobd.hpp"

namespace {

using namespace fixd;
using namespace fixd::mc;

// A family of bounded counter lattices: `n` independent counters, each up
// to `k` — reachable states = (k+1)^n, the classic interleaving lattice.
struct LatticeState {
  std::array<std::uint8_t, 8> c{};
  void save(BinaryWriter& w) const {
    for (auto v : c) w.write_u8(v);
  }
};

GuardedModel<LatticeState> make_lattice(int n, int k) {
  auto m = GuardedModel<LatticeState>::with_serial_hash(LatticeState{});
  for (int i = 0; i < n; ++i) {
    m.add_action(
        "inc" + std::to_string(i),
        [i, k](const LatticeState& s) { return s.c[i] < k; },
        [i](LatticeState& s) { ++s.c[i]; });
  }
  return m;
}

void BM_EngineThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  auto model = make_lattice(n, k);
  std::uint64_t states = 0;
  for (auto _ : state) {
    Explorer<LatticeState> ex(model, {.order = SearchOrder::kBfs});
    auto res = ex.explore();
    states += res.stats.states;
    benchmark::DoNotOptimize(res.stats.states);
  }
  state.counters["states"] = static_cast<double>(states / state.iterations());
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}

void BM_SearchOrder(benchmark::State& state) {
  auto order = static_cast<SearchOrder>(state.range(0));
  auto model = make_lattice(4, 6);  // 2401 states
  for (auto _ : state) {
    ExploreOptions o;
    o.order = order;
    o.max_depth = 64;
    o.walk_restarts = 32;
    Explorer<LatticeState> ex(model, o);
    if (order == SearchOrder::kPriority) {
      ex.set_priority([](const LatticeState& s) {
        double sum = 0;
        for (auto v : s.c) sum += v;
        return sum;
      });
    }
    auto res = ex.explore();
    benchmark::DoNotOptimize(res.stats.states);
  }
  state.SetLabel(to_string(order));
}

// The dynamic action-set feature: exploration cost as injected (enabled but
// never fireable) actions accumulate — the guard-evaluation overhead of
// ModelD's flexibility.
void BM_InjectedActionOverhead(benchmark::State& state) {
  const int injected = static_cast<int>(state.range(0));
  auto model = make_lattice(3, 6);
  for (int i = 0; i < injected; ++i) {
    model.add_action(
        "noop" + std::to_string(i),
        [](const LatticeState&) { return false; },  // never fires
        [](LatticeState&) {});
  }
  for (auto _ : state) {
    Explorer<LatticeState> ex(model, {.order = SearchOrder::kBfs});
    auto res = ex.explore();
    benchmark::DoNotOptimize(res.stats.states);
  }
  state.counters["injected"] = injected;
}

// Invariant-evaluation cost: checks run on every discovered state.
void BM_InvariantCost(benchmark::State& state) {
  const int invariants = static_cast<int>(state.range(0));
  auto model = make_lattice(3, 6);
  for (int i = 0; i < invariants; ++i) {
    model.add_invariant(
        "inv" + std::to_string(i),
        [](const LatticeState& s) -> std::optional<std::string> {
          std::uint32_t sum = 0;
          for (auto v : s.c) sum += v;
          if (sum > 1000) return "impossible";
          return std::nullopt;
        });
  }
  for (auto _ : state) {
    Explorer<LatticeState> ex(model, {.order = SearchOrder::kBfs});
    auto res = ex.explore();
    benchmark::DoNotOptimize(res.stats.states);
  }
  state.counters["invariants"] = invariants;
}

// --- Daemon-mode rows --------------------------------------------------------

// An in-process fixdd on a unix socket; the benchmark talks to it through
// the real client (framing, CRC, retries) so the measured latency is the
// end-to-end RPC cost, not a function call.
struct DaemonBench {
  explicit DaemonBench(const std::string& shim_spec) {
    scratch = ScratchDir::create("", "fig7-daemon");
    svc::DaemonOptions opts;
    opts.endpoint =
        svc::Endpoint::parse("unix:" + (scratch.path() / "d.sock").string());
    opts.state_dir = (scratch.path() / "state").string();
    opts.shim = svc::FaultShimSpec::parse(shim_spec);
    opts.worker_threads = 1;
    daemon = std::make_unique<svc::Daemon>(opts);
    server = std::thread([this] { daemon->serve(); });
    // Wait for the listener (serve() binds before accepting).
    svc::RetryPolicy warm;
    warm.max_attempts = 50;
    svc::Client probe(opts.endpoint, warm);
    svc::Request req;
    req.request_id = 1;
    req.kind = svc::RpcKind::kPing;
    probe.call(req);
  }

  ~DaemonBench() {
    daemon->stop();
    // Nudge the accept loop awake with one last (ignored) connection.
    try {
      svc::Client poke(daemon->endpoint(), svc::RetryPolicy{.max_attempts = 1});
      svc::Request req;
      req.request_id = 2;
      req.kind = svc::RpcKind::kPing;
      poke.call(req);
    } catch (const FixdError&) {
    }
    server.join();
  }

  ScratchDir scratch;
  std::unique_ptr<svc::Daemon> daemon;
  std::thread server;
};

void report_percentiles(benchmark::State& state, std::vector<double>& us) {
  if (us.empty()) return;
  std::sort(us.begin(), us.end());
  state.counters["p50_us"] = us[us.size() / 2];
  state.counters["p99_us"] = us[std::min(us.size() - 1, us.size() * 99 / 100)];
}

// RPC round-trip: ping over the unix socket. Arg 0 = clean transport,
// arg 1 = fault shim dropping/severing/delaying responses — the retry and
// backoff machinery is the thing being priced.
void BM_DaemonRpcLatency(benchmark::State& state) {
  const bool faulty = state.range(0) != 0;
  DaemonBench d(faulty ? "drop=0.05,sever=0.05,delay=0.1:1,seed=11" : "");
  svc::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff_ms = 1;
  policy.rpc_timeout_ms = 200;
  svc::Client client(d.daemon->endpoint(), policy);
  std::vector<double> us;
  std::uint64_t rid = 100;
  for (auto _ : state) {
    svc::Request req;
    req.request_id = ++rid;
    req.kind = svc::RpcKind::kPing;
    const auto t0 = std::chrono::steady_clock::now();
    client.call(req);
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  report_percentiles(state, us);
  state.SetLabel(faulty ? "shim" : "clean");
}

// Submit→result over the wire: one complete investigation job per
// iteration, unique request-ids so the idempotency ledger never
// short-circuits the work.
void BM_DaemonSubmitResult(benchmark::State& state) {
  DaemonBench d("");
  svc::Client client(d.daemon->endpoint(), svc::RetryPolicy{});
  const svc::ScenarioRegistry registry = svc::ScenarioRegistry::with_builtins();
  svc::JobSpec spec;
  spec.scenario = "two-pc";
  spec.n = 3;
  spec.max_states = 4000;
  spec.checkpoint_states = 0;
  std::uint64_t rid = 1000;
  for (auto _ : state) {
    svc::InvestigationOutcome out =
        svc::submit_and_wait_or_degrade(client, registry, spec, ++rid);
    benchmark::DoNotOptimize(out.result.visited_digest);
    if (out.degraded) state.SkipWithError("degraded: daemon unreachable");
  }
}

/// Journals every checkpoint the way fixdd does: the visited delta as a
/// durable run, then the kCheckpoint record (delta run, new violations,
/// front-coded frontier). Returns the callbacks and counts checkpoints.
svc::RunCallbacks journaling(svc::JobJournal& journal,
                             std::uint64_t& checkpoints) {
  svc::RunCallbacks cb;
  cb.on_checkpoint = [&journal, &checkpoints](const svc::CheckpointState& ck) {
    svc::JournalRecord rec;
    rec.type = svc::JournalRecordType::kCheckpoint;
    rec.checkpoint_seq = ck.slices - 1;
    rec.visited = journal.write_visited_run(rec.checkpoint_seq, ck.visited);
    rec.frontier = ck.frontier;
    rec.stats = ck.stats;
    rec.violations = ck.violations;
    journal.append(rec);
    ++checkpoints;
    return true;
  };
  return cb;
}

// Checkpoint overhead: the same investigation run uninterrupted
// (checkpoint_states = 0) vs checkpointed every N states, each checkpoint
// journaled durably (visited delta run + record, fsynced) — the durability
// tax on tiny n=4 slices, where a checkpoint every 64 states pays three
// fsyncs per ~1.5 ms of search.
void BM_CheckpointedInvestigation(benchmark::State& state) {
  const std::uint64_t every = static_cast<std::uint64_t>(state.range(0));
  const svc::ScenarioRegistry registry = svc::ScenarioRegistry::with_builtins();
  const svc::ScenarioFamily* fam = registry.find("two-pc");
  svc::JobSpec spec;
  spec.scenario = "two-pc";
  spec.n = 4;  // 1008 states: big enough that the slice thresholds fire
  spec.max_states = 20000;
  spec.max_violations = 100000;  // uncapped: measure the full search
  spec.checkpoint_states = every;
  ScratchDir scratch = ScratchDir::create("", "fig7-ckpt");
  std::uint64_t checkpoints = 0;
  for (auto _ : state) {
    svc::JobJournal journal(scratch.path(), 1);
    svc::JobResultMsg r = svc::run_investigation(
        *fam, spec, nullptr,
        every > 0 ? journaling(journal, checkpoints) : svc::RunCallbacks{});
    benchmark::DoNotOptimize(r.visited_digest);
  }
  state.counters["ckpts"] =
      static_cast<double>(checkpoints / state.iterations());
  state.SetLabel(every == 0 ? "uninterrupted" : "every " +
                                                    std::to_string(every));
}

/// Checkpointed / uninterrupted wall-time ratios of the gated pair below.
std::vector<double> g_gate_ratios;
std::uint64_t g_gate_checkpoints = 0;

// The checkpoint-overhead gate: a fixdd job of the service benchmark's
// largest kind (two-pc n=5 v2, trail frontier, 512-state cadence: 15
// checkpoints) run uninterrupted and journaled back to back, in
// alternating order, once per iteration. main() fails the run when the
// median ratio exceeds kMaxCheckpointOverhead.
void BM_CheckpointOverheadGate(benchmark::State& state) {
  const svc::ScenarioRegistry registry = svc::ScenarioRegistry::with_builtins();
  const svc::ScenarioFamily* fam = registry.find("two-pc");
  svc::JobSpec spec;
  spec.scenario = "two-pc";
  spec.n = 5;
  spec.version = 2;
  spec.trail_frontier = true;
  spec.max_states = 200000;
  spec.checkpoint_states = 512;
  svc::JobSpec plain = spec;
  plain.checkpoint_states = 0;
  ScratchDir scratch = ScratchDir::create("", "fig7-gate");
  std::uint64_t job = 0;
  for (auto _ : state) {
    double ms[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const bool journaled = (k + g_gate_ratios.size()) % 2 == 1;
      svc::JobJournal journal(scratch.path(), ++job);
      std::uint64_t checkpoints = 0;
      const auto t0 = std::chrono::steady_clock::now();
      svc::JobResultMsg r = svc::run_investigation(
          *fam, journaled ? spec : plain, nullptr,
          journaled ? journaling(journal, checkpoints) : svc::RunCallbacks{});
      ms[journaled] = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      benchmark::DoNotOptimize(r.visited_digest);
      if (journaled) g_gate_checkpoints = checkpoints;
    }
    g_gate_ratios.push_back(ms[1] / ms[0]);
  }
  std::vector<double> sorted = g_gate_ratios;
  std::sort(sorted.begin(), sorted.end());
  state.counters["ratio_p50"] = sorted[sorted.size() / 2];
  state.counters["ckpts"] = static_cast<double>(g_gate_checkpoints);
  state.SetLabel("n=5 every 512, journaled / uninterrupted");
}

}  // namespace

BENCHMARK(BM_EngineThroughput)
    ->Args({2, 9})    // 100 states
    ->Args({3, 9})    // 1000 states
    ->Args({4, 9})    // 10^4 states
    ->Args({5, 9})    // 10^5 states
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_SearchOrder)
    ->Arg(static_cast<int>(SearchOrder::kDfs))
    ->Arg(static_cast<int>(SearchOrder::kBfs))
    ->Arg(static_cast<int>(SearchOrder::kPriority))
    ->Arg(static_cast<int>(SearchOrder::kRandomWalk))
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_InjectedActionOverhead)
    ->Arg(0)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_InvariantCost)->Arg(0)->Arg(4)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

BENCHMARK(BM_DaemonRpcLatency)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond)
    ->MinTime(0.5);

BENCHMARK(BM_DaemonSubmitResult)->Unit(benchmark::kMillisecond)->MinTime(0.5);

BENCHMARK(BM_CheckpointedInvestigation)
    ->Arg(0)
    ->Arg(256)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

BENCHMARK(BM_CheckpointOverheadGate)
    ->Iterations(9)
    ->Unit(benchmark::kMillisecond);

// The roadmap's bar for checkpoint cost: journaling 15 checkpoints may add
// at most a quarter to the search's wall time.
constexpr double kMaxCheckpointOverhead = 1.25;

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_gate_ratios.empty()) return 0;  // gate filtered out
  std::sort(g_gate_ratios.begin(), g_gate_ratios.end());
  const double median = g_gate_ratios[g_gate_ratios.size() / 2];
  const bool ok = median <= kMaxCheckpointOverhead && g_gate_checkpoints == 15;
  std::printf("checkpoint overhead gate: median %.3fx over %zu pairs at %llu "
              "checkpoints (bar <= %.2fx at 15): %s\n",
              median, g_gate_ratios.size(),
              static_cast<unsigned long long>(g_gate_checkpoints),
              kMaxCheckpointOverhead, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
