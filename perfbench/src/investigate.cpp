// investigate: back-to-back exhaustive BFS searches of the verified
// two-phase commit (n=6, version 2, one transaction) with the default
// explorer options: snapshot frontier, one worker, dedup on, POR off.
// Seed-independent by construction; the explorer, runtime, network, heap
// and digest layers do essentially all the work.
#include <cinttypes>
#include <cstdio>

#include "apps/two_phase_commit.hpp"
#include "mc/sysmodel.hpp"
#include "svc/jobd.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace fixd;

constexpr int kSetupTurns = 1;  // before the loop; more run between ops
constexpr int kSetupReps = 3;  // per turn; the best one counts
constexpr double kSetupGapMs = 250;  // one turn per search in practice
constexpr std::uint64_t kStates = 66280;
constexpr std::uint64_t kTransitions = 310365;
/// svc::visited_digest of the search's sorted visited set.
constexpr std::uint64_t kVisitedDigest = 0xd1e66265004132f1;

std::unique_ptr<rt::World> make_world() {
  apps::TwoPcConfig cfg;
  cfg.total_txns = 1;
  return apps::make_two_pc_world(6, 2, cfg);
}

mc::SysExploreOptions search_options() {
  mc::SysExploreOptions o;
  o.install_invariants = apps::install_two_pc_invariants;
  return o;
}

bool search_ok(const mc::SysExploreResult& res) {
  return res.stats.states == kStates && res.stats.transitions == kTransitions &&
         res.violations.empty() && !res.stats.truncated;
}

}  // namespace

void run_investigate(Bench& b) {
  Result& r = b.result;
  Tracer& t = b.tracer;

  std::unique_ptr<rt::World> world, spare;
  std::vector<double> build_ms;
  HostSpeed host;
  SetupTimer setup(
      compute_setup_plan(host, kSetupGapMs, kSetupReps),
      [&](bool keep) {
        Span s(t, "apps.world_build", 0);
        const auto t0 = Clock::now();
        (keep ? world : spare) = make_world();
        build_ms.push_back(ms_since(t0));
      },
      [&] { spare.reset(); });
  setup.before_loop(kSetupTurns);

  // Output check outside the timed region: the visited set itself.
  {
    mc::SysExploreOptions o = search_options();
    o.collect_visited = true;
    mc::SystemExplorer ex(*world, o);
    const mc::SysExploreResult res = ex.explore();
    const std::uint64_t digest = svc::visited_digest(res.visited);
    char buf[96];
    std::snprintf(buf, sizeof buf, "visited digest %016" PRIx64, digest);
    r.line(buf);
    r.check(search_ok(res), "check search: wrong state/transition count or a "
                            "violation");
    r.check(digest == kVisitedDigest,
            "check search: visited-set digest differs from the reference");
  }

  std::vector<double> op_ms;
  double states = 0;
  double explore_s = 0;
  ExploreSum layers;  // the traced copies
  OpRunner ops(t, setup, host);

  const double loop_s =
      run_rounds(b.ctx.seconds, setup, host, [&](std::uint64_t) {
    ops.run([&](Tracer& tt, std::uint64_t op) {
      Span root(tt, "investigate.search", op);
      const auto t0 = Clock::now();
      mc::SysExploreResult res;
      {
        Span s(tt, "mc.explore", op);
        mc::SystemExplorer ex(*world, search_options());
        res = ex.explore();
      }
      const double ms = ms_since(t0);
      if (!search_ok(res)) {
        r.ops.fail();
        r.check(false, "search returned a wrong state/transition count or a "
                       "violation");
        return -1.0;
      }
      r.ops.ok();
      op_ms.push_back(ms);
      states += static_cast<double>(res.stats.states);
      explore_s += ms / 1e3;
      if (tt.enabled()) {
        layers.add(res.stats, ms);
        root.arg("digest_ms", res.stats.digest_ms);
        root.arg("snapshot_ms", res.stats.snapshot_ms);
      }
      return ms;
    });
  });

  report_end_to_end(r, setup, host, loop_s, op_ms, states, explore_s,
                    "search");
  r.metric("states_per_search", static_cast<double>(kStates), "states", 1,
           "input size: exhaustive 2pc n=6 state count");
  if (!t.enabled()) return;

  ops.report_overhead(r);
  layers.report(r, "span around explore() and its ExploreStats");
  r.metric("apps.world_build_ms", median(build_ms), "ms", build_ms.size(),
           "span around make_two_pc_world, the set-up repetitions");

  const ProbeWorlds pw{make_world, "two-pc n=6 v2"};
  probe_state_ops(r, t, pw, b.ctx.seed);
  probe_forward(r, t, pw, 2000);
  report_idle(r, kProtectOnlyLayers, "investigate runs no protected pipeline");
  report_idle(r, kServiceOnlyLayers, "investigate talks to no daemon");
}

}  // namespace perfbench
