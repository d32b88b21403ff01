// protect: a seeded stream of applications under
// FixdController::run_protected with default FixdOptions (digests logging
// preset, CIC checkpoints). Each round runs one fault-free long run of the
// fixed kv-store and the six fig4 fault scenarios, each detected,
// investigated under the fig4 budgets, healed through its ladder rung and
// resumed. Forward execution (rt/net) plus Scroll and the Time Machine
// dominate; the explorer runs only small bounded searches.
#include <cstdio>
#include <map>

#include "apps/elect_split.hpp"
#include "apps/kv_lag.hpp"
#include "apps/kv_store.hpp"
#include "apps/leader_election.hpp"
#include "apps/rep_counter.hpp"
#include "common/error.hpp"
#include "core/fixd.hpp"
#include "fault/injector.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace fixd;
using core::RecoveryRung;

constexpr int kSetupTurns = 1;  // before the loop; more run between ops
constexpr int kSetupReps = 3;  // per turn; the best one counts
constexpr double kSetupGapMs = 250;

/// kv-store ops per fault-free run (three replicas, version 2).
constexpr std::uint64_t kFaultFreeOps = 2000;

/// One scenario, configured as bench/fig4_fault_response.cpp configures it.
struct Scenario {
  std::function<std::unique_ptr<rt::World>(std::uint64_t env)> make;
  std::function<void(rt::World&)> installer;
  heal::UpdatePatch patch;
  std::function<void(core::FixdOptions&)> tweak;
  std::function<void(fault::FaultInjector&)> inject;
  std::size_t faults = 1;  ///< faults the run must detect
  bool heals = true;       ///< a rung must succeed
  /// The rung that heals. The three registry-patch scenarios accept the
  /// restart rung too: today their patch is found but does not apply, so
  /// the ladder falls through to restart (as bench/fig4 shows).
  RecoveryRung rung = RecoveryRung::kPatchRegistry;
  bool restart_ok = true;
};

apps::KvConfig kv_reorder_cfg() {
  apps::KvConfig cfg;
  cfg.total_ops = 40;
  cfg.key_space = 2;
  return cfg;
}

rt::WorldOptions kv_reorder_opts(std::uint64_t net_seed) {
  rt::WorldOptions w;
  w.net = net::NetworkOptions::reordering();
  w.net.seed = net_seed;
  return w;
}

/// Environment seeds the set-up scans find (the inputs of two scenarios).
struct EnvSeeds {
  std::vector<std::uint64_t> election;
  std::vector<std::uint64_t> kv_reorder;
};

EnvSeeds scan_env_seeds() {
  EnvSeeds out;
  // Election: environment seeds whose uids collide (the v1 trigger).
  for (std::uint64_t s = 1; s <= kEnvSeedsScanned;) {
    s = apps::find_colliding_env_seed(5, apps::ElectionConfig{}, s);
    if (s > kEnvSeedsScanned) break;
    out.election.push_back(s++);
  }
  // kv-store: latency patterns that reorder conflicting writes, found by
  // running the buggy kv-store until it violates (the fig4 scan).
  for (std::uint64_t i = 1; i <= kEnvSeedsScanned; ++i) {
    const std::uint64_t net_seed = i * 7919;
    auto probe = apps::make_kv_world(2, 1, kv_reorder_cfg(),
                                     kv_reorder_opts(net_seed));
    if (probe->run(100000).reason == rt::StopReason::kViolation) {
      out.kv_reorder.push_back(net_seed);
    }
  }
  if (out.election.empty() || out.kv_reorder.empty()) {
    throw fixd::ConfigError("protect set-up: a seed scan found no faulty "
                            "environment");
  }
  return out;
}

std::map<ProtectKind, Scenario> scenarios(const EnvSeeds& env) {
  std::map<ProtectKind, Scenario> m;

  Scenario free;
  free.make = [](std::uint64_t seed) {
    apps::KvConfig cfg;
    cfg.total_ops = kFaultFreeOps;
    rt::WorldOptions w;
    w.seed = seed;
    w.env_seed = seed;
    w.net = net::NetworkOptions::reordering();
    w.net.seed = seed;
    return apps::make_kv_world(3, 2, cfg, w);
  };
  free.installer = apps::install_kv_invariants;
  free.faults = 0;
  free.heals = false;
  m[ProtectKind::kFaultFree] = free;

  Scenario counter;
  counter.make = [](std::uint64_t) {
    return apps::make_counter_world(4, 1, apps::CounterConfig{6});
  };
  counter.installer = apps::install_counter_invariants;
  counter.patch = apps::counter_fix_patch(apps::CounterConfig{6});
  m[ProtectKind::kRepCounter] = counter;

  Scenario election;
  election.make = [seeds = env.election](std::uint64_t i) {
    rt::WorldOptions w;
    w.env_seed = seeds[i % seeds.size()];
    return apps::make_election_world(5, 1, apps::ElectionConfig{}, w);
  };
  election.installer = apps::install_election_invariants;
  election.patch = apps::election_fix_patch(apps::ElectionConfig{});
  m[ProtectKind::kElection] = election;

  Scenario kv;
  kv.make = [seeds = env.kv_reorder](std::uint64_t i) {
    return apps::make_kv_world(2, 1, kv_reorder_cfg(),
                               kv_reorder_opts(seeds[i % seeds.size()]));
  };
  kv.installer = apps::install_kv_invariants;
  kv.patch = apps::kv_fix_patch(kv_reorder_cfg());
  m[ProtectKind::kKvReorder] = kv;

  // Timeout fault: one delivery delayed past the too-short retransmit
  // timeout; healed by the TimeoutTuner rung.
  apps::KvLagConfig lag_cfg;
  lag_cfg.total_ops = 1;
  Scenario lag;
  lag.make = [lag_cfg](std::uint64_t) {
    return apps::make_kv_lag_world(2, lag_cfg);
  };
  lag.installer = apps::install_kv_lag_invariants;
  lag.tweak = [lag_cfg](core::FixdOptions& o) {
    o.investigate.order = mc::SearchOrder::kBfs;
    o.tm.cic = false;
    o.attempt_timeout_tuning = true;
    o.timeout_site = apps::kv_lag_timeout_site(lag_cfg);
    o.tuner.validate.order = mc::SearchOrder::kBfs;
    o.tuner.validate.abstract_time = false;
    o.tuner.validate.model_message_delay = true;
    o.tuner.validate.max_states = 60000;
  };
  lag.inject = [](fault::FaultInjector& inj) {
    fault::FaultSpec delay;
    delay.kind = fault::FaultKind::kMessageDelay;
    delay.target = 1;
    delay.delay_min = 20;
    delay.delay_max = 20;
    inj.add(delay);
  };
  lag.restart_ok = false;
  lag.rung = RecoveryRung::kTimeoutTuner;
  m[ProtectKind::kKvLagDelay] = lag;

  // Partition: an asymmetric cut split-brains the election; healed by the
  // recovery-line rung.
  Scenario split;
  split.make = [](std::uint64_t) { return apps::make_elect_split_world(3, 1); };
  split.installer = apps::install_elect_split_invariants;
  split.tweak = [](core::FixdOptions& o) {
    o.investigate.order = mc::SearchOrder::kBfs;
    o.investigate.max_states = 2000;
    o.investigate.max_depth = 30;
    o.investigate.model_partition = true;
    o.line_budget = 2;
    o.restart_on_heal_failure = false;
  };
  split.inject = [](fault::FaultInjector& inj) {
    fault::FaultSpec cut;
    cut.kind = fault::FaultKind::kPartition;
    cut.group_a = {0};
    cut.group_b = {2};
    cut.symmetric = false;
    inj.add(cut);
  };
  split.restart_ok = false;
  split.rung = RecoveryRung::kRecoveryLine;
  m[ProtectKind::kElectSplit] = split;

  // Crash-restart: the backup crashes before the op lands; healed by the
  // restart rung.
  apps::KvLagConfig cr_cfg;
  cr_cfg.total_ops = 1;
  cr_cfg.retransmit_timeout = 8;
  Scenario restart;
  restart.make = [cr_cfg](std::uint64_t) {
    return apps::make_kv_lag_world(2, cr_cfg);
  };
  restart.installer = apps::install_kv_lag_invariants;
  restart.tweak = [](core::FixdOptions& o) {
    o.investigate.order = mc::SearchOrder::kBfs;
    o.investigate.max_states = 4000;
    o.investigate.max_depth = 60;
    o.investigate.model_restart = true;
    o.tm.cic = false;
  };
  restart.inject = [](fault::FaultInjector& inj) {
    fault::FaultSpec cr;
    cr.kind = fault::FaultKind::kCrashRestart;
    cr.target = 1;
    cr.at_step = 2;
    cr.restart_min = 25;
    cr.restart_max = 25;
    inj.add(cr);
  };
  restart.restart_ok = false;
  restart.rung = RecoveryRung::kRestart;
  m[ProtectKind::kKvLagRestart] = restart;
  return m;
}

/// The fig4 investigation budgets, then the scenario's own tweaks.
core::FixdOptions options_for(const Scenario& s) {
  core::FixdOptions o;
  o.install_invariants = s.installer;
  o.investigate.order = mc::SearchOrder::kRandomWalk;
  o.investigate.max_states = 20000;
  o.investigate.max_depth = 160;
  o.investigate.walk_restarts = 64;
  if (s.tweak) s.tweak(o);
  return o;
}

/// Empty when the report matches the scenario's expected shape.
std::string shape_error(const Scenario& s, const core::FixdReport& rep) {
  if (!rep.completed) return "did not complete";
  if (rep.faults_detected != s.faults) {
    return "detected " + std::to_string(rep.faults_detected) +
           " faults, expected " + std::to_string(s.faults);
  }
  if (!s.heals) return rep.ladder.empty() ? "" : "ran the recovery ladder";
  for (const core::RungOutcome& ro : rep.ladder) {
    if (ro.ok) {
      const bool expected =
          ro.rung == s.rung ||
          (s.restart_ok && ro.rung == RecoveryRung::kRestart);
      return expected ? ""
                               : std::string("healed by rung ") +
                                     core::to_string(ro.rung) + ", expected " +
                                     core::to_string(s.rung);
    }
  }
  return "no rung succeeded";
}

/// Per-layer sums over the traced copies of faulty runs.
struct Layers {
  std::size_t faulty_runs = 0, bugs = 0, tuner_runs = 0;
  double run_ms = 0, rollback_ms = 0, collect_ms = 0, investigate_ms = 0,
         heal_ms = 0, collect_bytes = 0, tuner_probes = 0, tuner_states = 0,
         rungs = 0, rungs_ok = 0, faults = 0;
  ExploreSum explore;
  std::vector<double> build_ms;
};

}  // namespace

void run_protect(Bench& b) {
  Result& r = b.result;
  Tracer& t = b.tracer;

  std::map<ProtectKind, Scenario> scen, spare;
  HostSpeed host;
  SetupTimer setup(
      compute_setup_plan(host, kSetupGapMs, kSetupReps),
      [&](bool keep) {
        Span s(t, "protect.seed_scan", 0);
        (keep ? scen : spare) = scenarios(scan_env_seeds());
      },
      [&] { spare.clear(); });
  setup.before_loop(kSetupTurns);

  std::vector<double> op_ms, recover_ms, free_ms;
  std::map<ProtectKind, std::vector<double>> kind_ms;
  double steps = 0, states = 0, explore_s = 0, protected_s = 0;
  Layers L;  // the traced copies of faulty runs
  OpRunner ops(t, setup, host);

  const double loop_s =
      run_rounds(b.ctx.seconds, setup, host, [&](std::uint64_t round) {
    for (const ProtectRun& run : protect_round(b.ctx.seed, round)) {
      const Scenario& s = scen.at(run.kind);
      ops.run([&](Tracer& tt, std::uint64_t op) {
        Span root(tt, std::string("protect.") + to_string(run.kind), op);
        std::unique_ptr<rt::World> w;
        {
          const auto t0 = Clock::now();
          Span sb(tt, "apps.world_build", op);
          w = s.make(run.env);
          if (tt.enabled()) L.build_ms.push_back(ms_since(t0));
        }
        fault::FaultInjector inj;
        if (s.inject) {
          s.inject(inj);
          inj.attach(*w);
        }
        heal::PatchRegistry patches;
        if (!s.patch.target_type.empty()) patches.add(s.patch);

        const auto t0 = Clock::now();
        core::FixdReport rep;
        {
          Span sp(tt, "core.run_protected", op);
          core::FixdController fixd(*w, options_for(s), patches);
          rep = fixd.run_protected();
        }
        const double ms = ms_since(t0);

        const std::string err = shape_error(s, rep);
        if (!err.empty()) {
          r.ops.fail();
          r.check(false, std::string(to_string(run.kind)) + ": " + err);
          return -1.0;
        }
        r.ops.ok();
        op_ms.push_back(ms);
        (s.faults > 0 ? recover_ms : free_ms).push_back(ms);
        kind_ms[run.kind].push_back(ms);
        steps += static_cast<double>(rep.final_run.steps);
        protected_s += ms / 1e3;
        for (const core::BugReport& bug : rep.bugs) {
          states += static_cast<double>(bug.explore.states);
          explore_s += bug.explore.wall_ms / 1e3;
        }
        if (!tt.enabled() || s.faults == 0) return ms;

        ++L.faulty_runs;
        L.faults += static_cast<double>(rep.faults_detected);
        L.run_ms += rep.phases.run_ms;
        L.rollback_ms += rep.phases.rollback_ms;
        L.collect_ms += rep.phases.collect_ms;
        L.investigate_ms += rep.phases.investigate_ms;
        L.heal_ms += rep.phases.heal_ms;
        for (const core::BugReport& bug : rep.bugs) {
          ++L.bugs;
          L.collect_bytes += static_cast<double>(bug.collect.control_bytes);
          L.explore.add(bug.explore, bug.explore.wall_ms);
        }
        for (const heal::TunerResult& tr : rep.tunes) {
          ++L.tuner_runs;
          L.tuner_probes += static_cast<double>(tr.trajectory.size());
          L.tuner_states += static_cast<double>(tr.states_explored());
        }
        for (const core::RungOutcome& ro : rep.ladder) {
          ++L.rungs;
          if (ro.ok) ++L.rungs_ok;
        }
        root.arg("run_ms", rep.phases.run_ms);
        root.arg("rollback_ms", rep.phases.rollback_ms);
        root.arg("collect_ms", rep.phases.collect_ms);
        root.arg("investigate_ms", rep.phases.investigate_ms);
        root.arg("heal_ms", rep.phases.heal_ms);
        root.arg("rungs", static_cast<double>(rep.ladder.size()));
        return ms;
      });
    }
  });

  report_end_to_end(r, setup, host, loop_s, op_ms, states, explore_s,
                    "run_protected() call");
  r.timing("recover_ms_p50", recover_ms, "ms",
           "run_protected() on a fault scenario: launch, detection, recovery, "
           "resumed completion");
  r.timing("fault_free_run_ms", free_ms, "ms",
           "run_protected() of a fault-free kv-store run");
  for (const auto& [kind, v] : kind_ms) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "run_protected() %-22s median %9.3f ms n=%zu",
                  to_string(kind), median(v), v.size());
    r.line(buf);
  }
  r.metric("protected_steps_per_s", protected_s > 0 ? steps / protected_s : 0,
           "steps/s", op_ms.size(),
           "final_run.steps / host time of run_protected()");
  if (!t.enabled()) return;

  ops.report_overhead(r);

  const double fr =
      static_cast<double>(std::max<std::size_t>(L.faulty_runs, 1));
  const std::string per_run = "FixdReport::phases, mean per faulty run";
  r.metric("ckpt.rollback_ms", L.rollback_ms / fr, "ms", L.faulty_runs,
           per_run);
  r.metric("ckpt.collect_ms", L.collect_ms / fr, "ms", L.faulty_runs, per_run);
  r.metric("ckpt.collect_bytes",
           L.collect_bytes / std::max<double>(1, L.bugs), "B", L.bugs,
           "CollectStats::control_bytes, mean per bug");
  r.metric("heal.heal_ms", L.heal_ms / fr, "ms", L.faulty_runs, per_run);
  r.metric("heal.tuner_probes",
           L.tuner_probes / std::max<double>(1, L.tuner_runs), "count",
           L.tuner_runs, "TunerResult::trajectory, mean per tuner run");
  r.metric("heal.tuner_states",
           L.tuner_states / std::max<double>(1, L.tuner_runs), "count",
           L.tuner_runs, "TunerResult::states_explored, mean per tuner run");
  r.metric("core.detect_ms", L.run_ms / fr, "ms", L.faulty_runs,
           "phases.run_ms (forward run to detection and resumed run), mean "
           "per faulty run");
  r.metric("core.investigate_ms", L.investigate_ms / fr, "ms", L.faulty_runs,
           per_run);
  r.metric("core.rungs_per_fault", L.rungs / std::max<double>(1, L.faults),
           "count", L.faulty_runs, "FixdReport::ladder entries per fault");
  r.metric("core.rung_ok_ratio", L.rungs_ok / std::max<double>(1, L.rungs),
           "ratio", L.faulty_runs, "useful / attempted ladder rungs");

  L.explore.report(r, "ExploreStats of the bounded searches in "
                     "FixdReport::bugs");
  r.metric("apps.world_build_ms", median(L.build_ms), "ms", L.build_ms.size(),
           "span around the make_*_world call of each traced run");

  const Scenario& free = scen.at(ProtectKind::kFaultFree);
  const ProbeWorlds pw{[&free] { return free.make(1); },
                       "fault-free kv-store v2"};
  probe_state_ops(r, t, pw, b.ctx.seed);
  probe_forward(r, t, pw, 15);
  report_idle(r, kServiceOnlyLayers, "protect talks to no daemon");
}

}  // namespace perfbench
