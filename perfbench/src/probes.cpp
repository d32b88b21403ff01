// Shared loop helpers and the layer probes of the traced run.
//
// A probe times one layer's public calls on the workload's own worlds, for
// layers that are reachable only inside a library call the benchmark
// cannot split with spans.
#include <algorithm>

#include "ckpt/timemachine.hpp"
#include "common/rng.hpp"
#include "rt/world.hpp"
#include "scroll/scroll.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fixd;

const std::vector<Idle> kProtectOnlyLayers = {
    {"ckpt.rollback_ms", "ms"},  {"ckpt.collect_ms", "ms"},
    {"ckpt.collect_bytes", "B"}, {"heal.heal_ms", "ms"},
    {"heal.tuner_probes", "count"}, {"heal.tuner_states", "count"},
    {"core.detect_ms", "ms"},    {"core.investigate_ms", "ms"},
    {"core.rungs_per_fault", "count"}, {"core.rung_ok_ratio", "ratio"},
};

const std::vector<Idle> kServiceOnlyLayers = {
    {"svc.submit_us", "us"},          {"svc.status_us", "us"},
    {"svc.result_us", "us"},          {"svc.attempts_per_rpc", "ratio"},
    {"svc.polls_per_job", "count"},   {"svc.compute_share", "ratio"},
    {"svc.queue_wait_ms", "ms"},      {"svc.checkpoints_per_job", "count"},
    {"svc.journal_kib_per_job", "KiB"}, {"svc.slice_ms", "ms"},
    {"svc.ckpt_write_ms", "ms"},      {"svc.ckpt_visited_written", "count"},
};

void report_idle(Result& r, const std::vector<Idle>& metrics, const char* why) {
  for (const Idle& m : metrics) {
    r.metric(m.name, 0, m.unit, 0, std::string("layer idle: ") + why);
  }
}

void SetupTimer::turn(bool keep) {
  const auto t0 = Clock::now();
  double best_s = 0;
  for (int i = 0; i < plan_.reps; ++i) {
    const bool kept = keep && i + 1 == plan_.reps;
    const auto r0 = Clock::now();
    setup_(kept);
    const double s = ms_since(r0) / 1e3;
    best_s = i == 0 ? s : std::min(best_s, s);
    if (!kept) discard_();
  }
  spent_s_ += ms_since(t0) / 1e3;
  samples_s_.push_back(best_s);
  adjusted_s_.push_back(best_s / plan_.adjustment());
  last_ = Clock::now();
}

void SetupTimer::before_loop(int turns) {
  for (int i = 0; i < turns; ++i) turn(i + 1 == turns);
}

void SetupTimer::between_ops() {
  if (ms_since(last_) >= plan_.gap_ms) turn(false);
}

SetupPlan compute_setup_plan(HostSpeed& host, double gap_ms, int reps) {
  return {gap_ms, reps,
          [&host] { return HostSpeed::adjustment_for(host.sample()); },
          "(reference work time / " + json_number(HostSpeed::kNominalMs) +
              " ms)^" + json_number(HostSpeed::kExponent)};
}

double run_rounds(double seconds, SetupTimer& setup, HostSpeed& host,
                  const std::function<void(std::uint64_t)>& round) {
  host.sample();
  const double paused_before = setup.spent_s() + host.spent_s();
  const auto t0 = Clock::now();
  const auto loop_s = [&] {
    return ms_since(t0) / 1e3 -
           (setup.spent_s() + host.spent_s() - paused_before);
  };
  for (std::uint64_t r = 0; r == 0 || loop_s() < seconds; ++r) round(r);
  const double s = loop_s();
  host.sample();
  return s;
}

void report_end_to_end(Result& r, const SetupTimer& setup,
                       const HostSpeed& host, double loop_s,
                       const std::vector<double>& op_ms, double states,
                       double explore_s, const char* op_name,
                       std::optional<double> peak_rss,
                       const std::string& rss_note) {
  const double adjust = host.adjustment();
  const std::string ratio = "(median reference work time / " +
                            json_number(HostSpeed::kNominalMs) + " ms)^" +
                            json_number(HostSpeed::kExponent);
  const double setup_s = median(setup.samples_s());
  const double ops_per_s = static_cast<double>(op_ms.size()) / loop_s;
  const double states_per_s = explore_s > 0 ? states / explore_s : 0;
  r.metric("host.reference_ms", host.median_ms(), "ms", host.samples(),
           "median time of the reference work, sampled at operation "
           "boundaries through the timed loop (hostspeed.hpp)");
  r.metric("setup_s", setup.median_s(), "s", setup.samples(),
           "median over set-up turns, before and during the loop, of the "
           "best of " + std::to_string(setup.plan().reps) +
               " back-to-back repetitions, each turn divided by " +
               setup.plan().adjustment_note + ", sampled right after it");
  r.metric("setup_s_raw", setup_s, "s", setup.samples(),
           "setup_s before the host-speed adjustment");
  std::vector<double> setup_ms = setup.samples_s();
  for (double& v : setup_ms) v *= 1e3;
  r.timing("setup_ms", setup_ms, "ms", "one set-up turn, unadjusted");
  r.metric("ops_per_s", ops_per_s * adjust, "1/s", op_ms.size(),
           std::string("closed loop, one caller; an operation is one ") +
               op_name + "; adjusted for host speed: the raw figure times " +
               ratio);
  r.metric("ops_per_s_raw", ops_per_s, "1/s", op_ms.size(),
           "ops_per_s before the host-speed adjustment");
  r.timing("op_ms_p50", op_ms, "ms",
           std::string("wall time of one ") + op_name + ", timed from outside");
  r.metric("states_per_s", states_per_s * adjust, "states/s", op_ms.size(),
           "unique explorer states / explorer wall time; adjusted like "
           "ops_per_s");
  r.metric("states_per_s_raw", states_per_s, "states/s", op_ms.size(),
           "states_per_s before the host-speed adjustment");
  r.metric("error_rate", r.ops.error_rate(), "ratio", r.ops.attempted(),
           "failed / attempted operations");
  const std::string rss_how = "getrusage ru_maxrss of the workload process";
  if (peak_rss) {
    r.metric("peak_rss_mib", *peak_rss, "MiB", 1, rss_how + ", " + rss_note);
    r.metric("peak_rss_end_mib", peak_rss_mib(), "MiB", 1,
             rss_how + " at the end of the run");
  } else {
    r.metric("peak_rss_mib", peak_rss_mib(), "MiB", 1, rss_how);
  }
}

void OpRunner::run(
    const std::function<double(Tracer&, std::uint64_t op)>& body) {
  setup_.between_ops();
  host_.maybe_sample();
  if (!t_.enabled()) {
    body(off_, 0);
    return;
  }
  const bool traced_first = ++item_ % 2 == 0;
  double ms[2];
  for (int copy = 0; copy < 2; ++copy) {
    const bool traced = (copy == 0) == traced_first;
    ms[traced] = traced ? body(t_, t_.new_op()) : body(off_, 0);
  }
  if (ms[0] >= 0 && ms[1] >= 0) {
    plain_ms_ += ms[0];
    traced_ms_ += ms[1];
    ++pairs_;
  }
}

void OpRunner::report_overhead(Result& r) const {
  r.metric("bench.trace_overhead",
           plain_ms_ > 0 ? traced_ms_ / plain_ms_ - 1 : 0, "ratio", pairs_,
           "traced / plain wall time of the same operations, minus 1");
}

void ExploreSum::add(const mc::ExploreStats& s, double wall_ms) {
  ++searches;
  sum.states += s.states;
  sum.transitions += s.transitions;
  sum.duplicates += s.duplicates;
  sum.wall_ms += wall_ms;
  sum.digest_ms += s.digest_ms;
  sum.snapshot_ms += s.snapshot_ms;
  sum.replayed_actions += s.replayed_actions;
  peak_frontier = std::max(peak_frontier, s.peak_frontier_bytes);
  visited = std::max(visited, s.visited_peak_resident_bytes);
}

void ExploreSum::report(Result& r, const std::string& how) const {
  const double n = static_cast<double>(std::max<std::size_t>(searches, 1));
  const double transitions = std::max<double>(1, sum.transitions);
  const double explore_ms = sum.wall_ms / n;
  const std::string mean = how + ", mean per search";
  r.metric("mc.explore_ms", explore_ms, "ms", searches, mean);
  r.metric("mc.ns_per_transition", sum.wall_ms * 1e6 / transitions, "ns",
           searches, how + ", explore time / transitions");
  r.metric("mc.states", sum.states / n, "count", searches, mean);
  r.metric("mc.transitions", sum.transitions / n, "count", searches, mean);
  r.metric("mc.dup_ratio", sum.duplicates / transitions, "ratio", searches,
           how + ", duplicates / transitions");
  r.metric("mc.digest_ms", sum.digest_ms / n, "ms", searches, mean);
  r.metric("mc.snapshot_ms", sum.snapshot_ms / n, "ms", searches, mean);
  r.metric("mc.other_ms", explore_ms - (sum.digest_ms + sum.snapshot_ms) / n,
           "ms", searches, mean + ": explore - digest - snapshot");
  r.metric("mc.peak_frontier_kib", peak_frontier / 1024.0, "KiB", searches,
           how + ", peak_frontier_bytes, max over searches");
  r.metric("mc.visited_kib", visited / 1024.0, "KiB", searches,
           how + ", visited_peak_resident_bytes, max over searches");
  r.metric("mc.replayed_actions", sum.replayed_actions / n, "count", searches,
           mean);
  r.metric("mc.replay_per_state",
           sum.replayed_actions / std::max<double>(1, sum.states), "ratio",
           searches, how + ", replayed actions / states");
}

void probe_state_ops(Result& r, Tracer& t, const ProbeWorlds& pw,
                     std::uint64_t seed) {
  Span span(t, "probe.rt_state_ops", t.new_op());
  constexpr std::size_t kStates = 400;
  constexpr std::size_t kMaxDepth = 40;
  std::unique_ptr<rt::World> w = pw.make();
  w->set_abstract_time(true);  // the Investigator's view, as explore() uses
  const rt::WorldSnapshot root = w->snapshot();
  Rng rng(hash_combine(seed, 0x57a7e));

  std::vector<rt::WorldSnapshot> snaps;
  std::vector<double> snap_us, restore_us, enabled_us;
  while (snaps.size() < kStates) {
    w->restore(root);
    for (std::size_t d = 0; d < kMaxDepth && snaps.size() < kStates; ++d) {
      const std::vector<rt::EventDesc> ev = w->enabled_events();
      if (ev.empty()) break;
      w->execute_event(ev[rng.next_below(ev.size())]);
      const auto t0 = Clock::now();
      snaps.push_back(w->snapshot());
      snap_us.push_back(ms_since(t0) * 1e3);
    }
  }
  for (std::size_t i = snaps.size(); i > 1; --i) {
    std::swap(snaps[i - 1], snaps[rng.next_below(i)]);
  }
  for (const rt::WorldSnapshot& s : snaps) {
    auto t0 = Clock::now();
    w->restore(s);
    restore_us.push_back(ms_since(t0) * 1e3);
    t0 = Clock::now();
    const std::size_t n = w->enabled_events().size();
    enabled_us.push_back(ms_since(t0) * 1e3);
    (void)n;
  }
  const std::string how = std::string("probe on states reached by seeded "
                                      "walks from the ") + pw.label + " root";
  r.timing("rt.snapshot_us", snap_us, "us", how);
  r.timing("rt.restore_us", restore_us, "us", how);
  r.timing("rt.enabled_events_us", enabled_us, "us",
           how + ", first call after restore");
}

namespace {
struct SendCounter final : rt::RuntimeObserver {
  std::uint64_t sends = 0;
  void on_send(const rt::World&, const net::Message&) override { ++sends; }
};
}  // namespace

void probe_forward(Result& r, Tracer& t, const ProbeWorlds& pw, int reps) {
  Span span(t, "probe.forward", t.new_op());
  std::vector<double> bare_ns, scroll_ns, ckpt_ns, sends, scroll_bytes, ckpts;
  for (int i = 0; i < reps; ++i) {
    for (int k = 0; k < 3; ++k) {
      const int config = (i + k) % 3;  // rotate which configuration runs first
      std::unique_ptr<rt::World> w = pw.make();
      SendCounter counter;
      scroll::Scroll scroll(scroll::LoggingPreset::digests());
      ckpt::TimeMachineOptions tmo;
      tmo.cic = true;
      ckpt::TimeMachine tm(*w, tmo);
      if (config == 0) w->add_observer(&counter);
      if (config == 1) w->add_observer(&scroll);
      if (config == 2) tm.attach();
      const auto t0 = Clock::now();
      const rt::RunResult rr = w->run();
      const double ns = ms_since(t0) * 1e6;
      const double steps = std::max<double>(1, rr.steps);
      if (config == 0) {
        bare_ns.push_back(ns / steps);
        sends.push_back(counter.sends / steps);
        w->remove_observer(&counter);
      } else if (config == 1) {
        scroll_ns.push_back(ns / steps);
        scroll_bytes.push_back(scroll.stats().bytes / steps);
        w->remove_observer(&scroll);
      } else {
        ckpt_ns.push_back(ns / steps);
        ckpts.push_back(tm.stats().checkpoints * 1000.0 / steps);
        tm.detach();
      }
    }
  }
  const std::string how = std::string("probe: unprotected World::run of the ") +
                          pw.label + " world, medians of " +
                          std::to_string(reps) + " runs per configuration";
  const double bare = median(bare_ns);
  r.metric("rt.step_ns", bare, "ns", bare_ns.size(), how);
  r.metric("rt.bare_steps_per_s", bare > 0 ? 1e9 / bare : 0, "steps/s",
           bare_ns.size(), how);
  r.metric("net.sends_per_step", median(sends), "ratio", sends.size(),
           how + ", RuntimeObserver counting on_send");
  r.metric("scroll.ns_per_step", median(scroll_ns) - bare, "ns",
           scroll_ns.size(),
           how + ", digests-preset Scroll attached minus bare");
  r.metric("scroll.bytes_per_step", median(scroll_bytes), "B",
           scroll_bytes.size(), how + ", ScrollStats::bytes");
  r.metric("ckpt.ns_per_step", median(ckpt_ns) - bare, "ns", ckpt_ns.size(),
           how + ", CIC TimeMachine attached minus bare");
  r.metric("ckpt.checkpoints_per_kstep", median(ckpts), "count", ckpts.size(),
           how + ", TimeMachineStats::checkpoints");
}

}  // namespace perfbench
