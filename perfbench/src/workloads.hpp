// The three workloads and the layer probes the traced run adds.
//
// Every workload is a closed loop with one caller: the next operation
// starts when the previous one returns. Operations are grouped in rounds
// with a fixed mix (only the order varies with the seed), and a run
// measures whole rounds until --seconds have passed.
//
// Untraced runs report the end-to-end metrics. A traced run executes every
// operation twice, once plain and once wrapped in spans with its counters
// read at the same boundaries, alternating which goes first; the per-layer
// metrics come from the traced copies and the probes, and the tracing
// overhead from comparing the two copies.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hostspeed.hpp"
#include "mc/engine.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace fixd::rt {
class World;
}

namespace perfbench {

struct Bench {
  const RunContext& ctx;
  Tracer& tracer;
  Result& result;
};

void run_investigate(Bench& b);
void run_protect(Bench& b);
void run_service(Bench& b);

using Clock = std::chrono::steady_clock;
inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// How a workload's set-up is repeated and adjusted for host speed.
struct SetupPlan {
  double gap_ms;  ///< turns at least this far apart
  int reps;       ///< back-to-back repetitions per turn; the best one counts
  /// Runs a reference sample right after a turn and returns the factor
  /// the turn is divided by.
  std::function<double()> adjustment;
  std::string adjustment_note;  ///< how, for the results file
};

/// Times a workload's set-up. Host speed on a shared VM switches between
/// states every fraction of a second, and a set-up takes microseconds to
/// milliseconds, so repetitions run back to back all land in one state and
/// the median would flip between runs. The timer therefore runs a set-up
/// turn before the timed loop and again between operations while the loop
/// runs (at most once per gap, with the loop clock paused). A turn is the
/// best of a few back-to-back repetitions, which drops the occasional slow
/// wake-up of a freshly started thread, divided by the adjustment of a
/// reference sample taken right after it, in the same state of the host.
/// setup_s is the median over all turns.
class SetupTimer {
 public:
  /// `setup(keep)` builds the workload's state; with keep == false it
  /// builds a spare that `discard()` (untimed) then drops.
  SetupTimer(SetupPlan plan, std::function<void(bool keep)> setup,
             std::function<void()> discard)
      : plan_(std::move(plan)),
        setup_(std::move(setup)),
        discard_(std::move(discard)) {}

  /// `turns` turns back to back; the state of the last repetition is kept.
  void before_loop(int turns);
  /// One discarded turn if the plan's gap has passed since the last one.
  void between_ops();

  /// Wall time spent in set-up repetitions so far, which loops exclude.
  double spent_s() const { return spent_s_; }

  /// Median of the adjusted turns.
  double median_s() const { return median(adjusted_s_); }
  std::size_t samples() const { return samples_s_.size(); }
  const SetupPlan& plan() const { return plan_; }
  /// The unadjusted turns.
  const std::vector<double>& samples_s() const { return samples_s_; }

 private:
  void turn(bool keep);

  SetupPlan plan_;
  std::function<void(bool)> setup_;
  std::function<void()> discard_;
  std::vector<double> samples_s_;
  std::vector<double> adjusted_s_;
  double spent_s_ = 0;
  Clock::time_point last_ = Clock::now();
};

/// The plan of a set-up that is ordinary computation: turns adjusted by a
/// HostSpeed sample (its adjustment_for()).
SetupPlan compute_setup_plan(HostSpeed& host, double gap_ms, int reps);

/// Calls `round(r)` for r = 0, 1, ... until `seconds` of loop time have
/// elapsed at a round boundary, sampling `host` at the start and the end.
/// Returns the loop time in seconds, excluding the time `setup` and `host`
/// spent in their turns between operations.
double run_rounds(double seconds, SetupTimer& setup, HostSpeed& host,
                  const std::function<void(std::uint64_t)>& round);

/// The end-to-end metrics every workload reports, from its timed loop:
/// setup_s, ops_per_s and states_per_s adjusted for host speed by
/// `host.adjustment()` (the raw figures are reported too, with a _raw
/// suffix), peak_rss_mib, error_rate and the operation latency.
/// `peak_rss` is the peak resident set at a fixed amount of work, with
/// `rss_note` saying which, for a workload whose memory grows with the
/// operations it completes; without it, the peak over the whole run.
void report_end_to_end(Result& r, const SetupTimer& setup,
                       const HostSpeed& host, double loop_s,
                       const std::vector<double>& op_ms, double states,
                       double explore_s, const char* op_name,
                       std::optional<double> peak_rss = std::nullopt,
                       const std::string& rss_note = "");

/// Runs the operations of a timed loop. In an untraced run each operation
/// runs once; in a traced run twice, plain and traced, alternating which
/// copy goes first. `body(tracer, op)` receives the run's tracer and a fresh
/// operation id for the traced copy, a disabled tracer and op 0 for a plain
/// one, and returns the copy's wall time in ms (negative if it failed).
/// `setup` and `host` get a turn before every operation.
class OpRunner {
 public:
  OpRunner(Tracer& t, SetupTimer& setup, HostSpeed& host)
      : t_(t), setup_(setup), host_(host) {}
  void run(const std::function<double(Tracer&, std::uint64_t op)>& body);
  /// bench.trace_overhead: traced over plain time of the same operations.
  void report_overhead(Result& r) const;

 private:
  Tracer& t_;
  SetupTimer& setup_;
  HostSpeed& host_;
  Tracer off_{false};
  std::uint64_t item_ = 0;
  double plain_ms_ = 0;
  double traced_ms_ = 0;
  std::size_t pairs_ = 0;
};

/// The mc.* per-layer metrics, summed over a workload's searches.
struct ExploreSum {
  fixd::mc::ExploreStats sum;
  std::uint64_t peak_frontier = 0;
  std::uint64_t visited = 0;
  std::size_t searches = 0;
  /// `wall_ms`: the search's explore time (a span, or ExploreStats).
  void add(const fixd::mc::ExploreStats& s, double wall_ms);
  void report(Result& r, const std::string& how) const;
};

/// Layer probes on a workload's own worlds. `make` builds a fresh world.
struct ProbeWorlds {
  std::function<std::unique_ptr<fixd::rt::World>()> make;
  const char* label;
};
/// rt.snapshot_us / rt.restore_us / rt.enabled_events_us on states reached
/// by seeded walks from the root.
void probe_state_ops(Result& r, Tracer& t, const ProbeWorlds& w,
                     std::uint64_t seed);
/// rt.step_ns, rt.bare_steps_per_s, net.sends_per_step, scroll.*, ckpt.*
/// per-step costs: bare runs against runs with a Scroll or a CIC
/// TimeMachine attached, interleaved.
void probe_forward(Result& r, Tracer& t, const ProbeWorlds& w, int reps);

/// Per-layer names of layers a workload does not reach, reported as 0 so
/// every traced run carries the full per-layer set.
struct Idle {
  const char* name;
  const char* unit;
};
void report_idle(Result& r, const std::vector<Idle>& metrics, const char* why);

/// Layers only the protect workload reaches (pipeline phases, ladder).
extern const std::vector<Idle> kProtectOnlyLayers;
/// Layers only the service workload reaches (RPC, queue, journal).
extern const std::vector<Idle> kServiceOnlyLayers;

}  // namespace perfbench
