// service: an in-process fixdd daemon on a unix socket (one job worker,
// fault shim off) and one client that submits investigation jobs through
// submit_and_wait_or_degrade with the default poll interval and retry
// policy, as a user would. RPC, queueing, leases, the journal and its
// fsyncs do the work, plus the explorer in sliced trail-frontier mode.
#include <unistd.h>

#include <cstdio>
#include <map>
#include <thread>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "inputs.hpp"
#include "svc/client.hpp"
#include "svc/jobd.hpp"
#include "svc/journal.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace fixd;
namespace fs = std::filesystem;

/// A daemon serving on its own thread; the destructor stops and joins it.
class LiveDaemon {
 public:
  explicit LiveDaemon(const fs::path& dir) {
    svc::DaemonOptions o;
    o.endpoint = svc::Endpoint::parse("unix:" + (dir / "d.sock").string());
    o.state_dir = dir / "state";
    o.worker_threads = 1;
    state_dir_ = o.state_dir;
    daemon_ = std::make_unique<svc::Daemon>(o);
    server_ = std::thread([this] {
      // A dead serve loop shows up as degraded jobs, which fail the run.
      try {
        daemon_->serve();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fixdd serve loop died: %s\n", e.what());
      }
    });
  }
  ~LiveDaemon() {
    daemon_->stop();
    try {  // wake the accept loop
      svc::Client poke(daemon_->endpoint(),
                       svc::RetryPolicy{.max_attempts = 1});
      svc::Request req;
      req.request_id = 2;
      req.kind = svc::RpcKind::kPing;
      poke.call(req);
    } catch (const FixdError&) {
    }
    server_.join();
  }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  /// The first ping: serve() binds before it accepts, so retry until the
  /// daemon answers.
  void ping() const {
    svc::RetryPolicy warm;
    warm.max_attempts = 50;
    svc::Client c(daemon_->endpoint(), warm);
    svc::Request req;
    req.request_id = 1;
    req.kind = svc::RpcKind::kPing;
    if (c.call(req).status != svc::RpcStatus::kOk) {
      throw IoError("daemon did not answer its first ping");
    }
  }

  const svc::Endpoint& endpoint() const { return daemon_->endpoint(); }
  const fs::path& state_dir() const { return state_dir_; }

 private:
  fs::path state_dir_;
  std::unique_ptr<svc::Daemon> daemon_;
  std::thread server_;
};

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

constexpr int kSetupTurns = 1;  // before the loop; more run between ops
constexpr int kSetupReps = 3;  // per turn; the best one counts
/// A discarded daemon takes up to a supervisor period (lease / 4 = 500 ms)
/// to stop, on a background thread; turns this far apart do not overlap
/// with the teardown of the previous turn's daemons.
constexpr double kSetupGapMs = 1000;

/// The daemon keeps every finished job's checkpoint state in memory, so
/// its resident set grows with the jobs a run completes, which follows host
/// speed. peak_rss_mib is therefore read after this many rounds (7 jobs
/// each), which the slowest runs seen so far complete in under 20 s.
constexpr std::uint64_t kRssRounds = 6;

struct Reference {
  std::uint64_t visited_digest = 0;
  std::uint64_t trail_digest = 0;
  std::uint64_t states = 0;
};

/// One job as the client sees it.
struct JobOutcome {
  svc::JobSpec spec;
  svc::InvestigationOutcome out;
  double ms = 0;
  std::string error;  ///< the call threw: failed or cancelled job
  bool traced = false;
};

/// Timed Client::call for the RPC probe.
svc::Response timed_call(Tracer& t, svc::Client& c, const svc::Request& req,
                         std::uint64_t op, std::vector<double>& us,
                         std::vector<double>& attempts) {
  Span s(t, std::string("svc.") + svc::to_string(req.kind), op);
  const auto t0 = Clock::now();
  svc::Response rsp = c.call(req);
  us.push_back(ms_since(t0) * 1e3);
  attempts.push_back(c.last_attempts());
  return rsp;
}

}  // namespace

void run_service(Bench& b) {
  Result& r = b.result;
  Tracer& t = b.tracer;
  const svc::ScenarioRegistry registry = svc::ScenarioRegistry::with_builtins();
  const fs::path run_dir =
      b.ctx.out_dir / ("run-" + std::to_string(::getpid()));
  fs::remove_all(run_dir);

  std::unique_ptr<LiveDaemon> daemon, spare;
  int rep = 0;
  // Stopping a daemon waits out its supervisor's sleep, so spare daemons
  // retire on background threads, joined at the end.
  std::vector<std::jthread> retiring;
  HostSpeed host;
  const fs::path syscall_dir = run_dir / "syscall-reference";
  SetupTimer setup(
      SetupPlan{kSetupGapMs, kSetupReps,
                [&] {
                  return syscall_reference_ms(syscall_dir) / kSyscallNominalMs;
                },
                "(system-call reference time / " +
                    json_number(kSyscallNominalMs) + " ms)"},
      [&](bool keep) {
        Span s(t, "svc.daemon_start", 0);
        const fs::path dir = run_dir / ("d" + std::to_string(rep++));
        fs::create_directories(dir);
        std::unique_ptr<LiveDaemon>& d = keep ? daemon : spare;
        d = std::make_unique<LiveDaemon>(dir);
        d->ping();
      },
      [&] {
        retiring.emplace_back([d = std::move(spare)]() mutable { d.reset(); });
      });
  setup.before_loop(kSetupTurns);

  std::vector<JobOutcome> jobs;
  std::optional<double> rss_at_mark;
  std::uint64_t next_request = hash_combine(b.ctx.seed, 0x7e9);
  const std::uint64_t journal_before = dir_bytes(daemon->state_dir());
  svc::Client client(daemon->endpoint(), svc::RetryPolicy{});
  OpRunner ops(t, setup, host);

  const double loop_s =
      run_rounds(b.ctx.seconds, setup, host, [&](std::uint64_t round) {
    for (const svc::JobSpec& spec : service_round(b.ctx.seed, round)) {
      ops.run([&](Tracer& tt, std::uint64_t op) {
        Span root(tt, "service.job", op);
        JobOutcome j{spec, {}, 0, {}, tt.enabled()};
        const auto t0 = Clock::now();
        try {
          Span s(tt, "svc.submit_and_wait_or_degrade", op);
          j.out = svc::submit_and_wait_or_degrade(client, registry, spec,
                                                  ++next_request);
        } catch (const FixdError& e) {
          j.error = e.what();
        }
        j.ms = ms_since(t0);
        root.arg("compute_ms", j.out.result.stats.wall_ms);
        root.arg("states", static_cast<double>(j.out.result.stats.states));
        const bool ok = j.error.empty() && !j.out.degraded;
        jobs.push_back(std::move(j));
        return ok ? jobs.back().ms : -1.0;
      });
    }
    if (round + 1 == kRssRounds) rss_at_mark = peak_rss_mib();
  });
  const std::uint64_t journal_after = dir_bytes(daemon->state_dir());

  // Output checks outside the timed region: every job against an
  // in-process run_investigation of the same spec.
  std::map<std::string, Reference> refs;
  std::vector<double> op_ms;
  double states = 0, explore_s = 0;
  for (const JobOutcome& j : jobs) {
    const std::string key = spec_key(j.spec);
    if (!refs.count(key)) {
      const svc::JobResultMsg ref = svc::run_investigation(
          *registry.find(j.spec.scenario), j.spec, nullptr, {});
      refs[key] = {ref.visited_digest, ref.trail_digest, ref.stats.states};
    }
    const Reference& ref = refs[key];
    std::string failure = j.error;
    if (failure.empty() && j.out.degraded) {
      failure = "degraded: " + j.out.degraded_reason;
    }
    if (failure.empty() && !j.out.result.complete) failure = "incomplete";
    if (!failure.empty()) {
      r.ops.fail();
      r.check(false, key + ": job " + failure);
      continue;
    }
    r.ops.ok();
    r.check(j.out.result.visited_digest == ref.visited_digest &&
                j.out.result.trail_digest == ref.trail_digest &&
                j.out.result.stats.states == ref.states,
            key + ": daemon result differs from the in-process reference");
    op_ms.push_back(j.ms);
    states += static_cast<double>(j.out.result.stats.states);
    explore_s += j.out.result.stats.wall_ms / 1e3;
  }
  r.line("distinct job specs checked against in-process references: " +
         std::to_string(refs.size()));

  const std::string rss_note =
      rss_at_mark ? "after the first " + std::to_string(kRssRounds) + " rounds"
                  : "at the end of a run shorter than " +
                        std::to_string(kRssRounds) + " rounds";
  report_end_to_end(r, setup, host, loop_s, op_ms, states, explore_s, "job",
                    rss_at_mark.value_or(peak_rss_mib()), rss_note);
  {
    std::vector<double> n5;
    for (const JobOutcome& j : jobs) {
      if (j.spec.scenario == "two-pc" && j.spec.n == 5) n5.push_back(j.ms);
    }
    r.timing("job_ms_two_pc_n5", n5, "ms",
             "submit-to-result latency of the two-pc n=5 jobs");
  }

  if (t.enabled()) {
    ops.report_overhead(r);

    // Counters of the traced jobs.
    ExploreSum layers;
    double compute_ms = 0, client_ms = 0;
    for (const JobOutcome& j : jobs) {
      if (!j.traced) continue;
      layers.add(j.out.result.stats, j.out.result.stats.wall_ms);
      compute_ms += j.out.result.stats.wall_ms;
      client_ms += j.ms;
    }
    const std::size_t nt = layers.searches;
    layers.report(r, "JobResultMsg::stats of the traced jobs");
    r.metric("svc.compute_share", client_ms > 0 ? compute_ms / client_ms : 0,
             "ratio", nt, "result.stats.wall_ms / submit-to-result latency");
    r.metric("svc.journal_kib_per_job",
             (journal_after - journal_before) / 1024.0 /
                 std::max<double>(1, jobs.size()),
             "KiB", jobs.size(), "state-dir growth over the timed loop / jobs");

    // RPC probe: one round of the workload's specs through Client::call
    // directly, at the library's poll cadence (result, then status, then
    // sleep the default 20 ms), so every call can be timed on its own.
    std::vector<double> submit_us, status_us, result_us, attempts, polls,
        queue_ms, checkpoints;
    for (const svc::JobSpec& spec : service_round(b.ctx.seed, 0)) {
      const std::uint64_t op = t.new_op();
      Span job(t, "probe.svc_rpc_job", op);
      svc::Request req;
      req.request_id = ++next_request;
      req.kind = svc::RpcKind::kSubmit;
      req.spec = spec;
      const auto t0 = Clock::now();
      const svc::Response sub =
          timed_call(t, client, req, op, submit_us, attempts);
      double queued = -1;
      double n_polls = 0;
      for (;;) {
        ++n_polls;
        svc::Request rr;
        rr.request_id = ++next_request;
        rr.kind = svc::RpcKind::kResult;
        rr.job_id = sub.job_id;
        if (timed_call(t, client, rr, op, result_us, attempts).status ==
            svc::RpcStatus::kOk) {
          break;
        }
        svc::Request sr = rr;
        sr.request_id = ++next_request;
        sr.kind = svc::RpcKind::kStatus;
        const svc::Response st =
            timed_call(t, client, sr, op, status_us, attempts);
        if (st.status_msg.phase == svc::JobPhase::kFailed ||
            st.status_msg.phase == svc::JobPhase::kCancelled) {
          r.check(false, spec_key(spec) + ": probe job failed: " +
                             st.status_msg.error);
          break;
        }
        if (queued < 0 && st.status_msg.phase != svc::JobPhase::kQueued) {
          queued = ms_since(t0);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      svc::Request sr;
      sr.request_id = ++next_request;
      sr.kind = svc::RpcKind::kStatus;
      sr.job_id = sub.job_id;
      const svc::Response st =
          timed_call(t, client, sr, op, status_us, attempts);
      checkpoints.push_back(static_cast<double>(st.status_msg.checkpoints));
      polls.push_back(n_polls);
      // A job that finished before the first status read never showed as
      // queued: its queue wait is bounded by the first result poll.
      queue_ms.push_back(queued < 0 ? 0 : queued);
    }
    const std::string probe = "probe: one round of the workload's specs via "
                              "Client::call at the library's poll cadence";
    r.timing("svc.submit_us", submit_us, "us", probe);
    r.timing("svc.status_us", status_us, "us", probe);
    r.timing("svc.result_us", result_us, "us", probe);
    double att = 0;
    for (double a : attempts) att += a;
    r.metric("svc.attempts_per_rpc", att / std::max<double>(1, attempts.size()),
             "ratio", attempts.size(), probe + ", Client::last_attempts()");
    r.metric("svc.polls_per_job", median(polls), "count", polls.size(), probe);
    r.metric("svc.queue_wait_ms", median(queue_ms), "ms", queue_ms.size(),
             probe + ", submit until status first leaves queued");
    r.metric("svc.checkpoints_per_job", median(checkpoints), "count",
             checkpoints.size(), probe + ", JobStatusMsg::checkpoints");

    // Slice probe: run_investigation on the same specs with callbacks that
    // time each slice and the journal writes of each checkpoint.
    const fs::path jdir = run_dir / "probe-journal";
    fs::create_directories(jdir);
    std::vector<double> slice_ms, write_ms, build_ms;
    double visited_written = 0;
    std::uint64_t job_id = 0;
    for (const svc::JobSpec& spec : service_round(b.ctx.seed, 0)) {
      const svc::ScenarioFamily& fam = *registry.find(spec.scenario);
      {
        Span s(t, "apps.world_build", t.new_op());
        const auto t0 = Clock::now();
        std::unique_ptr<rt::World> w = fam.make(spec.n, spec.version);
        build_ms.push_back(ms_since(t0));
      }
      Span s(t, "probe.svc_slices", t.new_op());
      svc::JobJournal journal(jdir, ++job_id);
      svc::RunCallbacks cb;
      auto slice_start = Clock::now();
      cb.heartbeat = [&] { slice_ms.push_back(ms_since(slice_start)); };
      cb.on_checkpoint = [&](const svc::CheckpointState& st) {
        const auto t0 = Clock::now();
        svc::JournalRecord rec;
        rec.type = svc::JournalRecordType::kCheckpoint;
        rec.checkpoint_seq = st.slices - 1;
        rec.visited = journal.write_visited_run(st.slices - 1, st.visited);
        rec.frontier = st.frontier;
        rec.stats = st.stats;
        rec.violations = st.violations;
        journal.append(rec);
        write_ms.push_back(ms_since(t0));
        visited_written += static_cast<double>(st.visited.size());
        slice_start = Clock::now();
        return true;
      };
      svc::run_investigation(fam, spec, nullptr, cb);
    }
    const std::string sp = "probe: run_investigation of one round's specs "
                           "with timing callbacks";
    r.timing("svc.slice_ms", slice_ms, "ms", sp);
    r.timing("svc.ckpt_write_ms", write_ms, "ms",
             sp + ", JobJournal::write_visited_run + append");
    r.metric("svc.ckpt_visited_written",
             visited_written / std::max<double>(1, write_ms.size()), "count",
             write_ms.size(), sp + ", visited digests written per checkpoint");
    r.metric("apps.world_build_ms", median(build_ms), "ms", build_ms.size(),
             "span around ScenarioFamily::make for one round's specs");

    const ProbeWorlds pw{[&registry] {
                           return registry.find("two-pc")->make(5, 2);
                         },
                         "two-pc n=5 v2"};
    probe_state_ops(r, t, pw, b.ctx.seed);
    probe_forward(r, t, pw, 1000);
    report_idle(r, kProtectOnlyLayers, "service runs no protected pipeline");
  }

  daemon.reset();
  retiring.clear();  // joins
  fs::remove_all(run_dir);
}

}  // namespace perfbench
