// Job management for fixdd: scenario registry, checkpointed investigation
// runner, lease-supervised execution, and the daemon serve loop.
//
// The durable unit is a JobSpec (scenario name + parameters), never a live
// world: the registry rebuilds the world deterministically, so a journal +
// spec + checkpoint fully determine the rest of the search. That is what
// makes `kill -9` recoverable — and testable: a resumed job's visited-set
// and trail digests must equal an uninterrupted run's byte for byte
// (tests/test_svc.cpp pins this at randomized kill points).
//
// Robustness mechanisms here:
//   * Idempotency: submit() consults the request-id ledger first; a
//     duplicate submit returns the existing job id with `duplicate` set
//     and never enqueues a second execution.
//   * Leases: a running attempt owns a (job, generation) lease and
//     heartbeats it from the runner's per-checkpoint callback.
//     supervise_tick() declares an attempt dead when its lease lapses,
//     bumps the generation (fencing the zombie — its late checkpoint/
//     completion writes are rejected), journals a new attempt, and
//     requeues the job from the last durable checkpoint.
//   * Durability: every checkpoint hits the WAL (delta run and its
//     directory entry fsynced before the record referencing it) while the
//     search runs on to the next checkpoint, which waits for it. The
//     daemon keeps no checkpoint state in memory: a requeued attempt
//     resumes from the journal exactly as a restarted daemon does.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "mc/sysmodel.hpp"
#include "svc/journal.hpp"
#include "svc/transport.hpp"
#include "svc/wire.hpp"

namespace fixd::rt {
class World;
}

namespace fixd::svc {

/// A named, deterministic world family the daemon can investigate.
struct ScenarioFamily {
  std::string name;
  std::function<std::unique_ptr<rt::World>(std::uint32_t n, std::int32_t
                                               version)>
      make;
  std::function<void(rt::World&)> install_invariants;
};

class ScenarioRegistry {
 public:
  void add(ScenarioFamily fam);
  const ScenarioFamily* find(const std::string& name) const;
  std::vector<std::string> names() const;

  /// two-pc, token-ring, election — the in-tree app models, single-txn
  /// configurations so a job's state space is bounded.
  static ScenarioRegistry with_builtins();

 private:
  std::map<std::string, ScenarioFamily> fams_;
};

/// Search state at a checkpoint. Two uses, one shape:
///
///   * RunCallbacks::on_checkpoint receives what ONE checkpoint adds —
///     exactly what a kCheckpoint journal record carries: `visited` and
///     `violations` are DELTAS (the digests first visited and the
///     violations found since the previous checkpoint; `visited` sorted),
///     while `frontier` is the whole live frontier and `stats` the counters
///     accumulated over the whole job.
///   * run_investigation's `resume` takes the FOLD of every checkpoint so
///     far: the union of the visited deltas (sorted), all violations in
///     order, and the latest frontier, stats and slices — what
///     load_checkpoint() rebuilds from a journal.
struct CheckpointState {
  std::vector<std::uint64_t> visited;  ///< sorted canonical digests
  std::vector<mc::Trail> frontier;
  mc::ExploreStats stats;  ///< accumulated over the whole job
  std::vector<mc::SysViolation> violations;
  std::uint64_t slices = 0;  ///< checkpoints taken so far
};

/// Fold a recovered journal's checkpoint chain into a resume state (empty,
/// slices == 0, when it has no checkpoint). Throws like merge_visited_runs.
CheckpointState load_checkpoint(const std::filesystem::path& dir,
                                RecoveredJob rec,
                                const Progress& progress = nullptr);

/// Canonical digest of a visited set (order-independent by construction:
/// input must be sorted, which SysExploreResult::visited guarantees).
std::uint64_t visited_digest(const std::vector<std::uint64_t>& visited);

/// Canonical digest of reported violations. For a one-worker search the
/// trail order and contents are deterministic, so the digest covers the
/// full ordered trails. Parallel searches report a deterministic violation
/// *multiset* but path-dependent trails/depths, so the digest covers the
/// sorted (invariant, pid, detail) records only — the strongest claim the
/// parallel determinism contract supports.
std::uint64_t trail_digest(const std::vector<mc::SysViolation>& violations,
                           std::uint32_t workers,
                           const Progress& progress = nullptr);

struct RunCallbacks {
  /// Called at every checkpoint — doubles as the lease heartbeat.
  std::function<void()> heartbeat;
  /// Checked before the search and after every checkpoint; true stops the
  /// run (cancel / fenced / drain).
  std::function<bool()> should_cancel;
  /// Called for every checkpoint with the deltas described at
  /// CheckpointState — on a helper thread, so the durable writes overlap
  /// the search. Calls are serialized and in checkpoint order, and the
  /// next checkpoint (like the end of the run) waits for the previous
  /// call: a checkpoint is durable before the next one is taken, and a
  /// false return (stale generation) or an exception stops the run at
  /// that next checkpoint.
  /// A null callback means "no durability" (the degraded in-process path).
  std::function<bool(const CheckpointState&)> on_checkpoint;
};

/// Run one investigation as ONE live search that checkpoints in place
/// roughly every `spec.checkpoint_states` new states (no checkpoints at
/// 0). Pure with respect to the spec: the same spec (resumed from any
/// checkpoint or not) converges to the same visited set and violations as
/// one uninterrupted run. Used by the daemon's workers AND the client's
/// in-process degradation fallback, so degraded results are comparable by
/// construction.
JobResultMsg run_investigation(const ScenarioFamily& fam, const JobSpec& spec,
                               const CheckpointState* resume,
                               const RunCallbacks& cb);

struct SubmitOutcome {
  std::uint64_t job_id = 0;
  bool duplicate = false;
};

struct JobManagerOptions {
  std::filesystem::path state_dir;
  std::uint32_t worker_threads = 2;
  std::uint64_t lease_ms = 2000;
};

class JobManager {
 public:
  JobManager(ScenarioRegistry registry, JobManagerOptions opts,
             LogRing* log = nullptr);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Idempotent by request_id: a repeat returns the original job with
  /// duplicate=true. Throws ConfigError for an unknown scenario.
  SubmitOutcome submit(std::uint64_t request_id, const JobSpec& spec);
  std::optional<JobStatusMsg> status(std::uint64_t job_id) const;
  /// True if the job existed and is now cancelled (or already terminal).
  bool cancel(std::uint64_t job_id);
  std::optional<JobResultMsg> result(std::uint64_t job_id) const;

  /// Replay every journal under state_dir; re-publishes terminal results
  /// and requeues incomplete jobs from their last checkpoint. Returns the
  /// number of jobs requeued. Call before serving.
  std::size_t recover();

  /// Declare dead any running attempt whose lease lapsed; fence + requeue.
  /// Returns the number of attempts declared dead. Runs automatically from
  /// an internal supervisor thread; exposed for deterministic tests.
  std::size_t supervise_tick();

  /// Stop accepting work and join workers. A running search stops at its
  /// next checkpoint, which parks the job (it will resume on next recover()).
  void shutdown();
  bool draining() const { return draining_.load(); }

  std::uint64_t lease_ms() const { return opts_.lease_ms; }

  /// Test hook: while stalled, the job's heartbeats stop refreshing the
  /// lease (the worker keeps running) — simulates a wedged worker so the
  /// supervisor/fencing path is testable without killing threads.
  void test_stall_job(std::uint64_t job_id, bool stalled);

 private:
  struct Job {
    std::uint64_t id = 0;
    std::uint64_t request_id = 0;
    JobSpec spec;
    JobPhase phase = JobPhase::kQueued;
    std::uint32_t generation = 0;  ///< current lease owner's token
    std::uint32_t attempts = 0;
    std::uint64_t last_heartbeat = 0;  ///< now_ms() of last lease refresh
    bool running = false;              ///< an attempt thread is executing
    bool cancel_requested = false;
    bool resumed = false;
    bool stalled = false;  ///< test hook (see test_stall_job)
    std::uint64_t checkpoints = 0;  ///< durable checkpoints in the journal
    /// Progress as of the last durable checkpoint (for status).
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t violations = 0;
    std::optional<JobResultMsg> result;
    std::string error;
    std::unique_ptr<JobJournal> journal;
  };

  void worker_loop();
  void supervisor_loop();
  void execute(std::uint64_t job_id, std::uint32_t my_gen);
  void log_event(LogLevel level, const std::string& msg);

  ScenarioRegistry registry_;
  JobManagerOptions opts_;
  LogRing* log_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Job> jobs_;
  std::map<std::uint64_t, std::uint64_t> request_ledger_;  // req id -> job id
  std::vector<std::uint64_t> queue_;
  std::uint64_t next_job_id_ = 1;
  std::atomic<bool> draining_{false};
  std::vector<std::thread> workers_;
  std::thread supervisor_;
};

struct DaemonOptions {
  Endpoint endpoint;
  std::filesystem::path state_dir;
  FaultShimSpec shim;
  std::uint32_t worker_threads = 2;
  std::uint64_t lease_ms = 2000;
  std::size_t log_capacity = 256;
};

/// The fixdd serve loop: accept → read framed Requests → dispatch to the
/// JobManager → respond (subject to the fault shim). Single-threaded
/// request handling by design — job execution happens on JobManager
/// workers, so the RPC path stays simple and every injected fault hits a
/// deterministic point.
class Daemon {
 public:
  explicit Daemon(DaemonOptions opts);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until a kShutdown RPC or stop(). Recovers journaled jobs
  /// before accepting.
  void serve();
  void stop();

  const Endpoint& endpoint() const { return listener_.endpoint(); }
  JobManager& jobs() { return jobs_; }
  LogRing& log_ring() { return log_; }
  std::size_t recovered() const { return recovered_; }

 private:
  Response dispatch(const Request& req);

  DaemonOptions opts_;
  LogRing log_;
  Listener listener_;
  JobManager jobs_;
  FaultShim shim_;
  std::atomic<bool> stop_{false};
  std::size_t recovered_ = 0;
};

}  // namespace fixd::svc
