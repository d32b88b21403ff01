// Durable write-ahead journal for investigation jobs.
//
// One journal file per job (`job-<id>.wal` under the daemon's state dir),
// a sequence of CRC frames (kJournalMagic) appended with fsync. Every
// record payload starts with kJournalVersion. Record order IS the
// protocol:
//
//   kSubmitted      — job spec + idempotency request_id (exactly one)
//   kAttemptStarted — a lease generation began (one per attempt)
//   kCheckpoint     — one in-place checkpoint of the live search: the
//                     digests first visited since the previous checkpoint
//                     (a delta run, `job-<id>-ckpt-<seq>.run`, in
//                     SortedRunWriter format), the violations found since
//                     the previous checkpoint, the whole live frontier
//                     (front-coded trails) and the accumulated stats. The
//                     delta run and its directory entry are fsynced BEFORE
//                     this record is appended, so a checkpoint record never
//                     references bytes that could be lost by a crash.
//   kCompleted      — terminal result (stats + violations + digests)
//   kCancelled      — terminal, user-requested
//
// Recovery replays records in order and stops at the FIRST torn frame (a
// short read or CRC mismatch from a mid-append crash reads as a clean end,
// never as corruption — the job simply resumes from its last durable
// checkpoint). A CRC-valid record that does not decode (another WAL
// version, a malformed front-coded frontier) and a second kSubmitted with
// the same request_id throw SerializationError: refuse to guess. The
// resume state is the fold of every checkpoint: the union of the delta
// runs (merge_visited_runs), the concatenated violations, and the last
// record's frontier and stats.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "mc/engine.hpp"
#include "mc/trail.hpp"
#include "svc/wire.hpp"

namespace fixd::svc {

/// Where a checkpoint's visited set lives on disk.
struct RunManifest {
  std::string file;  ///< path relative to the journal's directory
  std::uint64_t count = 0;
  std::vector<std::uint64_t> fence;

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);
};

/// Bumped whenever a record's encoding changes. Version 2: checkpoint
/// records carry delta runs, new violations only, and a front-coded
/// frontier (version 1 records carried the full state and no version).
inline constexpr std::uint32_t kJournalVersion = 2;

/// Upper bound on the actions one decoded checkpoint frontier may expand
/// to: front coding lets a few bytes stand for a whole shared prefix, so a
/// hostile record could otherwise ask for unbounded memory.
inline constexpr std::uint64_t kMaxFrontierActions = std::uint64_t{1} << 22;

enum class JournalRecordType : std::uint8_t {
  kSubmitted = 0,
  kAttemptStarted,
  kCheckpoint,
  kCompleted,
  kCancelled,
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kSubmitted;
  // kSubmitted
  std::uint64_t request_id = 0;
  std::uint64_t job_id = 0;
  JobSpec spec;
  // kAttemptStarted
  std::uint32_t generation = 0;
  // kCheckpoint
  std::uint64_t checkpoint_seq = 0;
  RunManifest visited;              // delta run: first visited since last
  std::vector<mc::Trail> frontier;  // the whole live frontier (front-coded)
  mc::ExploreStats stats;           // accumulated over the whole job
  std::vector<mc::SysViolation> violations;  // found since last checkpoint
  // kCompleted
  JobResultMsg result;
  // kCancelled: no extra payload

  void save(BinaryWriter& w) const;
  void load(BinaryReader& r);
};

/// Append-only WAL for one job. Not internally synchronized — the JobManager
/// serializes access per job.
class JobJournal {
 public:
  /// Opens (creating or appending) `dir/job-<id>.wal`.
  JobJournal(std::filesystem::path dir, std::uint64_t job_id);
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Encode, append as one CRC frame, fsync. Throws IoError on failure:
  /// durability is the point, a silent drop would void the resume proof.
  void append(const JournalRecord& rec);

  const std::filesystem::path& path() const { return path_; }

  /// Write `keys` (sorted ascending, deduped: one checkpoint's delta) as a
  /// SortedRun next to the journal, fsync it and its directory entry, and
  /// return the manifest to embed in the kCheckpoint record. Must be called
  /// BEFORE append() of that record.
  RunManifest write_visited_run(std::uint64_t checkpoint_seq,
                                const std::vector<std::uint64_t>& keys);

  /// Delete this job's journal + run files (terminal cleanup).
  static void remove_files(const std::filesystem::path& dir,
                           std::uint64_t job_id);

 private:
  std::filesystem::path dir_;
  std::filesystem::path path_;
  std::uint64_t job_id_ = 0;
  std::FILE* f_ = nullptr;
};

/// Result of replaying one job's journal.
struct RecoveredJob {
  std::uint64_t job_id = 0;
  std::uint64_t request_id = 0;
  JobSpec spec;
  std::uint32_t attempts = 0;  ///< kAttemptStarted count
  /// The newest checkpoint: its frontier, stats and sequence number (its
  /// violations are folded into `violations` below).
  std::optional<JournalRecord> last_checkpoint;
  /// Every checkpoint's delta run, oldest first (fold with
  /// merge_visited_runs), and every checkpoint's new violations in order.
  std::vector<RunManifest> visited_runs;
  std::vector<mc::SysViolation> violations;
  std::optional<JobResultMsg> result;  ///< set iff kCompleted seen
  bool cancelled = false;
  std::uint64_t checkpoints = 0;
};

/// Long recovery work calls `progress` every so often (null = never): the
/// daemon passes the attempt's lease heartbeat, since folding a long
/// checkpoint chain on a slow build can outlast a short lease.
using Progress = std::function<void()>;

/// Replay `dir/job-<id>.wal`. Stops cleanly at the first torn frame.
/// Returns nullopt if the file is missing or holds no complete kSubmitted
/// record. Throws SerializationError on a duplicate kSubmitted (the
/// idempotency invariant is broken — refuse to guess) and on a CRC-valid
/// record that does not decode.
std::optional<RecoveredJob> recover_job(const std::filesystem::path& dir,
                                        std::uint64_t job_id,
                                        const Progress& progress = nullptr);

/// The union of a checkpoint chain's delta runs, sorted: a streaming k-way
/// merge over the run files (at most kMergeFanIn open at once). Throws
/// SerializationError if a run is unsorted or two runs overlap — deltas
/// are disjoint by construction, so either means a corrupt chain — and
/// IoError/SerializationError for a missing or truncated run.
inline constexpr std::size_t kMergeFanIn = 64;
std::vector<std::uint64_t> merge_visited_runs(
    const std::filesystem::path& dir, const std::vector<RunManifest>& runs,
    const Progress& progress = nullptr);

/// All job ids with a journal file under `dir` (sorted ascending).
std::vector<std::uint64_t> list_journaled_jobs(
    const std::filesystem::path& dir);

}  // namespace fixd::svc
