#include "mc/sysmodel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/io.hpp"
#include "mc/concurrent.hpp"
#include "mc/tiered_visited.hpp"

namespace fixd::mc {

namespace {

using SteadyClock = std::chrono::steady_clock;

double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

/// mc_digest deliberately abstracts virtual time away (canonical dedup).
/// In timed exploration the *relative* readiness layout — how far each
/// pending delivery and armed timer is from now — decides which actions
/// are co-enabled, so the dedup digest must fold it in or states that
/// differ only by a delay would collapse into each other and the delayed
/// subtree would be pruned. Order-independent wrapping sum, keyed by
/// content (not path-dependent ids), relative to now (not absolute time,
/// which grows monotonically and would make every state unique).
std::uint64_t readiness_digest(const rt::World& w) {
  std::uint64_t acc = 0;
  const VirtualTime now = w.now();
  for (const net::Message* m : w.network().pending()) {
    const VirtualTime at = m->sent_at + m->latency;
    const VirtualTime rel = at > now ? at - now : 0;
    acc += mix64(hash_combine(mix64(m->content_digest()), rel));
  }
  for (ProcessId p = 0; p < w.size(); ++p) {
    for (const rt::Timer& t : w.timers_of(p).view()) {
      const VirtualTime rel = t.deadline > now ? t.deadline - now : 0;
      acc += mix64(hash_combine(hash_combine(p, t.kind), rel));
    }
  }
  return acc;
}

/// Time one state-digest call and charge it to stats.digest_ms.
std::uint64_t timed_mc_digest(rt::World& w, ExploreStats& stats,
                              bool abstract_time) {
  auto t0 = SteadyClock::now();
  std::uint64_t d = w.mc_digest();
  if (!abstract_time) d = hash_combine(d, readiness_digest(w));
  stats.digest_ms += ms_since(t0);
  return d;
}

}  // namespace

/// The indirection between frontier nodes and their shared snapshot (see
/// the declaration comment in sysmodel.hpp). Untracked anchors are
/// immutable after publication, so `snap` is read lock-free exactly like
/// the old direct shared_ptr<const WorldSnapshot> field. Tracked anchors
/// (budgeted trail mode) hand every `snap` transition to the
/// AnchorRegistry's mutex.
struct SystemExplorer::Anchor {
  /// The materialized state; null while evicted (tracked anchors only).
  std::shared_ptr<const rt::WorldSnapshot> snap;
  /// Root-relative rebuild recipe: the path chain at the anchor point and
  /// its action count. Only filled for tracked anchors — untracked ones
  /// are never evicted, so they never need rebuilding.
  const PathNode* path = nullptr;
  std::uint32_t depth = 0;
  std::uint32_t slot = 0;   ///< registry slot index (tracked only)
  bool tracked = false;     ///< registered with the registry (evictable)
  bool pinned = false;      ///< the root anchor: never evicted
  std::atomic<bool> ref{false};  ///< clock reference bit (second chance)
  std::uint64_t est_bytes = 0;   ///< registry accounting at admit time
};

/// Residency bookkeeping for evictable trail-mode anchors. One mutex
/// guards every tracked anchor's `snap` transitions plus the clock state —
/// eviction is rare relative to node pops (each anchor serves up to
/// anchor_interval children), so a single lock does not serialize the
/// workers the way a per-node lock would.
///
/// Accounting: an anchor's charge is its snapshot's size_bytes() — an
/// upper bound, since COW interiors may be shared with sibling anchors or
/// the live worlds. An anchor that dies (all its nodes popped) while
/// resident keeps its charge until the clock next sweeps its slot; the
/// transient over-count only makes eviction more eager, never lets the
/// budget be exceeded unnoticed. peak_resident() therefore bounds true
/// anchor residency from above.
class SystemExplorer::AnchorRegistry {
 public:
  explicit AnchorRegistry(std::uint64_t budget) : budget_(budget) {}

  /// The pinned root anchor every rebuild replays from. Must be called
  /// before any worker starts; `snap` stays immutable afterwards.
  void set_root(std::shared_ptr<Anchor> a) {
    a->pinned = true;
    root_ = std::move(a);
  }
  const std::shared_ptr<const rt::WorldSnapshot>& root_snap() const {
    return root_->snap;
  }

  /// Register a freshly snapshotted anchor as evictable.
  void admit(const std::shared_ptr<Anchor>& a) {
    std::lock_guard<std::mutex> lk(mu_);
    a->tracked = true;
    a->ref.store(true, std::memory_order_relaxed);
    a->est_bytes = a->snap->size_bytes();
    a->slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({a, a->est_bytes});
    resident_ += a->est_bytes;
    peak_ = std::max(peak_, resident_);
    evict_to_budget_locked();
  }

  /// The anchor's snapshot if resident (marks it recently used), else null
  /// — the caller must rebuild and install().
  std::shared_ptr<const rt::WorldSnapshot> acquire(Anchor& a) {
    std::lock_guard<std::mutex> lk(mu_);
    if (a.snap) a.ref.store(true, std::memory_order_relaxed);
    return a.snap;
  }

  /// Re-install a rebuilt snapshot. If a concurrent rebuild won the race
  /// the argument is dropped (the states are bit-identical by replay
  /// determinism, so either winner is correct).
  void install(Anchor& a, std::shared_ptr<const rt::WorldSnapshot> s) {
    std::lock_guard<std::mutex> lk(mu_);
    if (a.snap) return;
    a.snap = std::move(s);
    a.ref.store(true, std::memory_order_relaxed);
    a.est_bytes = a.snap->size_bytes();
    slots_[a.slot].charged = a.est_bytes;
    resident_ += a.est_bytes;
    peak_ = std::max(peak_, resident_);
    evict_to_budget_locked();
  }

  std::uint64_t evictions() const {
    std::lock_guard<std::mutex> lk(mu_);
    return evictions_;
  }
  std::uint64_t peak_resident() const {
    std::lock_guard<std::mutex> lk(mu_);
    return peak_;
  }

 private:
  struct Slot {
    std::weak_ptr<Anchor> wp;
    /// Mirror of the anchor's currently-counted bytes, so an expired slot
    /// (anchor died while resident) can still be refunded.
    std::uint64_t charged = 0;
  };

  /// Clock (second-chance) sweep: clear a set ref bit on first encounter,
  /// evict on the second. Two full passes bound the scan — after one pass
  /// every surviving ref bit is clear, so the second pass must evict
  /// unless everything is dead, pinned, or already evicted.
  void evict_to_budget_locked() {
    std::size_t scanned = 0;
    const std::size_t bound = slots_.size() * 2 + 1;
    while (resident_ > budget_ && !slots_.empty() && scanned++ < bound) {
      if (hand_ >= slots_.size()) hand_ = 0;
      Slot& sl = slots_[hand_++];
      std::shared_ptr<Anchor> a = sl.wp.lock();
      if (!a) {  // anchor died; refund whatever it still had charged
        resident_ -= sl.charged;
        sl.charged = 0;
        continue;
      }
      if (!a->snap || a->pinned) continue;
      if (a->ref.load(std::memory_order_relaxed)) {
        a->ref.store(false, std::memory_order_relaxed);
        continue;
      }
      a->snap.reset();
      resident_ -= sl.charged;
      sl.charged = 0;
      ++evictions_;
    }
  }

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::size_t hand_ = 0;
  std::uint64_t budget_;
  std::uint64_t resident_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t evictions_ = 0;
  std::shared_ptr<Anchor> root_;
};

/// Peak-frontier accounting with sharing awareness: every buffer a node
/// can reach — its snapshot shell, COW checkpoints, heap pages, message
/// objects, the net table — is charged once per unique pointer
/// (pointer-keyed refcounts), so snapshot-mode and trail-mode numbers are
/// honestly comparable and entries shared across sibling anchors by the
/// replay-warm machinery show up as real savings. The variant Node has
/// exactly one snapshot field, so a single node can no longer reach the
/// same checkpoint through two routes (the old snap-vs-anchor shape
/// could, and double-counted the per-node proc-table term for it); the
/// refcounts still dedupe any aliasing *across* nodes. Each worker keeps a
/// private meter (Node::owner tags the pusher), so a one-worker search's
/// meter is exact. With several workers, a worker charges at push
/// and refunds only nodes it both pushed and popped, so the rare stolen
/// node (deque or priority shard) stays charged on its victim's meter —
/// per-worker peaks are upper bounds with slack bounded by steal
/// traffic, and the merged peak_frontier_bytes (sum of peaks) bounds the
/// run's shared-aware peak from above with no cross-thread meter access.
/// Budgeted trail mode (frontier_budget_bytes > 0) splits the accounting:
/// anchor snapshots may be evicted/rebuilt concurrently by the
/// AnchorRegistry, which tracks their residency itself, so the meter is
/// told not to dereference them (charge_snapshots = false) and charges
/// only node shells and sleep sets; peak_frontier_bytes then reports
/// meter peak + registry peak. The Anchor struct itself rides in the
/// not-metered bucket alongside shared_ptr control blocks (it is ~40
/// bytes per anchor_interval-node cohort), keeping unbudgeted trail
/// accounting byte-identical to the pre-anchor representation.
class SystemExplorer::FrontierMeter {
 public:
  void set_charge_snapshots(bool v) { charge_snapshots_ = v; }
  void push(const Node& n) {
    cur_ += node_cost(n, +1);
    if (cur_ > peak_) peak_ = cur_;
  }
  void pop(const Node& n) { cur_ -= node_cost(n, -1); }
  std::uint64_t peak() const { return peak_; }

 private:
  /// Charge `bytes` when `p` first enters the frontier, refund when the
  /// last reference leaves. Returns the delta actually applied.
  std::uint64_t charge(const void* p, std::uint64_t bytes, int dir) {
    if (!p) return 0;
    if (dir > 0) return refs_[p]++ == 0 ? bytes : 0;
    auto it = refs_.find(p);
    if (it == refs_.end()) return 0;
    if (--it->second > 0) return 0;
    refs_.erase(it);
    return bytes;
  }

  std::uint64_t snapshot_cost(const rt::WorldSnapshot& s, int dir) {
    std::uint64_t n = 0;
    for (const auto& p : s.procs) {
      if (!p) continue;
      // size_bytes covers root/info plus the COW page *table*; the
      // resident page content is charged per unique page so diverged
      // pages pinned only by the frontier show up honestly.
      n += charge(p.get(), p->size_bytes(), dir);
      if (p->heap_snap) {
        for (const auto& page : p->heap_snap->pages()) {
          if (page) n += charge(page.get(), page->size(), dir);
        }
      }
    }
    if (s.net) {
      for (const auto& [id, m] : s.net->messages) {
        n += charge(m.get(), m->retained_bytes(), dir);
      }
      std::uint64_t table = sizeof(net::NetSnapshot);
      for (const auto& [key, q] : s.net->channels) {
        table += sizeof(key) + q.size() * sizeof(MsgId);
      }
      n += charge(s.net.get(), table, dir);
    }
    return n;
  }

  std::uint64_t node_cost(const Node& n, int dir) {
    std::uint64_t c = sizeof(Node);
    if (n.sleep) {
      c += sizeof(*n.sleep) + n.sleep->capacity() * sizeof(SleepEntry);
    }
    std::uint64_t shared = 0;
    // Tracked anchors' snap may be swapped by the registry on another
    // thread, so the budgeted meter never dereferences it; untracked
    // anchors are immutable, exactly like the old direct snapshot field.
    const rt::WorldSnapshot* s =
        (n.state && charge_snapshots_) ? n.state->snap.get() : nullptr;
    if (s) {
      // The snapshot shell (struct + proc pointer table) is itself shared:
      // one per anchor in trail mode (all descendants charge it once), one
      // per node in snapshot mode.
      const std::uint64_t shell =
          sizeof(rt::WorldSnapshot) +
          s->procs.capacity() *
              sizeof(std::shared_ptr<const rt::ProcessCheckpoint>);
      shared += charge(s, shell, dir);
      shared += snapshot_cost(*s, dir);
    }
    return c + shared;
  }

  std::unordered_map<const void*, std::size_t> refs_;
  std::uint64_t cur_ = 0;
  std::uint64_t peak_ = 0;
  bool charge_snapshots_ = true;
};

// ---------------------------------------------------------------------------
// Search coordination state
// ---------------------------------------------------------------------------

/// POR bookkeeping for one search: shared expansion records plus the root
/// anchor every backtrack node re-materializes from (root snapshot +
/// deterministic replay of the path prefix — the same machinery trail
/// frontiers use, which is why backtracking works identically in snapshot
/// and trail modes and across workers).
struct SystemExplorer::PorState {
  StripedPorRecords recs;
  /// The root *anchor* (pinned, never evicted) — backtrack nodes point at
  /// it and re-materialize by full-path replay.
  std::shared_ptr<Anchor> root;
};

namespace {

/// Lock stripes per shared search table when several workers contend for
/// it; a lone worker takes one stripe (one table, one uncontended lock).
constexpr std::size_t kStripes = 64;

/// The first exception any worker threw, re-thrown as is by the
/// coordinating thread once every worker has finished (an exception
/// escaping a std::thread would terminate).
struct FirstError {
  std::mutex mu;
  std::exception_ptr error;

  void capture() {
    std::lock_guard<std::mutex> lk(mu);
    if (!error) error = std::current_exception();
  }
  void rethrow() const {
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace

/// Everything the workers share. The visited set and the per-worker
/// deques are individually synchronized; the atomics below carry the
/// global budgets. `active` counts frontier nodes that are queued or being
/// expanded — it is incremented *before* a child is pushed and decremented
/// *after* its expansion finishes, so an idle worker observing active == 0
/// knows the search is complete (no node can reappear).
struct SystemExplorer::Shared {
  explicit Shared(std::size_t stripes)
      : visited(stripes), sleepvis(stripes), por{StripedPorRecords(stripes),
                                                 nullptr} {}

  StripedVisitedSet visited;
  /// Budgeted dedup (visited_budget_bytes > 0, plain dedup only): the
  /// Bloom-fronted spill-to-disk set used instead of `visited`, with its
  /// per-run scratch directory (RAII: spill files vanish on every exit
  /// path). Same per-stripe linearizability, so exactly-one-winner holds.
  ScratchDir spill_scratch;
  std::unique_ptr<TieredVisitedSet> tiered;
  /// Sleep-signature-aware visited set, used instead of `visited` when
  /// sleep_sets && dedup (the signature decides prune vs re-expand).
  StripedSleepVisited sleepvis;
  PorState por;

  /// Plain dedup insert into whichever visited set the search uses; true
  /// iff `h` was new.
  bool insert_visited(std::uint64_t h) {
    return tiered ? tiered->insert(h) : visited.insert(h);
  }

  std::atomic<std::uint64_t> states{0};
  std::atomic<std::uint64_t> violation_count{0};
  std::atomic<std::size_t> active{0};
  std::atomic<bool> stop{false};

  /// Checkpoint barrier (opts.checkpoint). Unlike `stop`, a pending
  /// checkpoint does NOT abandon in-flight expansions: each worker finishes
  /// pushing (or deduping) every child, then parks before its next pop.
  /// The last worker to park runs the hook over the quiescent frontier and
  /// releases the rest by bumping `ck_epoch`. `live` counts workers still
  /// inside worker_loop, so one that leaves (search done or stopped) never
  /// strands the others at the barrier.
  std::atomic<bool> ck_pending{false};
  /// sh.states at the previous checkpoint (the cadence baseline).
  std::atomic<std::uint64_t> ck_base{0};
  std::mutex ck_mu;
  std::condition_variable ck_cv;
  std::size_t ck_parked = 0;
  std::size_t live = 0;
  std::uint64_t ck_epoch = 0;

  /// A worker's expansion error or the checkpoint hook's, whichever came
  /// first.
  FirstError error;

  std::vector<std::unique_ptr<Worker>> workers;
};

/// One worker: a private world (see run_workers), a stealable frontier
/// shard (deque for kBfs/kDfs, priority shard for kPriority — the old
/// single mutex-guarded global heap serialized every push and pop across
/// workers), and private stats/violations merged by the coordinator once
/// every worker has finished.
struct SystemExplorer::Worker {
  std::size_t id = 0;
  rt::World* world = nullptr;
  StealableDeque<Node> deque;
  PriorityShard<Node> pq;
  /// Private frontier meter (owner-paired charges; see FrontierMeter).
  FrontierMeter meter;
  /// This worker's reachability-graph edges. Only the owner appends
  /// (std::deque keeps existing element addresses stable across
  /// push_back); other workers read nodes through raw parent pointers
  /// published by the frontier-deque mutexes. Freed wholesale at the end.
  std::deque<PathNode> arena;
  ExploreStats stats;
  std::vector<SysViolation> violations;
  /// Checkpointing: digests this worker first inserted since the previous
  /// checkpoint, and how many of `violations` were already handed out.
  std::vector<std::uint64_t> fresh;
  std::size_t violations_reported = 0;
};

// ---------------------------------------------------------------------------
// SystemExplorer
// ---------------------------------------------------------------------------

SystemExplorer::SystemExplorer(rt::World& base, SysExploreOptions opts)
    : base_(base), opts_(std::move(opts)) {
  scratch_ = base_.clone();
  scratch_->set_abstract_time(opts_.abstract_time);
  scratch_->set_check_global_invariants(true);
  scratch_->set_stop_on_violation(false);
  if (opts_.install_invariants) opts_.install_invariants(*scratch_);
}

SystemExplorer::~SystemExplorer() = default;

void SystemExplorer::materialize(rt::World& w, const Node& n,
                                 ExploreStats& stats) const {
  // Snapshot mode: n.state is the node's exact state (replay_len == 0).
  // Trail mode: n.state is the anchor; re-execute the suffix after it.
  Anchor& anchor = *n.state;
  if (reg_ && anchor.tracked) {
    std::shared_ptr<const rt::WorldSnapshot> snap = reg_->acquire(anchor);
    if (snap) {
      w.restore(*snap);
    } else {
      // Evicted: rebuild by root-anchored deterministic replay — the same
      // mechanism POR backtrack nodes always use, so eviction cannot
      // change what any node materializes to. The rebuilt snapshot is
      // re-installed so one rebuild serves every node on this anchor.
      std::vector<const SysAction*> prefix(anchor.depth);
      const PathNode* p = anchor.path;
      for (std::size_t i = anchor.depth; i-- > 0;) {
        prefix[i] = &p->action;
        p = p->parent;
      }
      w.restore(*reg_->root_snap());
      w.clear_violations();
      for (const SysAction* a : prefix) apply_action(w, *a);
      w.clear_violations();
      stats.replayed_actions += anchor.depth;
      auto t0 = SteadyClock::now();
      auto fresh =
          std::make_shared<const rt::WorldSnapshot>(w.snapshot(/*cow=*/true));
      if (opts_.workers > 1) fresh->share_across_threads();
      stats.snapshot_ms += ms_since(t0);
      reg_->install(anchor, std::move(fresh));
      ++stats.anchor_recomputes;
      // w already sits at the anchor state; fall through to the suffix.
    }
  } else {
    w.restore(*anchor.snap);
  }
  if (n.replay_len == 0) return;
  // The path chain stores the route youngest-first; collect the suffix,
  // then re-execute oldest-first. Determinism makes this bit-identical to
  // the state captured when the node was created.
  std::vector<const SysAction*> suffix(n.replay_len);
  const PathNode* p = n.path;
  for (std::size_t i = n.replay_len; i-- > 0;) {
    suffix[i] = &p->action;
    p = p->parent;
  }
  w.clear_violations();
  for (const SysAction* a : suffix) apply_action(w, *a);
  // Violations raised along the replayed prefix were recorded when it was
  // first explored; drop the duplicates.
  w.clear_violations();
  stats.replayed_actions += n.replay_len;
}

std::vector<SysAction> SystemExplorer::enabled_actions(
    const rt::World& w) const {
  std::vector<SysAction> out;
  for (const rt::EventDesc& ev : w.enabled_events()) {
    SysAction a;
    a.kind = SysAction::Kind::kRuntime;
    a.event = ev;
    out.push_back(a);
  }
  if (opts_.model_message_loss || opts_.model_message_duplication) {
    // Enumerate from the network's incremental deliverable index (the
    // control flag is cached in the entries, so no per-message lookups);
    // the canonical order is globally ascending message id. The
    // uncached-oracle toggle covers this consumer too, so a bypassed
    // world's whole action set really is index-free.
    std::vector<std::pair<MsgId, bool>> deliv;
    if (w.use_enabled_index()) {
      for (const auto& [dst, b] : w.network().deliv_index()) {
        for (const auto& [id, e] : b.by_id) deliv.emplace_back(id, e.control);
      }
      std::sort(deliv.begin(), deliv.end());
    } else {
      for (MsgId id : w.network().deliverable()) {
        deliv.emplace_back(id, w.network().peek(id)->control);
      }
    }
    for (const auto& [id, control] : deliv) {
      if (control) continue;  // FixD's own protocol stays reliable
      if (opts_.model_message_loss) {
        SysAction a;
        a.kind = SysAction::Kind::kDropMessage;
        a.msg = id;
        out.push_back(a);
      }
      if (opts_.model_message_duplication) {
        SysAction a;
        a.kind = SysAction::Kind::kDupMessage;
        a.msg = id;
        out.push_back(a);
      }
    }
  }
  if (opts_.model_message_delay) {
    std::vector<MsgId> deliv;
    if (w.use_enabled_index()) {
      for (const auto& [dst, b] : w.network().deliv_index()) {
        for (const auto& [id, e] : b.by_id) deliv.push_back(id);
      }
      std::sort(deliv.begin(), deliv.end());
    } else {
      deliv = w.network().deliverable();
    }
    for (MsgId id : deliv) {
      const net::Message* m = w.network().peek(id);
      if (m->control) continue;
      // The horizon bounds the accumulated latency a message can pick up
      // through delay actions, keeping timed exploration finite — without
      // it, enough stacked delays beat any finite timeout and the tuner
      // could never converge.
      if (m->latency >= opts_.model_delay_horizon) continue;
      SysAction a;
      a.kind = SysAction::Kind::kDelayMessage;
      a.msg = id;
      a.delay = opts_.model_delay_quantum;
      out.push_back(a);
    }
  }
  if (opts_.model_timer_mutation) {
    // Cancel actions derive from the enabled timer events already in
    // `out`, so cached and uncached enumeration agree automatically.
    const std::size_t n = out.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i].kind != SysAction::Kind::kRuntime) continue;
      if (out[i].event.kind != rt::EventKind::kTimer) continue;
      SysAction a;
      a.kind = SysAction::Kind::kCancelTimer;
      a.event = out[i].event;
      out.push_back(a);
    }
  }
  if (opts_.model_partition) {
    // Heal actions: every blocked link (the mask is a sorted vector, so the
    // canonical order is free). Cut actions: every distinct unblocked link
    // with pending traffic, gated by the simultaneous-cut bound — cutting
    // an idle link is a no-op until traffic appears, and enumerating only
    // loaded links keeps the branching factor proportional to the
    // in-flight footprint. Both derive from pending()/blocked_links(),
    // not the deliverable index, so the uncached-oracle toggle cannot
    // change this consumer's view.
    for (const auto& [s, d] : w.network().blocked_links()) {
      SysAction a;
      a.kind = SysAction::Kind::kHealLinks;
      a.src = s;
      a.dst = d;
      out.push_back(a);
    }
    if (w.network().blocked_link_count() < opts_.max_cut_links) {
      std::vector<std::pair<ProcessId, ProcessId>> links;
      for (const net::Message* m : w.network().pending()) {
        if (w.network().link_blocked(m->src, m->dst)) continue;
        links.emplace_back(m->src, m->dst);
      }
      std::sort(links.begin(), links.end());
      links.erase(std::unique(links.begin(), links.end()), links.end());
      for (const auto& [s, d] : links) {
        SysAction a;
        a.kind = SysAction::Kind::kPartitionLinks;
        a.src = s;
        a.dst = d;
        out.push_back(a);
      }
    }
  }
  if (opts_.model_restart) {
    for (ProcessId p = 0; p < w.size(); ++p) {
      if (!w.is_crashed(p)) continue;
      SysAction a;
      a.kind = SysAction::Kind::kRestartProcess;
      a.event.kind = rt::EventKind::kStart;  // unused; pid is the payload
      a.event.pid = p;
      out.push_back(a);
    }
  }
  return out;
}

void SystemExplorer::apply_action(rt::World& w, const SysAction& a) {
  switch (a.kind) {
    case SysAction::Kind::kRuntime:
      w.execute_event(a.event);
      break;
    case SysAction::Kind::kDropMessage:
      // The model_* wrappers advance the replay-warm key chain (the
      // raw network() accessor would break it — these are legitimate
      // replayed trail actions, not exogenous surgery).
      w.model_drop_message(a.msg);
      break;
    case SysAction::Kind::kDupMessage:
      w.model_duplicate_message(a.msg);
      break;
    case SysAction::Kind::kDelayMessage:
      w.model_delay_message(a.msg, a.delay);
      break;
    case SysAction::Kind::kCancelTimer:
      w.model_cancel_timer(a.event.pid, a.event.timer);
      break;
    case SysAction::Kind::kPartitionLinks:
      w.model_cut_link(a.src, a.dst);
      break;
    case SysAction::Kind::kHealLinks:
      w.model_heal_link(a.src, a.dst);
      break;
    case SysAction::Kind::kRestartProcess:
      w.model_restart_process(a.event.pid);
      break;
  }
}

namespace {

/// Nonzero token for a specific (pid, timer) pair. A hash collision only
/// makes two distinct timers look dependent — conservative, never wrong.
std::uint64_t timer_token(ProcessId pid, TimerId timer) {
  return hash_combine(static_cast<std::uint64_t>(pid) + 1, timer) | 1;
}

}  // namespace

ActionFootprint SystemExplorer::footprint(const rt::World& w,
                                          const SysAction& a) {
  ActionFootprint f;
  // Resolve a message id against the live network: the message's channel
  // is part of the footprint because channels are FIFO — two actions on
  // the same directed link are order-sensitive even when they touch
  // different messages (dropping the head changes what is deliverable).
  auto channel_of = [&](MsgId id) {
    const net::Message* m = w.network().peek(id);
    if (m != nullptr) {
      f.link_src = m->src;
      f.link_dst = m->dst;
    } else {
      // Unknown message (stale enumeration — should not happen): collide
      // with every process rather than silently commute.
      f.procs = ~std::uint64_t{0};
    }
    f.msg = id;
  };
  switch (a.kind) {
    case SysAction::Kind::kRuntime:
      f.procs = ActionFootprint::proc_bit(a.event.pid);
      if (a.event.kind == rt::EventKind::kDeliver) {
        // The delivery consumes a specific message from a specific
        // channel; the handler's own mutations stay inside procs (sends
        // only append, and race detection covers the conflicts they
        // create downstream).
        f.msg = a.event.msg;
        const net::Message* m = w.network().peek(a.event.msg);
        if (m != nullptr) {
          f.link_src = m->src;
          f.link_dst = m->dst;
        } else {
          f.procs = ~std::uint64_t{0};
        }
      } else if (a.event.kind == rt::EventKind::kTimer) {
        f.timer = timer_token(a.event.pid, a.event.timer);
      }
      break;
    case SysAction::Kind::kCancelTimer:
      // Touches only the timer's owning process, like the timer event.
      f.procs = ActionFootprint::proc_bit(a.event.pid);
      f.timer = timer_token(a.event.pid, a.event.timer);
      break;
    case SysAction::Kind::kRestartProcess:
      // Touches only the restarted process (its local state and every
      // delivery/timer the crash was masking — those carry the same pid).
      f.procs = ActionFootprint::proc_bit(a.event.pid);
      break;
    case SysAction::Kind::kDropMessage:
    case SysAction::Kind::kDupMessage:
    case SysAction::Kind::kDelayMessage:
      channel_of(a.msg);
      break;
    case SysAction::Kind::kPartitionLinks:
    case SysAction::Kind::kHealLinks:
      // A cut/heal gates enabledness for everything on its directed link
      // (delivery, drop, dup, delay — all carry the link), and both move
      // the global blocked-link count that bounds further cut enumeration
      // (max_cut_links), so any two cut/heal actions are mutually
      // dependent via the budget. The old scalar fingerprint collapsed
      // these to one value that `fa != fb` then declared independent of
      // every delivery — the inverse of the intended conservatism. The
      // destination's *local state* is untouched (a cut defers traffic,
      // never loses it), so procs stays empty: a cut commutes with
      // deliveries on other links even toward the same process.
      f.link_src = a.src;
      f.link_dst = a.dst;
      f.cut_budget = true;
      break;
  }
  return f;
}

std::uint64_t SystemExplorer::action_key(const SysAction& a) {
  Hasher h;
  h.update_u64(static_cast<std::uint64_t>(a.kind));
  h.update_u64(static_cast<std::uint64_t>(a.event.kind));
  h.update_u64(a.event.pid);
  h.update_u64(a.event.msg);
  h.update_u64(a.event.timer);
  h.update_u64(a.msg);
  h.update_u64(a.delay);
  h.update_u64(a.src);
  h.update_u64(a.dst);
  return h.digest();
}

bool SystemExplorer::is_slept(const Node& cur, std::uint64_t key) {
  if (!cur.sleep) return false;
  for (const SleepEntry& e : *cur.sleep) {
    if (e.key == key) return true;
  }
  return false;
}

std::unique_ptr<std::vector<SystemExplorer::SleepEntry>>
SystemExplorer::child_sleep(const Node& cur,
                            const std::vector<ActionFootprint>& fps,
                            const std::vector<std::uint64_t>& keys,
                            const std::vector<std::size_t>& run,
                            std::size_t pos) {
  const ActionFootprint& afp = fps[run[pos]];
  std::vector<SleepEntry> sleep;
  // Inherit the parent's surviving entries: a slept action stays covered
  // only while the branch taken commutes with it.
  if (cur.sleep) {
    for (const SleepEntry& e : *cur.sleep) {
      if (independent(e.fp, afp)) sleep.push_back(e);
    }
  }
  // Earlier branches of this expansion: their subtrees cover the child's
  // reorderings of any action that commutes with the branch taken.
  for (std::size_t p = 0; p < pos; ++p) {
    const std::size_t j = run[p];
    if (independent(fps[j], afp)) sleep.push_back({keys[j], fps[j]});
  }
  if (sleep.empty()) return nullptr;
  return std::make_unique<std::vector<SleepEntry>>(std::move(sleep));
}

std::vector<std::size_t> SystemExplorer::source_closure(
    const std::vector<ActionFootprint>& fps,
    const std::vector<std::size_t>& seeds) {
  std::vector<char> in(fps.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t s : seeds) {
    if (s < fps.size() && !in[s]) {
      in[s] = 1;
      stack.push_back(s);
    }
  }
  // Dependency closure: within one class, actions can disable each other
  // (dropping the message a delivery would consume, a cut blocking its
  // link, a delivery cancelling a same-process timer), so partial
  // exploration of a class is not sound — the source set takes whole
  // classes, and only disjoint classes are deferred.
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    for (std::size_t j = 0; j < fps.size(); ++j) {
      if (!in[j] && !independent(fps[i], fps[j])) {
        in[j] = 1;
        stack.push_back(j);
      }
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    if (in[i]) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> SystemExplorer::por_select(
    PorState& ps, std::uint64_t digest,
    const std::vector<SysAction>& actions,
    const std::vector<ActionFootprint>& fps,
    const std::vector<std::uint64_t>& keys, const Node& cur,
    ExploreStats& stats) const {
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> take;
  bool first = false;
  ps.recs.begin_expand(digest, sorted, take, first);

  std::vector<std::size_t> seeds;
  for (std::uint64_t k : take) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == k) {
        seeds.push_back(i);
        break;
      }
    }
  }
  if (first) {
    // Seed the first non-slept action; an all-slept state owes nothing
    // (every branch is covered by an earlier sibling).
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (!is_slept(cur, keys[i])) {
        seeds.push_back(i);
        break;
      }
    }
  }
  if (seeds.empty()) return {};
  std::vector<std::size_t> sel = source_closure(fps, seeds);
  stats.por_deferred += actions.size() - sel.size();
  // Mark the selection done *before* executing it, so a race request
  // arriving concurrently sees these keys covered instead of pushing a
  // redundant backtrack node.
  std::vector<std::uint64_t> sel_keys;
  sel_keys.reserve(sel.size());
  for (std::size_t i : sel) {
    if (!is_slept(cur, keys[i])) sel_keys.push_back(keys[i]);
  }
  ps.recs.commit_done(digest, sel_keys);
  return sel;
}

void SystemExplorer::por_race_detect(PorState& ps, const Node& cur,
                                     const ActionFootprint& fa,
                                     std::uint64_t akey,
                                     std::vector<Node>& backtracks,
                                     ExploreStats& stats) const {
  const PathNode* e = cur.path;
  std::uint32_t d = cur.depth;
  while (e != nullptr && d > 0) {
    --d;  // depth of e's pre-state
    if (!independent(fa, e->fp)) {
      const auto req = ps.recs.request(e->pre_digest, akey);
      if (req == StripedPorRecords::Request::kRegistered) {
        // Reverse the race: re-expand e's pre-state running `akey` there.
        // The node re-materializes from the root anchor by replaying the
        // path prefix, so it is valid in both frontier modes.
        Node b;
        b.state = ps.root;
        b.path = e->parent;
        b.replay_len = d;
        b.depth = d;
        backtracks.push_back(std::move(b));
        ++stats.por_backtracks;
        return;
      }
      if (req != StripedPorRecords::Request::kNotEnabled) return;
      // kNotEnabled: the action did not exist at this ancestor (its
      // message/timer is causally downstream of this prefix, or its link
      // was blocked) — the reversal may still be possible at an older
      // state, so keep walking.
    }
    e = e->parent;
  }
}

Trail SystemExplorer::trail_of(const PathNode* path) {
  // Two walks up the parent chain: one to size the trail, one to fill it
  // back to front (checkpoints copy the whole frontier this way).
  std::size_t len = 0;
  for (const PathNode* p = path; p != nullptr; p = p->parent) ++len;
  Trail t;
  t.steps.resize(len);
  for (const PathNode* p = path; p != nullptr; p = p->parent) {
    t.steps[--len] = p->action;
  }
  return t;
}

void SystemExplorer::check_checkpoint_options() const {
  if (!checkpointing() && !opts_.resume_from_checkpoint) return;
  if (opts_.order != SearchOrder::kBfs && opts_.order != SearchOrder::kDfs) {
    throw ConfigError(
        "checkpoint/resume: only kBfs/kDfs graph searches are "
        "checkpointable (kPriority/kRandomWalk pop order is not "
        "checkpoint-stable)");
  }
  if (!opts_.dedup) {
    throw ConfigError(
        "checkpoint/resume requires dedup: visited-set identity "
        "(preseed ∪ reachable-from-frontier) is the resume contract");
  }
  if (opts_.sleep_sets || opts_.por) {
    throw ConfigError(
        "checkpoint/resume: sleep_sets/por carry traversal-order-sensitive "
        "state that a checkpoint does not capture");
  }
  if (opts_.resume_from_checkpoint && opts_.resume_visited.empty()) {
    throw ConfigError(
        "resume_from_checkpoint requires the checkpoint's visited set "
        "(it must include the root digest)");
  }
}

std::vector<SystemExplorer::Node> SystemExplorer::resume_nodes(
    const std::shared_ptr<Anchor>& root_anchor,
    std::deque<PathNode>& arena) const {
  std::vector<Node> out;
  out.reserve(opts_.resume_frontier.size());
  for (const Trail& t : opts_.resume_frontier) {
    const PathNode* parent = nullptr;
    for (const SysAction& a : t.steps) {
      arena.push_back({parent, a, ActionFootprint{}, 0});
      parent = &arena.back();
    }
    Node nd;
    nd.state = root_anchor;
    nd.path = parent;
    nd.replay_len = static_cast<std::uint32_t>(t.steps.size());
    nd.depth = static_cast<std::uint32_t>(t.steps.size());
    out.push_back(std::move(nd));
  }
  return out;
}

SysExploreResult SystemExplorer::explore() {
  started_ = SteadyClock::now();
  check_checkpoint_options();
  SysExploreResult res;
  // Anchor eviction needs a replay recipe per node, which only trail-mode
  // graph searches have; snapshot mode ignores the frontier budget.
  reg_.reset();
  if (opts_.frontier_budget_bytes > 0 && opts_.trail_frontier &&
      opts_.order != SearchOrder::kRandomWalk) {
    reg_ = std::make_unique<AnchorRegistry>(opts_.frontier_budget_bytes);
  }
  res = opts_.order == SearchOrder::kRandomWalk ? random_walk()
                                                 : graph_search();
  res.stats.wall_ms = ms_since(started_);
  return res;
}

bool SystemExplorer::probe_root(SysExploreResult& res) {
  // Probe the investigated state itself first — the violation might
  // already hold (e.g. the Time Machine rolled back insufficiently far).
  scratch_->clear_violations();
  scratch_->recheck_invariants();
  ++res.stats.states;
  for (const rt::Violation& v : scratch_->violations()) {
    res.violations.push_back({v, Trail{}, 0});
  }
  scratch_->clear_violations();
  return res.violations.size() < opts_.max_violations;
}

// ---------------------------------------------------------------------------
// Graph search
// ---------------------------------------------------------------------------

// One search core for every worker count: worker_loop pops, expand() runs
// one node's expansion. The reduction semantics — footprints, is_slept,
// child_sleep, POR selection and race detection — live in shared helpers.
// tests/test_mc_parallel.cpp pins the core from two sides: several workers
// must visit the one-worker run's state set with its counts, and the
// one-worker run must reproduce pinned outputs (SingleWorkerGolden).
void SystemExplorer::expand(Shared& sh, Worker& me, Node cur) {
  rt::World& w = *me.world;
  ExploreStats& stats = me.stats;
  const bool use_sleepvis = opts_.sleep_sets && opts_.dedup;
  // Only other workers can steal a node, so only then are snapshots marked
  // for cross-thread use (marking turns off in-place reuse of buffers).
  const bool share = sh.workers.size() > 1;
  std::vector<Node> backtracks;

  if (cur.depth >= opts_.max_depth) {
    stats.truncated = true;
    return;
  }

  materialize(w, cur, stats);
  std::vector<SysAction> actions = enabled_actions(w);

  // Trail mode: when the children's replay distance would reach the
  // interval, snapshot the parent state (w holds it right now) once and
  // re-anchor cur on it — every child then hangs one action off this
  // shared anchor (one anchor per expanded node, not per child), and the
  // per-action materialize calls below replay nothing. Snapshot mode
  // re-anchors whenever replay_len > 0: the only such nodes are POR
  // backtracks (root anchor + full-path replay), and one snapshot here
  // beats replaying the prefix once per child.
  if (!actions.empty() &&
      (opts_.trail_frontier ? cur.replay_len + 1 >= opts_.anchor_interval
                            : cur.replay_len > 0)) {
    auto t0 = SteadyClock::now();
    auto snap = std::make_shared<const rt::WorldSnapshot>(
        w.snapshot(/*cow=*/true));
    if (share) snap->share_across_threads();
    stats.snapshot_ms += ms_since(t0);
    auto anchor = std::make_shared<Anchor>();
    anchor->snap = std::move(snap);
    if (reg_) {
      // Evictable: record the root-relative rebuild recipe first.
      anchor->path = cur.path;
      anchor->depth = cur.depth;
      reg_->admit(anchor);
    }
    cur.state = std::move(anchor);
    cur.replay_len = 0;
  }

  // Keys and footprints are computed against the pre-state (footprints
  // peek queued messages to resolve channels), before any action runs.
  const std::size_t n_act = actions.size();
  std::vector<std::uint64_t> keys(n_act);
  std::vector<ActionFootprint> fps(n_act);
  for (std::size_t i = 0; i < n_act; ++i) {
    keys[i] = action_key(actions[i]);
    fps[i] = footprint(w, actions[i]);
  }

  std::uint64_t cur_digest = 0;
  std::vector<std::size_t> run;
  if (opts_.por && n_act > 0) {
    cur_digest = timed_mc_digest(w, stats, opts_.abstract_time);
    run = por_select(sh.por, cur_digest, actions, fps, keys, cur, stats);
  } else {
    run.resize(n_act);
    for (std::size_t i = 0; i < n_act; ++i) run[i] = i;
  }

  // active must rise before a node becomes visible, so an idle worker can
  // never observe "no work anywhere" while a child is in flight. Meter
  // pairing follows the deque rule: the pusher charged, only the pusher
  // refunds (worker_loop).
  auto push_local = [&](Node&& nd, double pri) {
    nd.owner = static_cast<std::uint32_t>(me.id);
    sh.active.fetch_add(1);
    me.meter.push(nd);
    if (opts_.order == SearchOrder::kPriority) {
      me.pq.push(pri, std::move(nd));
    } else {
      me.deque.push_back(std::move(nd));
    }
  };

  for (std::size_t pos = 0; pos < run.size(); ++pos) {
    if (sh.stop.load(std::memory_order_acquire)) return;
    const std::size_t i = run[pos];
    const SysAction& a = actions[i];
    const std::uint64_t akey = keys[i];
    const ActionFootprint& afp = fps[i];

    if (opts_.sleep_sets && is_slept(cur, akey)) continue;

    materialize(w, cur, stats);
    w.clear_violations();
    apply_action(w, a);
    ++stats.transitions;

    if (opts_.por) {
      por_race_detect(sh.por, cur, afp, akey, backtracks, stats);
      for (Node& b : backtracks) push_local(std::move(b), 0.0);
      backtracks.clear();
    }

    std::size_t depth = cur.depth + 1;
    const PathNode* path = nullptr;

    if (!w.violations().empty()) {
      me.arena.push_back({cur.path, a, afp, cur_digest});
      path = &me.arena.back();
      for (const rt::Violation& v : w.violations()) {
        me.violations.push_back({v, trail_of(path), depth});
        if (sh.violation_count.fetch_add(1) + 1 >= opts_.max_violations) {
          sh.stop.store(true, std::memory_order_release);
          return;
        }
      }
    }

    auto sleep = opts_.sleep_sets
                     ? child_sleep(cur, fps, keys, run, pos)
                     : nullptr;

    bool reexpand_child = false;
    if (opts_.dedup) {
      std::uint64_t h = timed_mc_digest(w, stats, opts_.abstract_time);
      if (use_sleepvis) {
        std::vector<std::uint64_t> skeys;
        if (sleep) {
          skeys.reserve(sleep->size());
          for (const SleepEntry& e : *sleep) skeys.push_back(e.key);
          std::sort(skeys.begin(), skeys.end());
        }
        std::vector<std::uint64_t> released;
        const auto verdict =
            sh.sleepvis.visit(h, skeys, opts_.por ? &released : nullptr);
        if (verdict == StripedSleepVisited::Verdict::kPrune) {
          ++stats.duplicates;
          // The edge (if allocated for the violation trail above) was
          // never published to a frontier node; the Trail copied its
          // actions.
          if (path) me.arena.pop_back();
          continue;
        }
        if (verdict == StripedSleepVisited::Verdict::kReexpand) {
          // Duplicate state, but the stored expansion ran with a sleep set
          // that is not a subset of this arrival's — its coverage claim
          // does not hold for this path. Re-expand with the intersection;
          // no fresh state is counted.
          ++stats.duplicates;
          ++stats.sleep_reexpansions;
          reexpand_child = true;
          if (sleep) {
            sleep->erase(
                std::remove_if(sleep->begin(), sleep->end(),
                               [&](const SleepEntry& e) {
                                 return !std::binary_search(
                                     skeys.begin(), skeys.end(), e.key);
                               }),
                sleep->end());
            if (sleep->empty()) sleep.reset();
          }
          // POR selection at the re-expanded node seeds from pending —
          // force the released keys onto its work list, or the
          // re-expansion would find nothing to run.
          for (std::uint64_t k : released) sh.por.recs.seed_pending(h, k);
        }
      } else if (!sh.insert_visited(h)) {
        ++stats.duplicates;
        // The edge (if allocated for the violation trail above) was never
        // published to a frontier node; the Trail copied its actions.
        if (path) me.arena.pop_back();
        continue;
      } else if (checkpointing()) {
        me.fresh.push_back(h);
      }
    }
    if (!reexpand_child) {
      stats.max_depth = std::max<std::uint64_t>(stats.max_depth, depth);
      // The shared counter is the budget authority (per-worker counts
      // would race past it); it already includes the root.
      if (sh.states.fetch_add(1) + 1 >= opts_.max_states) {
        stats.truncated = true;
        sh.stop.store(true, std::memory_order_release);
        return;
      }
    }

    Node child;
    if (!path) {
      me.arena.push_back({cur.path, a, afp, cur_digest});
      path = &me.arena.back();
    }
    child.path = path;
    child.depth = static_cast<std::uint32_t>(depth);
    if (!opts_.trail_frontier) {
      auto t0 = SteadyClock::now();
      child.state = std::make_shared<Anchor>();
      child.state->snap = std::make_shared<const rt::WorldSnapshot>(
          w.snapshot(/*cow=*/true));
      // Publish before the push below makes the node stealable.
      if (share) child.state->snap->share_across_threads();
      stats.snapshot_ms += ms_since(t0);
    } else {
      // The expansion loop re-anchored the parent when its children would
      // exceed the interval, so extending by one is always valid.
      child.state = cur.state;
      child.replay_len = cur.replay_len + 1;
    }
    child.sleep = std::move(sleep);
    double pri = 0.0;
    if (opts_.order == SearchOrder::kPriority && opts_.priority) {
      // Own shard; other workers route their pops here when this shard's
      // top hint looks best.
      pri = opts_.priority(w);
    }
    push_local(std::move(child), pri);
  }
}

void SystemExplorer::worker_loop(Shared& sh, Worker& me) {
  const bool lifo = opts_.order == SearchOrder::kDfs;
  const std::size_t n = sh.workers.size();
  std::size_t idle_rounds = 0;
  while (true) {
    if (sh.stop.load(std::memory_order_acquire)) return;
    // Checkpoint boundary: checked BEFORE popping, on idle iterations too,
    // so every worker parks with its deque untouched once one of them has
    // seen the shared state count cross the cadence (states are counted in
    // sh.states, not per worker).
    if (checkpointing() && !sh.ck_pending.load(std::memory_order_acquire) &&
        sh.states.load(std::memory_order_relaxed) -
                sh.ck_base.load(std::memory_order_relaxed) >=
            opts_.checkpoint.every_states) {
      sh.ck_pending.store(true, std::memory_order_release);
    }
    if (sh.ck_pending.load(std::memory_order_acquire)) {
      park(sh);
      continue;
    }
    Node cur;
    bool got = false;
    if (opts_.order == SearchOrder::kPriority) {
      // Best-effort global best-first over the per-worker shards: compare
      // the own shard's top with every other shard's lock-free hint and
      // pop from the best-looking one. Hints can be momentarily stale, so
      // this may briefly pick a worse node than the true global best —
      // which changes pop order only, never the visited set (differential
      // tests) — and a failed routed pop falls back to the own shard,
      // then to a full sweep (a hint can also be stale-empty).
      double bestp = me.pq.top_hint();
      std::size_t best = me.id;
      for (std::size_t k = 1; k < n; ++k) {
        const std::size_t vid = (me.id + k) % n;
        const double hp = sh.workers[vid]->pq.top_hint();
        if (hp > bestp) {
          bestp = hp;
          best = vid;
        }
      }
      if (best != me.id && sh.workers[best]->pq.pop_top(cur)) {
        got = true;
        ++me.stats.steals;
      }
      if (!got) got = me.pq.pop_top(cur);
      for (std::size_t k = 1; k < n && !got; ++k) {
        got = sh.workers[(me.id + k) % n]->pq.pop_top(cur);
        if (got) ++me.stats.steals;
      }
    } else {
      got = lifo ? me.deque.pop_back(cur) : me.deque.pop_front(cur);
      if (!got) {
        for (std::size_t k = 1; k < n && !got; ++k) {
          got = sh.workers[(me.id + k) % n]->deque.steal(cur, lifo);
        }
        if (got) ++me.stats.steals;
      }
    }
    if (got && cur.owner == me.id) {
      // Refund only nodes this worker's meter charged; a stolen node
      // stays charged on its victim (the merged peak is an upper bound).
      me.meter.pop(cur);
    }
    if (!got) {
      if (sh.active.load(std::memory_order_acquire) == 0) return;
      // Back off when repeatedly idle: spinning at full speed would burn
      // a core per idle worker and, in kPriority mode, contend the shared
      // heap mutex against the workers still making progress.
      if (++idle_rounds < 16) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<std::size_t>(idle_rounds, 200)));
      }
      continue;
    }
    idle_rounds = 0;
    try {
      expand(sh, me, std::move(cur));
    } catch (...) {
      sh.error.capture();
      sh.stop.store(true, std::memory_order_release);
      sh.active.fetch_sub(1);
      return;
    }
    sh.active.fetch_sub(1);
  }
}

void SystemExplorer::park(Shared& sh) {
  std::unique_lock<std::mutex> lk(sh.ck_mu);
  const std::uint64_t epoch = sh.ck_epoch;
  if (++sh.ck_parked == sh.live) {
    checkpoint_parked(sh);
    return;
  }
  sh.ck_cv.wait(lk, [&] { return sh.ck_epoch != epoch; });
}

void SystemExplorer::leave(Shared& sh) {
  std::lock_guard<std::mutex> lk(sh.ck_mu);
  --sh.live;
  if (sh.live > 0 && sh.ck_parked == sh.live &&
      sh.ck_pending.load(std::memory_order_acquire)) {
    checkpoint_parked(sh);
  }
}

// Called with ck_mu held and every live worker parked: no expansion is in
// flight, so the deques hold the whole frontier and `active` counts it.
void SystemExplorer::checkpoint_parked(Shared& sh) {
  if (!sh.stop.load(std::memory_order_acquire) &&
      sh.active.load(std::memory_order_acquire) > 0) {
    SysCheckpoint ck;
    for (auto& wk : sh.workers) {
      ck.new_visited.insert(ck.new_visited.end(), wk->fresh.begin(),
                            wk->fresh.end());
      wk->fresh.clear();
      ck.new_violations.insert(
          ck.new_violations.end(),
          wk->violations.begin() +
              static_cast<std::ptrdiff_t>(wk->violations_reported),
          wk->violations.end());
      wk->violations_reported = wk->violations.size();
      wk->deque.for_each(
          [&](const Node& nd) { ck.frontier.push_back(trail_of(nd.path)); });
    }
    std::sort(ck.new_visited.begin(), ck.new_visited.end());
    merge_counters(sh, ck.stats);
    ck.stats.wall_ms = ms_since(started_);
    // The hook may throw (a failed journal write): carry it to the
    // coordinating thread unchanged, and stop the search.
    bool go_on = false;
    try {
      go_on = opts_.checkpoint.fn(ck);
    } catch (...) {
      sh.error.capture();
    }
    if (!go_on) sh.stop.store(true, std::memory_order_release);
  }
  sh.ck_base.store(sh.states.load());
  sh.ck_pending.store(false, std::memory_order_release);
  sh.ck_parked = 0;
  ++sh.ck_epoch;
  sh.ck_cv.notify_all();
}

void SystemExplorer::merge_counters(const Shared& sh, ExploreStats& out) {
  out.states = sh.states.load();
  for (const auto& wk : sh.workers) {
    out.transitions += wk->stats.transitions;
    out.duplicates += wk->stats.duplicates;
    out.max_depth = std::max(out.max_depth, wk->stats.max_depth);
    out.truncated = out.truncated || wk->stats.truncated;
    out.digest_ms += wk->stats.digest_ms;
    out.snapshot_ms += wk->stats.snapshot_ms;
    out.replayed_actions += wk->stats.replayed_actions;
    out.anchor_recomputes += wk->stats.anchor_recomputes;
    out.steals += wk->stats.steals;
    out.sleep_reexpansions += wk->stats.sleep_reexpansions;
    out.por_deferred += wk->stats.por_deferred;
    out.por_backtracks += wk->stats.por_backtracks;
  }
  out.workers = sh.workers.size();
}

template <typename Body>
void SystemExplorer::run_workers(std::size_t n, const rt::WorldSnapshot& root,
                                 Body&& body) {
  if (n == 1) {
    body(std::size_t{0}, *scratch_);
    return;
  }
  // Marked before any thread exists, so in-place mutation of the root's
  // buffers is off for good; every clone restores from it.
  root.share_across_threads();
  std::vector<std::unique_ptr<rt::World>> worlds(n);
  for (auto& w : worlds) {
    w = scratch_->clone_from_snapshot(root);
    if (opts_.install_invariants) opts_.install_invariants(*w);
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&body, &worlds, i] { body(i, *worlds[i]); });
  }
  for (auto& t : threads) t.join();
}

SysExploreResult SystemExplorer::graph_search() {
  SysExploreResult res;
  // A resumed search does not re-probe (or re-count) the root: the
  // original run already did, and its checkpointed stats carry the count.
  if (!opts_.resume_from_checkpoint && !probe_root(res)) return res;

  const std::size_t n_workers = std::max<std::size_t>(1, opts_.workers);
  Shared sh(n_workers > 1 ? kStripes : 1);

  // One COW snapshot of the investigated state: the root node's state, the
  // pinned anchor that POR backtracks and evicted anchors replay from, and
  // the image every worker world is cloned from.
  auto root_anchor = std::make_shared<Anchor>();
  {
    auto t0 = SteadyClock::now();
    root_anchor->snap = std::make_shared<const rt::WorldSnapshot>(
        scratch_->snapshot(/*cow=*/true));
    res.stats.snapshot_ms += ms_since(t0);
  }
  if (reg_) reg_->set_root(root_anchor);
  // Sleep+dedup needs the visited set to remember the sleep signature a
  // state was expanded with (see StripedSleepVisited). Budgeted dedup swaps
  // the in-RAM table for the Bloom-fronted spill-to-disk set; the sleep
  // map is a weakening *map*, not an insert-only set, so it cannot spill
  // and ignores the budget.
  const bool use_sleepvis = opts_.sleep_sets && opts_.dedup;
  if (opts_.dedup && !use_sleepvis && opts_.visited_budget_bytes > 0) {
    sh.spill_scratch = ScratchDir::create(opts_.spill_dir, "fixd-spill");
    sh.tiered = std::make_unique<TieredVisitedSet>(
        opts_.visited_budget_bytes, sh.spill_scratch.path());
  }
  for (std::size_t i = 0; i < n_workers; ++i) {
    auto wk = std::make_unique<Worker>();
    wk->id = i;
    wk->meter.set_charge_snapshots(reg_ == nullptr);
    sh.workers.push_back(std::move(wk));
  }
  // The root's digest and violations belong to worker 0: the first
  // checkpoint's delta, and the head of the merged violation list.
  Worker& first = *sh.workers[0];
  first.violations = std::move(res.violations);
  res.violations.clear();
  if (opts_.dedup) {
    if (opts_.resume_from_checkpoint) {
      // Preseed with the checkpoint's visited set (root digest included);
      // children re-reaching pre-crash states dedup against it exactly as
      // the uninterrupted run deduped against its own history.
      for (std::uint64_t h : opts_.resume_visited) sh.insert_visited(h);
    } else {
      const std::uint64_t h =
          timed_mc_digest(*scratch_, res.stats, opts_.abstract_time);
      if (checkpointing()) first.fresh.push_back(h);
      if (use_sleepvis) {
        std::vector<std::uint64_t> none;  // the root has no sleep set
        sh.sleepvis.visit(h, none);
      } else {
        sh.insert_visited(h);
      }
    }
  }
  if (opts_.por) sh.por.root = root_anchor;
  sh.states.store(res.stats.states);  // the probed root
  // Root violations count against the budget like any other.
  sh.violation_count.store(first.violations.size());

  if (opts_.resume_from_checkpoint) {
    // Re-plant the checkpoint frontier round-robin, in captured order: at
    // one worker, push_back then BFS pop_front / DFS pop_back reproduces
    // the uninterrupted run's pop sequence exactly. Path chains go into
    // worker 0's arena (before any worker runs, so single-writer holds);
    // readers reach them through the frontier-deque mutexes as usual.
    // kPriority is rejected by check_checkpoint_options, so deques suffice.
    std::vector<Node> nodes = resume_nodes(root_anchor, first.arena);
    sh.active.store(nodes.size());
    std::size_t wi = 0;
    for (Node& nd : nodes) {
      nd.owner = static_cast<std::uint32_t>(wi);
      sh.workers[wi]->meter.push(nd);
      sh.workers[wi]->deque.push_back(std::move(nd));
      wi = (wi + 1) % n_workers;
    }
  } else {
    // Snapshot-mode nodes are "anchor + zero replay", so both frontier
    // modes start from the one root anchor.
    Node root;
    root.state = root_anchor;
    sh.active.store(1);
    first.meter.push(root);
    if (opts_.order == SearchOrder::kPriority) {
      double pri = opts_.priority ? opts_.priority(*scratch_) : 0.0;
      first.pq.push(pri, std::move(root));
    } else {
      first.deque.push_back(std::move(root));
    }
  }

  sh.live = n_workers;
  run_workers(n_workers, *root_anchor->snap, [&](std::size_t i, rt::World& w) {
    Worker& me = *sh.workers[i];
    me.world = &w;
    worker_loop(sh, me);
    leave(sh);
  });
  sh.error.rethrow();

  // Merge. The shared counter is the state total (root included); timing
  // counters sum across workers (CPU time, can exceed wall time).
  merge_counters(sh, res.stats);
  for (const auto& wk : sh.workers) {
    // Sum-of-peaks upper bound plus the largest single-worker share.
    res.stats.peak_frontier_bytes += wk->meter.peak();
    res.stats.peak_frontier_bytes_max_worker =
        std::max(res.stats.peak_frontier_bytes_max_worker, wk->meter.peak());
    for (auto& v : wk->violations) res.violations.push_back(std::move(v));
  }
  if (n_workers > 1) {
    // Violations arrive in nondeterministic worker order; re-sort into a
    // stable shape (shallowest first, ties by invariant name). The count
    // may exceed max_violations by the few found concurrently with the
    // stop. One worker reports in discovery order.
    std::stable_sort(res.violations.begin(), res.violations.end(),
                     [](const SysViolation& a, const SysViolation& b) {
                       if (a.depth != b.depth) return a.depth < b.depth;
                       return a.violation.invariant < b.violation.invariant;
                     });
  }
  if (reg_) {
    // Meter (node shells) + registry (resident anchor snapshots); see the
    // FrontierMeter comment for why budgeted mode splits these.
    res.stats.peak_frontier_bytes += reg_->peak_resident();
    res.stats.anchor_evictions = reg_->evictions();
  }
  if (opts_.dedup) {
    if (sh.tiered) {
      res.stats.visited_resident_bytes = sh.tiered->resident_bytes();
      res.stats.visited_peak_resident_bytes =
          sh.tiered->peak_resident_bytes();
      res.stats.visited_spilled_bytes = sh.tiered->spilled_bytes();
      res.stats.spilled_bytes = sh.tiered->spill_bytes_written();
      res.stats.bloom_fp_rate = sh.tiered->bloom_fp_rate();
    } else {
      res.stats.visited_resident_bytes =
          use_sleepvis ? sh.sleepvis.bytes() : sh.visited.bytes();
      res.stats.visited_peak_resident_bytes =
          res.stats.visited_resident_bytes;
    }
  }
  if (opts_.collect_visited) {
    res.visited = use_sleepvis  ? sh.sleepvis.sorted_contents()
                  : sh.tiered ? sh.tiered->sorted_contents()
                              : sh.visited.sorted_contents();
  }
  return res;
}

// Walks are embarrassingly parallel: each is an independent seeded
// trajectory from the investigated root. The per-walk RNG is derived from
// (seed, walk index) — never shared across walks — so sharding the walk
// budget over workers cannot change any trajectory: workers == k runs
// exactly the walks workers == 1 runs (violations are re-sorted into walk
// order). The only divergence is the early stop: with several workers a
// run may finish the few walks in flight when the violation budget fills,
// so it can report slightly more walks' worth of violations than a
// one-worker run, which stops between walks.
SysExploreResult SystemExplorer::random_walk() {
  SysExploreResult res;

  const rt::WorldSnapshot root = scratch_->snapshot(/*cow=*/true);

  struct WalkWorker {
    std::deque<PathNode> arena;
    ExploreStats stats;
    /// (walk index, violation) in this worker's discovery order.
    std::vector<std::pair<std::size_t, SysViolation>> violations;
  };

  /// One walk on `w`; returns how many violations it appended to `me`.
  auto run_walk = [&](rt::World& w, WalkWorker& me,
                      std::size_t walk) -> std::size_t {
    Rng rng(hash_combine(opts_.seed, walk));
    w.restore(root);
    w.clear_violations();
    std::size_t found = 0;
    const PathNode* cur_path = nullptr;
    for (std::size_t d = 0; d < opts_.max_depth; ++d) {
      auto actions = enabled_actions(w);
      if (actions.empty()) break;
      const SysAction& a = actions[rng.next_below(actions.size())];
      apply_action(w, a);
      ++me.stats.transitions;
      ++me.stats.states;
      me.arena.push_back({cur_path, a, ActionFootprint{}, 0});
      cur_path = &me.arena.back();
      me.stats.max_depth = std::max<std::uint64_t>(me.stats.max_depth, d + 1);
      if (!w.violations().empty()) {
        for (const rt::Violation& v : w.violations()) {
          me.violations.push_back({walk, {v, trail_of(cur_path), d + 1}});
          ++found;
        }
        break;
      }
    }
    return found;
  };

  const std::size_t n_workers = std::min<std::size_t>(
      std::max<std::size_t>(1, opts_.workers),
      std::max<std::size_t>(1, opts_.walk_restarts));
  std::vector<WalkWorker> workers(n_workers);
  std::atomic<std::size_t> next_walk{0};
  std::atomic<std::size_t> violation_count{0};
  std::atomic<bool> stop{false};
  FirstError error;

  run_workers(n_workers, root, [&](std::size_t i, rt::World& w) {
    try {
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t walk = next_walk.fetch_add(1);
        if (walk >= opts_.walk_restarts) return;
        const std::size_t found = run_walk(w, workers[i], walk);
        if (violation_count.fetch_add(found) + found >=
            opts_.max_violations) {
          stop.store(true, std::memory_order_release);
        }
      }
    } catch (...) {
      error.capture();
      stop.store(true, std::memory_order_release);
    }
  });
  error.rethrow();

  std::vector<std::pair<std::size_t, SysViolation>> tagged;
  for (auto& wk : workers) {
    res.stats.transitions += wk.stats.transitions;
    res.stats.states += wk.stats.states;
    res.stats.max_depth = std::max(res.stats.max_depth, wk.stats.max_depth);
    for (auto& v : wk.violations) tagged.push_back(std::move(v));
  }
  // Walks complete in nondeterministic worker order; walk-index order is
  // the one-worker report order.
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  res.stats.workers = n_workers;
  res.violations.reserve(tagged.size());
  for (auto& [walk, v] : tagged) res.violations.push_back(std::move(v));
  return res;
}

std::vector<rt::Violation> SystemExplorer::replay_trail(
    rt::World& base, const Trail& trail,
    const std::function<void(rt::World&)>& install_invariants,
    bool abstract_time) {
  auto w = base.clone();
  w->set_abstract_time(abstract_time);
  w->set_check_global_invariants(true);
  w->set_stop_on_violation(false);
  if (install_invariants) install_invariants(*w);
  w->clear_violations();
  try {
    for (const SysAction& a : trail.steps) {
      apply_action(*w, a);
    }
  } catch (const FixdError&) {
    return {};  // trail not executable => did not reproduce
  }
  return w->violations();
}

}  // namespace fixd::mc
