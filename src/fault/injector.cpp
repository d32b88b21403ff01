#include "fault/injector.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace fixd::fault {

namespace {

bool in_group(const std::vector<ProcessId>& g, ProcessId p) {
  return std::find(g.begin(), g.end(), p) != g.end();
}

}  // namespace

std::size_t FaultInjector::add(FaultSpec spec) {
  Armed a;
  a.rng = Rng(spec.seed);
  a.spec = std::move(spec);
  faults_.push_back(std::move(a));
  return faults_.size() - 1;
}

void FaultInjector::reset() {
  injected_.clear();
  for (Armed& a : faults_) {
    a.rng = Rng(a.spec.seed);
    a.fired = false;
    a.stall_until = 0;
    // Partition / restart windows re-arm too. The world-side effects (link
    // mask, crashed flags) are NOT undone here: reset() precedes a replay
    // from a restored snapshot, and the snapshot carries both.
    a.partitioned = false;
    a.heal_at = 0;
    a.restart_at = 0;
    a.restart_pid = kNoProcess;
    a.init_ckpt.reset();
  }
}

bool FaultInjector::replay_pure() const {
  for (const Armed& a : faults_) {
    if (a.spec.kind == FaultKind::kCustom ||
        a.spec.kind == FaultKind::kStateCorruption) {
      return false;
    }
    if (a.spec.kind == FaultKind::kCrashRestart && a.spec.amnesiac) {
      return false;
    }
  }
  return true;
}

std::uint64_t FaultInjector::replay_state_digest() const {
  std::uint64_t h = 0x1fec7ull;  // injector domain tag
  for (const Armed& a : faults_) {
    h = hash_combine(h, a.rng.digest());
    h = hash_combine(h, (a.fired ? 1ull : 0ull) |
                            (a.partitioned ? 2ull : 0ull));
    h = hash_combine(h, a.stall_until);
    h = hash_combine(h, a.heal_at);
    h = hash_combine(h, a.restart_at);
    h = hash_combine(h, static_cast<std::uint64_t>(a.restart_pid));
  }
  return h;
}

bool FaultInjector::should_fire(Armed& a, const rt::World& w,
                                ProcessId event_target) {
  if (a.fired && a.spec.once) return false;
  if (w.step_count() < a.spec.at_step) return false;
  if (a.spec.target != kNoProcess && a.spec.target != event_target)
    return false;
  if (a.spec.probability < 1.0 && !a.rng.next_bool(a.spec.probability))
    return false;
  return true;
}

bool FaultInjector::before_event(rt::World& w, const rt::EventDesc& ev) {
  bool allow = true;
  for (Armed& a : faults_) {
    switch (a.spec.kind) {
      case FaultKind::kCrashStop: {
        // Crash fires on the target's own next event.
        if (ev.pid == (a.spec.target == kNoProcess ? ev.pid : a.spec.target) &&
            should_fire(a, w, ev.pid)) {
          w.set_crashed(ev.pid, true);
          a.fired = true;
          injected_.push_back({a.spec.kind, ev.pid, w.step_count(),
                               a.spec.note});
          allow = false;  // the event is consumed by the crash
        }
        break;
      }
      case FaultKind::kMessageLoss: {
        if (ev.kind == rt::EventKind::kDeliver &&
            should_fire(a, w, ev.pid)) {
          a.fired = true;
          injected_.push_back({a.spec.kind, ev.pid, w.step_count(),
                               a.spec.note});
          allow = false;  // suppress => forced drop in the dispatch pipeline
        }
        break;
      }
      case FaultKind::kMessageCorrupt: {
        if (ev.kind == rt::EventKind::kDeliver && a.spec.corrupt_message &&
            should_fire(a, w, ev.pid)) {
          if (w.network().mutate(ev.msg, a.spec.corrupt_message)) {
            a.fired = true;
            injected_.push_back({a.spec.kind, ev.pid, w.step_count(),
                                 a.spec.note});
          }
        }
        break;
      }
      case FaultKind::kMessageDuplicate: {
        if (ev.kind == rt::EventKind::kDeliver &&
            should_fire(a, w, ev.pid)) {
          if (w.network().duplicate(ev.msg)) {
            a.fired = true;
            injected_.push_back({a.spec.kind, ev.pid, w.step_count(),
                                 a.spec.note});
          }
        }
        break;
      }
      case FaultKind::kStateCorruption: {
        if (a.spec.corrupt_state && should_fire(a, w, ev.pid)) {
          a.spec.corrupt_state(w.process(ev.pid));
          a.fired = true;
          injected_.push_back({a.spec.kind, ev.pid, w.step_count(),
                               a.spec.note});
        }
        break;
      }
      case FaultKind::kCustom: {
        if (a.spec.custom && should_fire(a, w, ev.pid)) {
          a.spec.custom(w);
          a.fired = true;
          injected_.push_back({a.spec.kind, ev.pid, w.step_count(),
                               a.spec.note});
        }
        break;
      }
      case FaultKind::kMessageDelay: {
        if (ev.kind != rt::EventKind::kDeliver) break;
        const net::Message* m = std::as_const(w).network().peek(ev.msg);
        if (m == nullptr || m->control) break;  // control plane stays timely
        if (!should_fire(a, w, ev.pid)) break;
        const VirtualTime lo = a.spec.delay_min;
        const VirtualTime hi = a.spec.delay_max;
        const VirtualTime extra =
            hi > lo ? lo + a.rng.next_below(hi - lo + 1) : lo;
        // Re-anchor at now: the message may have been ready for a while,
        // and a delay that lands in the past would be dropped as a loss
        // by the dispatch suppression path instead of deferred.
        const VirtualTime cur = m->sent_at + m->latency;
        const VirtualTime target_at = w.now() + extra;
        if (target_at > cur && w.network().delay(ev.msg, target_at - cur)) {
          a.fired = true;
          injected_.push_back({a.spec.kind, ev.pid, w.step_count(),
                               a.spec.note});
          allow = false;  // deferred, not dropped: stays pending
        }
        break;
      }
      case FaultKind::kStalledPeer: {
        if (a.spec.target == kNoProcess || ev.pid != a.spec.target) break;
        if (a.stall_until != 0 && w.now() >= a.stall_until) {
          a.stall_until = 0;  // window over; may re-fire if !once
        }
        if (a.stall_until == 0) {
          if (!should_fire(a, w, ev.pid)) break;
          a.fired = true;
          a.stall_until = w.now() + a.spec.stall_for;
          injected_.push_back({a.spec.kind, ev.pid, w.step_count(),
                               a.spec.note});
        }
        // Inside the window: defer real work past the window's end.
        // Control traffic (liveness probes, FixD's own protocol) is still
        // handled — the peer looks alive, it just does nothing useful.
        if (ev.kind == rt::EventKind::kDeliver) {
          const net::Message* m = std::as_const(w).network().peek(ev.msg);
          if (m != nullptr && !m->control) {
            const VirtualTime cur = m->sent_at + m->latency;
            if (a.stall_until > cur &&
                w.network().delay(ev.msg, a.stall_until - cur)) {
              allow = false;
            }
          }
        } else if (ev.kind == rt::EventKind::kTimer) {
          if (w.retime_timer(ev.pid, ev.timer, a.stall_until)) {
            allow = false;
          }
        }
        break;
      }
      case FaultKind::kTimerMutation: {
        if (a.fired && a.spec.once) break;
        if (w.step_count() < a.spec.at_step) break;
        for (ProcessId p = 0; p < w.size(); ++p) {
          if (a.spec.target != kNoProcess && a.spec.target != p) continue;
          const rt::Timer* hit = nullptr;
          for (const rt::Timer& t : w.timers_of(p).view()) {
            if (t.kind == a.spec.timer_kind) {
              hit = &t;
              break;
            }
          }
          if (hit == nullptr) continue;
          if (!should_fire(a, w, p)) break;
          const rt::Timer t = *hit;  // view invalidated by the mutation
          bool ok = false;
          switch (a.spec.timer_op) {
            case TimerOp::kStretch:
              ok = w.retime_timer(p, t.id, t.deadline + a.spec.timer_delta);
              break;
            case TimerOp::kShrink:
              ok = w.retime_timer(
                  p, t.id,
                  t.deadline >= a.spec.timer_delta
                      ? t.deadline - a.spec.timer_delta
                      : 0);
              break;
            case TimerOp::kCancel:
              ok = w.cancel_timer(p, t.id);
              break;
          }
          if (ok) {
            a.fired = true;
            injected_.push_back({a.spec.kind, p, w.step_count(),
                                 a.spec.note});
          }
          break;
        }
        break;
      }
      case FaultKind::kPartition: {
        fire_partition(a, w, ev, allow);
        break;
      }
      case FaultKind::kCrashRestart: {
        fire_crash_restart(a, w, ev, allow);
        break;
      }
    }
  }
  return allow;
}

void FaultInjector::fire_partition(Armed& a, rt::World& w,
                                   const rt::EventDesc& ev, bool& allow) {
  // A due heal deadline re-opens the links before anything else this step.
  if (a.partitioned && a.heal_at != 0 && w.now() >= a.heal_at) {
    for (ProcessId s : a.spec.group_a) {
      for (ProcessId d : a.spec.group_b) {
        w.model_heal_link(s, d);
        if (a.spec.symmetric) w.model_heal_link(d, s);
      }
    }
    a.partitioned = false;
    a.heal_at = 0;
    injected_.push_back({a.spec.kind, kNoProcess, w.step_count(),
                         a.spec.note + " (heal)"});
  }
  if (a.partitioned) return;
  // Fire condition: the cut is global, so the per-process target filter is
  // bypassed by echoing the spec's own target.
  if (!should_fire(a, w, a.spec.target)) return;
  // The event already chosen this step may be a delivery that is about to
  // cross the cut. It must be deferred, not lost: the dispatch suppression
  // path force-drops *ready* deliveries, so push its ready time past `now`
  // first (while its link is still unblocked and indexed), then suppress.
  if (ev.kind == rt::EventKind::kDeliver) {
    const net::Message* m = std::as_const(w).network().peek(ev.msg);
    if (m != nullptr) {
      const bool fwd =
          in_group(a.spec.group_a, m->src) && in_group(a.spec.group_b, m->dst);
      const bool rev =
          a.spec.symmetric && in_group(a.spec.group_b, m->src) &&
          in_group(a.spec.group_a, m->dst);
      if (fwd || rev) {
        const VirtualTime cur = m->sent_at + m->latency;
        if (cur <= w.now()) {
          w.model_delay_message(ev.msg, w.now() + 1 - cur);
        }
        allow = false;
      }
    }
  }
  for (ProcessId s : a.spec.group_a) {
    for (ProcessId d : a.spec.group_b) {
      w.model_cut_link(s, d);
      if (a.spec.symmetric) w.model_cut_link(d, s);
    }
  }
  a.fired = true;
  a.partitioned = true;
  if (a.spec.heal_max > 0) {
    const VirtualTime lo = a.spec.heal_min;
    const VirtualTime hi = a.spec.heal_max;
    const VirtualTime span = hi > lo ? a.rng.next_below(hi - lo + 1) : 0;
    a.heal_at = w.now() + lo + span;
  }
  injected_.push_back({a.spec.kind, kNoProcess, w.step_count(), a.spec.note});
}

void FaultInjector::fire_crash_restart(Armed& a, rt::World& w,
                                       const rt::EventDesc& ev, bool& allow) {
  if (a.spec.target == kNoProcess || a.spec.target >= w.size()) return;
  const ProcessId pid = a.spec.target;
  // Armed-time capture: the state an amnesiac restart forgets back to is
  // whatever the process held the first time the injector saw the world.
  if (a.spec.amnesiac && !a.init_ckpt && !w.is_crashed(pid)) {
    a.init_ckpt = w.capture_process(pid, /*cow=*/true);
  }
  // A due restart deadline resurrects the process before anything else.
  if (a.restart_pid != kNoProcess && w.now() >= a.restart_at) {
    const ProcessId r = a.restart_pid;
    if (a.spec.amnesiac && a.init_ckpt) {
      w.restore_process(r, *a.init_ckpt);
      w.set_crashed(r, false);
    } else {
      w.model_restart_process(r);
    }
    a.restart_pid = kNoProcess;
    a.restart_at = 0;
    injected_.push_back({a.spec.kind, r, w.step_count(),
                         a.spec.note + " (restart)"});
  }
  if (a.restart_pid != kNoProcess) return;  // still down, waiting to restart
  // Crash fires on the target's own next event (kCrashStop semantics).
  if (ev.pid != pid || w.is_crashed(pid)) return;
  if (!should_fire(a, w, ev.pid)) return;
  w.set_crashed(pid, true);
  a.fired = true;
  const VirtualTime lo = a.spec.restart_min;
  const VirtualTime hi = a.spec.restart_max;
  const VirtualTime span = hi > lo ? a.rng.next_below(hi - lo + 1) : 0;
  a.restart_at = w.now() + lo + span;
  a.restart_pid = pid;
  injected_.push_back({a.spec.kind, pid, w.step_count(), a.spec.note});
  allow = false;  // the event is consumed by the crash
}

}  // namespace fixd::fault
