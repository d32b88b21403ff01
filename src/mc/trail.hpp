// Trails and bug reports: the Investigator's output.
//
// §3.3: the Investigator "returns a set of trails that lead to invariant
// violations". A Trail is the exact action sequence from the investigated
// state to the violation; it re-executes deterministically (tested), which
// is what makes it a *bug report* rather than a guess.
#pragma once

#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "rt/event.hpp"
#include "rt/invariant.hpp"

namespace fixd::mc {

/// One transition label in a system-level trail.
struct SysAction {
  enum class Kind : std::uint8_t {
    kRuntime = 0,     ///< a runtime event (start / deliver / timer)
    kDropMessage,     ///< environment model: the network loses a message
    kDupMessage,      ///< environment model: the network duplicates a message
    kDelayMessage,    ///< environment model: a delivery is deferred (timed)
    kCancelTimer,     ///< environment model: an armed timeout never fires
    kPartitionLinks,  ///< environment model: cut one directed link (traffic
                      ///< on it is deferred, never lost)
    kHealLinks,       ///< environment model: re-open one cut link
    kRestartProcess,  ///< environment model: durable restart of a crashed
                      ///< process (resumes with crash-time state)
  };

  Kind kind = Kind::kRuntime;
  rt::EventDesc event;      ///< kRuntime / kCancelTimer / kRestartProcess
  MsgId msg = 0;            ///< kDropMessage / kDupMessage / kDelayMessage
  VirtualTime delay = 0;    ///< kDelayMessage: extra virtual time
  ProcessId src = kNoProcess;  ///< kPartitionLinks / kHealLinks
  ProcessId dst = kNoProcess;  ///< kPartitionLinks / kHealLinks

  bool operator==(const SysAction& o) const = default;

  std::string describe() const {
    switch (kind) {
      case Kind::kRuntime:
        return event.to_string();
      case Kind::kDropMessage:
        return "env:drop(msg#" + std::to_string(msg) + ")";
      case Kind::kDupMessage:
        return "env:dup(msg#" + std::to_string(msg) + ")";
      case Kind::kDelayMessage:
        return "env:delay(msg#" + std::to_string(msg) + ",+" +
               std::to_string(delay) + ")";
      case Kind::kCancelTimer:
        return "env:cancel-timer(t#" + std::to_string(event.timer) + "@p" +
               std::to_string(event.pid) + ")";
      case Kind::kPartitionLinks:
        return "env:cut(p" + std::to_string(src) + "->p" +
               std::to_string(dst) + ")";
      case Kind::kHealLinks:
        return "env:heal(p" + std::to_string(src) + "->p" +
               std::to_string(dst) + ")";
      case Kind::kRestartProcess:
        return "env:restart(p" + std::to_string(event.pid) + ")";
    }
    return "?";
  }

  void save(BinaryWriter& w) const {
    w.write_u8(static_cast<std::uint8_t>(kind));
    event.save(w);
    w.write_varint(msg);
    w.write_varint(delay);
    w.write_u32(src);
    w.write_u32(dst);
  }

  void load(BinaryReader& r) {
    const std::uint8_t k = r.read_u8();
    if (k > static_cast<std::uint8_t>(Kind::kRestartProcess)) {
      throw SerializationError("SysAction: bad kind tag " + std::to_string(k));
    }
    kind = static_cast<Kind>(k);
    event.load(r);
    msg = r.read_varint();
    delay = r.read_varint();
    src = r.read_u32();
    dst = r.read_u32();
  }
};

struct Trail {
  std::vector<SysAction> steps;

  std::size_t length() const { return steps.size(); }

  std::string render() const {
    std::string out;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      out += "  " + std::to_string(i + 1) + ". " + steps[i].describe() + "\n";
    }
    return out;
  }

  void save(BinaryWriter& w) const {
    w.write_vector(steps,
                   [](BinaryWriter& ww, const SysAction& a) { a.save(ww); });
  }

  void load(BinaryReader& r) {
    steps = r.read_vector<SysAction>([](BinaryReader& rr) {
      SysAction a;
      a.load(rr);
      return a;
    });
  }
};

/// A violation found by the system explorer, with its trail.
struct SysViolation {
  rt::Violation violation;
  Trail trail;
  std::size_t depth = 0;

  std::string render() const {
    return violation.to_string() + "\n" + trail.render();
  }

  void save(BinaryWriter& w) const {
    violation.save(w);
    trail.save(w);
    w.write_varint(depth);
  }

  void load(BinaryReader& r) {
    violation.load(r);
    trail.load(r);
    depth = static_cast<std::size_t>(r.read_varint());
  }
};

}  // namespace fixd::mc
