#include "net/network.hpp"

#include <algorithm>
#include <bit>

#include "common/hash.hpp"

namespace fixd::net {

std::uint64_t NetSnapshot::size_bytes() const {
  std::uint64_t n = 0;
  for (const auto& [id, m] : messages) n += m->retained_bytes();
  for (const auto& [key, q] : channels) n += q.size() * sizeof(MsgId);
  return n;
}

void NetSnapshot::share_across_threads() const {
  if (xt_marked_.test_and_mark()) return;
  for (const auto& [id, m] : messages) m->mark_cross_thread();
}

namespace {

/// The accumulator mixes each content digest before summing so that the
/// wrapping sum stays collision-resistant for multisets (raw sums cancel
/// structured digests too easily); mix64 is bijective, so distinct
/// multisets keep distinct term sets.
std::uint64_t acc_term(std::uint64_t content_digest) {
  return mix64(content_digest);
}

/// First entry of a key-sorted (key, value) vector whose key is >= `key`.
template <class V, class K>
auto lower_bound_key(V& v, const K& key) {
  return std::lower_bound(
      v.begin(), v.end(), key,
      [](const auto& e, const K& k) { return e.first < k; });
}

/// Whether `proj` maps `v` to a strictly ascending sequence.
template <class V, class Proj>
bool strictly_ascending(const V& v, Proj proj) {
  return std::ranges::adjacent_find(v, std::ranges::greater_equal{}, proj) ==
         v.end();
}

/// The entry with exactly `key`, or v.end().
template <class V, class K>
auto find_key(V& v, const K& key) {
  auto it = lower_bound_key(v, key);
  return (it != v.end() && it->first == key) ? it : v.end();
}

}  // namespace

SimNetwork::SimNetwork(NetworkOptions options) {
  st_.options = options;
  st_.rng = Rng(options.seed);
}

const Message& SimNetwork::msg_at(MsgId id) const {
  auto it = find_key(st_.messages, id);
  FIXD_CHECK_MSG(it != st_.messages.end(), "message not pending");
  return *it->second;
}

std::vector<MsgId>& SimNetwork::channel_queue(const ChannelKey& key) {
  auto it = lower_bound_key(st_.channels, key);
  if (it == st_.channels.end() || it->first != key) {
    it = st_.channels.emplace(it, key, std::vector<MsgId>{});
  }
  return it->second;
}

void SimNetwork::touch() {
  st_.digest_memo.reset();
  snap_cache_.reset();
}

void SimNetwork::touch_channel(const ChannelKey& key) {
  auto it = find_key(st_.channel_digests, key);
  if (it != st_.channel_digests.end()) st_.channel_digests.erase(it);
  touch();
}

void SimNetwork::idx_add(ProcessId dst, MsgId id, const DeliverableEntry& e) {
  if (!deliv_valid_) return;
  deliv_index_[dst].add(id, e);
  if (listener_) listener_->on_deliverable_add(dst, id, e);
}

void SimNetwork::idx_remove(ProcessId dst, MsgId id) {
  if (!deliv_valid_) return;
  auto it = deliv_index_.find(dst);
  if (it == deliv_index_.end() || !it->second.remove(id)) return;
  if (it->second.empty()) deliv_index_.erase(it);
  if (listener_) listener_->on_deliverable_remove(dst, id);
}

void SimNetwork::idx_add_head(const std::vector<MsgId>& q) {
  if (!deliv_valid_ || q.empty()) return;
  const Message& m = msg_at(q.front());
  if (link_blocked(m.src, m.dst)) return;  // deferred behind the partition
  idx_add(m.dst, m.id, {m.sent_at + m.latency, m.control});
}

std::uint64_t SimNetwork::inflight_to(ProcessId dst) const {
  return static_cast<std::uint64_t>(
      std::ranges::count_if(st_.messages, [dst](const auto& e) {
        return e.second->dst == dst && !e.second->control;
      }));
}

void SimNetwork::idx_invalidate() {
  // Flag-only: this rides the explorer's restore-per-transition path, and
  // most invalidations are superseded by the next one before any enabled-
  // set query happens (sibling transitions). ensure_deliv_index() clears.
  deliv_valid_ = false;
}

void SimNetwork::ensure_deliv_index() const {
  if (deliv_valid_) return;
  // Rebuild in place: empty the buckets but keep their storage (and the
  // map nodes for recurring destinations) — the explorer rebuilds once
  // per expansion over near-identical destination sets, so steady-state
  // rebuilds allocate nothing.
  for (auto& [dst, b] : deliv_index_) b.clear();
  if (st_.options.fifo) {
    for (const auto& [key, q] : st_.channels) {
      if (q.empty() || link_blocked(key.first, key.second)) continue;
      const Message& m = msg_at(q.front());
      deliv_index_[m.dst].add(m.id, {m.sent_at + m.latency, m.control});
    }
  } else {
    for (const auto& [id, m] : st_.messages) {
      if (link_blocked(m->src, m->dst)) continue;
      deliv_index_[m->dst].add(id, {m->sent_at + m->latency, m->control});
    }
  }
  std::erase_if(deliv_index_, [](const auto& kv) {
    return kv.second.empty();
  });
  deliv_valid_ = true;
  ++deliv_epoch_;  // delta-mirroring consumers must resync wholesale
}

std::size_t SimNetwork::warm_probe(std::uint64_t key) const {
  constexpr std::size_t mask = kWarmIndexSlots - 1;
  std::size_t i = static_cast<std::size_t>(key) & mask;
  while (warm_index_[i] != 0 && warm_ring_[warm_index_[i] - 1].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void SimNetwork::warm_unindex(std::size_t i) {
  constexpr std::size_t mask = kWarmIndexSlots - 1;
  for (std::size_t j = (i + 1) & mask; warm_index_[j] != 0;
       j = (j + 1) & mask) {
    const std::size_t home =
        static_cast<std::size_t>(warm_ring_[warm_index_[j] - 1].key) & mask;
    // The entry at j may fill the hole at i unless its home slot lies
    // cyclically in (i, j] — then moving it would put it before its home.
    if (((j - home) & mask) >= ((j - i) & mask)) {
      warm_index_[i] = warm_index_[j];
      i = j;
    }
  }
  warm_index_[i] = 0;
}

std::shared_ptr<const Message> SimNetwork::warm_or_make(Message&& msg) {
  if (warm_step_key_ == 0) {
    // Created non-const (as everywhere): take()'s uniquely-owned move-out
    // path sheds const, which is only defined for non-const objects.
    return std::make_shared<Message>(std::move(msg));
  }
  if (warm_ring_.empty()) {
    warm_ring_.resize(kWarmRingSlots);
    warm_index_.assign(kWarmIndexSlots, 0);
  }
  const std::uint64_t k = hash_combine(warm_step_key_, ++warm_ordinal_);
  if (const std::uint16_t pos = warm_index_[warm_probe(k)]; pos != 0) {
    // Reuse only on full equality — the key narrows the search, the
    // compare decides, so a key collision can never share wrong content.
    WarmMsgSlot& slot = warm_ring_[pos - 1];
    const Message& c = *slot.msg;
    if (c.id == msg.id && c.src == msg.src && c.dst == msg.dst &&
        c.tag == msg.tag && c.sent_at == msg.sent_at &&
        c.latency == msg.latency && c.lamport == msg.lamport &&
        c.control == msg.control && c.vclock == msg.vclock &&
        c.spec_taints == msg.spec_taints && c.payload == msg.payload) {
      ++warm_hits_;
      return slot.msg;
    }
    // Same key, new content: the newer message takes over the entry.
    slot.msg = std::make_shared<Message>(std::move(msg));
    return slot.msg;
  }
  WarmMsgSlot& slot = warm_ring_[warm_next_];
  if (slot.msg) warm_unindex(warm_probe(slot.key));  // evict the oldest
  slot = {k, std::make_shared<Message>(std::move(msg))};
  warm_index_[warm_probe(k)] = static_cast<std::uint16_t>(warm_next_ + 1);
  warm_next_ = (warm_next_ + 1) % kWarmRingSlots;
  return slot.msg;
}

void SimNetwork::set_replay_warm(bool on) {
  warm_on_ = on;
  warm_step_key_ = 0;
  warm_ring_.clear();
  warm_index_.clear();
  warm_next_ = 0;
  warm_hits_ = 0;
}

void SimNetwork::enqueue(Message msg) {
  MsgId id = msg.id;
  // Every pending message carries warm digest memos, so state hashing over
  // the in-flight traffic never re-hashes payloads.
  msg.warm_digest_memo();
  st_.content_acc += acc_term(msg.content_digest());
  ChannelKey key{msg.src, msg.dst};
  auto& q = channel_queue(key);
  q.push_back(id);
  touch_channel(key);
  // FIFO: the message is deliverable only when it heads its channel;
  // reordering: every pending message is deliverable. A blocked link
  // defers either way.
  if ((!st_.options.fifo || q.size() == 1) &&
      !link_blocked(key.first, key.second)) {
    idx_add(msg.dst, id, {msg.sent_at + msg.latency, msg.control});
  }
  // Ids are handed out in ascending order, so this lands at the back
  // except for submit's duplicate, which is enqueued before its original.
  st_.messages.emplace(lower_bound_key(st_.messages, id), id,
                       warm_or_make(std::move(msg)));
}

std::optional<MsgId> SimNetwork::submit(Message msg) {
  ++st_.stats.submitted;
  st_.stats.bytes_submitted += msg.payload.size();

  // Control-plane traffic bypasses the loss policy: the fault-response
  // protocol must be reliable for FixD itself to function.
  const bool lossy_eligible = !msg.control;

  if (lossy_eligible && st_.options.drop_prob > 0.0 &&
      st_.rng.next_bool(st_.options.drop_prob)) {
    ++st_.stats.dropped_policy;
    touch();  // stats and RNG advanced even though nothing was enqueued
    return std::nullopt;
  }

  msg.id = st_.next_id++;
  msg.latency = draw_latency();
  MsgId id = msg.id;

  bool dup = lossy_eligible && st_.options.dup_prob > 0.0 &&
             st_.rng.next_bool(st_.options.dup_prob);
  if (dup) {
    Message copy = msg;
    copy.id = st_.next_id++;
    copy.latency = draw_latency();
    ++st_.stats.duplicated;
    enqueue(std::move(copy));
  }
  enqueue(std::move(msg));
  return id;
}

VirtualTime SimNetwork::draw_latency() {
  const NetworkOptions& o = st_.options;
  if (o.latency_max <= o.latency_min) return o.latency_min;
  return o.latency_min +
         st_.rng.next_below(o.latency_max - o.latency_min + 1);
}

bool SimNetwork::is_deliverable(MsgId id) const {
  auto it = find_key(st_.messages, id);
  if (it == st_.messages.end()) return false;
  const Message& m = *it->second;
  if (link_blocked(m.src, m.dst)) return false;
  if (!st_.options.fifo) return true;
  auto cit = find_key(st_.channels, ChannelKey{m.src, m.dst});
  return cit != st_.channels.end() && !cit->second.empty() &&
         cit->second.front() == id;
}

std::vector<MsgId> SimNetwork::deliverable() const {
  std::vector<MsgId> out;
  if (st_.options.fifo) {
    for (const auto& [key, q] : st_.channels) {
      if (!q.empty() && !link_blocked(key.first, key.second))
        out.push_back(q.front());
    }
    std::sort(out.begin(), out.end());
  } else {
    out.reserve(st_.messages.size());
    for (const auto& [id, m] : st_.messages) {
      if (!link_blocked(m->src, m->dst)) out.push_back(id);
    }
  }
  return out;
}

std::vector<const Message*> SimNetwork::pending() const {
  std::vector<const Message*> out;
  out.reserve(st_.messages.size());
  for (const auto& [id, m] : st_.messages) out.push_back(m.get());
  return out;
}

const Message* SimNetwork::peek(MsgId id) const {
  auto it = find_key(st_.messages, id);
  return it == st_.messages.end() ? nullptr : it->second.get();
}

Message SimNetwork::take(MsgId id) {
  FIXD_CHECK_MSG(is_deliverable(id),
                 "take: message not deliverable: " + std::to_string(id));
  auto it = find_key(st_.messages, id);
  std::shared_ptr<const Message> sp = std::move(it->second);
  st_.messages.erase(it);
  ChannelKey key{sp->src, sp->dst};
  auto& q = channel_queue(key);
  auto qit = std::find(q.begin(), q.end(), id);
  FIXD_CHECK(qit != q.end());
  q.erase(qit);
  touch_channel(key);
  idx_remove(sp->dst, id);
  if (st_.options.fifo) idx_add_head(q);  // the next message becomes the head
  st_.content_acc -= acc_term(sp->content_digest());
  ++st_.stats.delivered;
  st_.stats.bytes_delivered += sp->payload.size();
  if (sp.use_count() == 1 && !sp->cross_thread()) {
    // Sole owner (no live snapshot shares the buffer, and the buffer never
    // crossed a thread boundary): move the payload out. The object was
    // created non-const (make_shared<Message>), so shedding const on the
    // uniquely-owned instance is well-defined.
    return std::move(const_cast<Message&>(*sp));
  }
  return *sp;  // shared with a snapshot or another thread: deliver a copy
}

bool SimNetwork::drop(MsgId id, bool forced) {
  auto it = find_key(st_.messages, id);
  if (it == st_.messages.end()) return false;
  const std::shared_ptr<const Message> sp = std::move(it->second);
  st_.messages.erase(it);
  ChannelKey key{sp->src, sp->dst};
  st_.content_acc -= acc_term(sp->content_digest());
  auto& q = channel_queue(key);
  const bool was_head = !q.empty() && q.front() == id;
  auto qit = std::find(q.begin(), q.end(), id);
  if (qit != q.end()) q.erase(qit);
  touch_channel(key);
  if (!st_.options.fifo || was_head) {
    idx_remove(sp->dst, id);
    if (st_.options.fifo) idx_add_head(q);
  }
  if (forced) {
    ++st_.stats.dropped_forced;
  } else {
    ++st_.stats.dropped_policy;
  }
  return true;
}

std::optional<MsgId> SimNetwork::duplicate(MsgId id) {
  const Message* orig = peek(id);
  if (!orig) return std::nullopt;
  Message copy = *orig;
  copy.id = st_.next_id++;
  ++st_.stats.duplicated;
  MsgId nid = copy.id;
  enqueue(std::move(copy));
  return nid;
}

std::size_t SimNetwork::drop_tainted(SpecId spec) {
  std::vector<MsgId> victims;
  for (const auto& [id, m] : st_.messages) {
    if (std::find(m->spec_taints.begin(), m->spec_taints.end(), spec) !=
        m->spec_taints.end()) {
      victims.push_back(id);
    }
  }
  for (MsgId id : victims) drop(id, /*forced=*/true);
  return victims.size();
}

std::size_t SimNetwork::scrub_taint(SpecId spec) {
  std::size_t n = 0;
  for (auto& [id, sp] : st_.messages) {
    auto it = std::find(sp->spec_taints.begin(), sp->spec_taints.end(), spec);
    if (it == sp->spec_taints.end()) continue;
    // Copy-on-write: snapshots sharing the old buffer keep the taint.
    st_.content_acc -= acc_term(sp->content_digest());
    Message m = *sp;
    m.spec_taints.erase(m.spec_taints.begin() +
                        (it - sp->spec_taints.begin()));
    m.warm_digest_memo();
    st_.content_acc += acc_term(m.content_digest());
    touch_channel({m.src, m.dst});
    sp = std::make_shared<Message>(std::move(m));
    ++n;
  }
  return n;
}

bool SimNetwork::mutate(MsgId id, const std::function<void(Message&)>& fn) {
  auto it = find_key(st_.messages, id);
  if (it == st_.messages.end()) return false;
  Message m = *it->second;  // copy-on-write; snapshots keep the original
  fn(m);
  FIXD_CHECK_MSG(m.id == id && m.src == it->second->src &&
                     m.dst == it->second->dst,
                 "mutate must not change routing identity (drop + submit)");
  st_.content_acc -= acc_term(it->second->content_digest());
  m.warm_digest_memo();  // re-pin after the mutation
  st_.content_acc += acc_term(m.content_digest());
  touch_channel({m.src, m.dst});
  // Refresh the deliverable entry: the mutation may have changed the
  // ready time (sent_at/latency) or the control flag.
  if (deliv_valid_) {
    auto bit = deliv_index_.find(m.dst);
    if (bit != deliv_index_.end() && bit->second.contains(id)) {
      idx_remove(m.dst, id);
      idx_add(m.dst, id, {m.sent_at + m.latency, m.control});
    }
  }
  it->second = std::make_shared<Message>(std::move(m));
  return true;
}

bool SimNetwork::delay(MsgId id, VirtualTime extra) {
  // mutate() already does everything delaying needs: copy-on-write of the
  // immutable pending object, digest upkeep, and the deliverable-entry
  // refresh that republishes the new ready time to the enabled index.
  return mutate(id, [extra](Message& m) { m.latency += extra; });
}

bool SimNetwork::cut_link(ProcessId src, ProcessId dst) {
  auto& mask = st_.blocked_links;
  const LinkKey link{src, dst};
  auto bit = std::lower_bound(mask.begin(), mask.end(), link);
  if (bit != mask.end() && *bit == link) return false;
  mask.insert(bit, link);
  // Retract the link's deliverable entries: FIFO exposes only the channel
  // head, reordering exposes the whole queue. The messages themselves stay
  // pending (deferred, not lost).
  auto cit = find_key(st_.channels, link);
  if (cit != st_.channels.end() && !cit->second.empty()) {
    if (st_.options.fifo) {
      idx_remove(dst, cit->second.front());
    } else {
      for (MsgId id : cit->second) idx_remove(dst, id);
    }
  }
  touch();
  return true;
}

bool SimNetwork::heal_link(ProcessId src, ProcessId dst) {
  auto& mask = st_.blocked_links;
  const LinkKey link{src, dst};
  auto bit = std::lower_bound(mask.begin(), mask.end(), link);
  if (bit == mask.end() || *bit != link) return false;
  mask.erase(bit);
  auto cit = find_key(st_.channels, link);
  if (cit != st_.channels.end() && !cit->second.empty()) {
    if (st_.options.fifo) {
      idx_add_head(cit->second);
    } else if (deliv_valid_) {
      for (MsgId id : cit->second) {
        const Message& m = msg_at(id);
        idx_add(dst, id, {m.sent_at + m.latency, m.control});
      }
    }
  }
  touch();
  return true;
}

std::size_t SimNetwork::heal_all_links() {
  const std::vector<LinkKey> keys = st_.blocked_links;
  for (const LinkKey& k : keys) heal_link(k.first, k.second);
  return keys.size();
}

std::uint64_t SimNetwork::links_digest() const {
  if (st_.blocked_links.empty()) return 0;
  Hasher h;
  h.update_u64(st_.blocked_links.size());
  for (const auto& [s, d] : st_.blocked_links) {
    h.update_u64(s);
    h.update_u64(d);
  }
  return h.digest();
}

MsgId SimNetwork::reinject(Message msg) {
  msg.id = st_.next_id++;
  MsgId id = msg.id;
  ++st_.stats.submitted;
  st_.stats.bytes_submitted += msg.payload.size();
  enqueue(std::move(msg));
  return id;
}

void SimNetwork::save(BinaryWriter& w) const {
  w.write_bool(st_.options.fifo);
  w.write_f64(st_.options.drop_prob);
  w.write_f64(st_.options.dup_prob);
  w.write_u64(st_.options.latency_min);
  w.write_u64(st_.options.latency_max);
  w.write_u64(st_.options.seed);
  st_.rng.save(w);
  w.write_u64(st_.next_id);
  w.write_varint(st_.messages.size());
  for (const auto& [id, m] : st_.messages) m->save(w);
  w.write_varint(st_.channels.size());
  for (const auto& [key, q] : st_.channels) {
    w.write_u32(key.first);
    w.write_u32(key.second);
    w.write_varint(q.size());
    for (MsgId id : q) w.write_u64(id);
  }
  // Stats are part of the observable run and must restore with the state
  // so that rolled-back executions do not double-count.
  w.write_u64(st_.stats.submitted);
  w.write_u64(st_.stats.delivered);
  w.write_u64(st_.stats.dropped_policy);
  w.write_u64(st_.stats.dropped_forced);
  w.write_u64(st_.stats.duplicated);
  w.write_u64(st_.stats.bytes_submitted);
  w.write_u64(st_.stats.bytes_delivered);
  w.write_varint(st_.blocked_links.size());
  for (const auto& [s, d] : st_.blocked_links) {
    w.write_u32(s);
    w.write_u32(d);
  }
}

void SimNetwork::load(BinaryReader& r) {
  st_.options.fifo = r.read_bool();
  st_.options.drop_prob = r.read_f64();
  st_.options.dup_prob = r.read_f64();
  st_.options.latency_min = r.read_u64();
  st_.options.latency_max = r.read_u64();
  st_.options.seed = r.read_u64();
  st_.rng.load(r);
  st_.next_id = r.read_u64();
  st_.messages.clear();
  st_.content_acc = 0;
  std::size_t n = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < n; ++i) {
    Message m;
    m.load(r);
    m.warm_digest_memo();  // restore the pending-message memo invariant
    st_.content_acc += acc_term(m.content_digest());
    MsgId id = m.id;
    st_.messages.emplace_back(id, std::make_shared<Message>(std::move(m)));
  }
  st_.channels.clear();
  std::size_t nc = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < nc; ++i) {
    ChannelKey key;
    key.first = r.read_u32();
    key.second = r.read_u32();
    std::size_t qn = static_cast<std::size_t>(r.read_varint());
    auto& q = st_.channels.emplace_back(key, std::vector<MsgId>{}).second;
    for (std::size_t j = 0; j < qn; ++j) q.push_back(r.read_u64());
  }
  st_.stats.submitted = r.read_u64();
  st_.stats.delivered = r.read_u64();
  st_.stats.dropped_policy = r.read_u64();
  st_.stats.dropped_forced = r.read_u64();
  st_.stats.duplicated = r.read_u64();
  st_.stats.bytes_submitted = r.read_u64();
  st_.stats.bytes_delivered = r.read_u64();
  st_.blocked_links.clear();
  std::size_t nb = static_cast<std::size_t>(r.read_varint());
  for (std::size_t i = 0; i < nb; ++i) {
    ProcessId s = r.read_u32();
    ProcessId d = r.read_u32();
    st_.blocked_links.emplace_back(s, d);
  }
  // Lookups binary-search these vectors: accept only save()'s strictly
  // ascending key order.
  const auto key = [](const auto& e) { return e.first; };
  if (!strictly_ascending(st_.messages, key) ||
      !strictly_ascending(st_.channels, key) ||
      !strictly_ascending(st_.blocked_links, std::identity{})) {
    throw SerializationError("network load: keys out of order");
  }
  st_.channel_digests.clear();
  touch();
  idx_invalidate();
}

std::shared_ptr<const NetSnapshot> SimNetwork::snapshot() const {
  if (!snap_cache_) snap_cache_ = std::make_shared<const NetSnapshot>(st_);
  return snap_cache_;
}

void SimNetwork::restore(const std::shared_ptr<const NetSnapshot>& snap) {
  FIXD_CHECK_MSG(snap != nullptr, "restore: null network snapshot");
  if (snap_cache_ == snap) return;  // current state already matches
  // Adopts the digest caches warm at capture along with the state (cold
  // stays cold — conservative).
  st_ = *snap;
  // The deliverable index is rebuilt lazily at the next enabled-set
  // query, not copied per restore: the explorer restores once per
  // transition but asks "what can fire next?" once per expansion.
  idx_invalidate();
  snap_cache_ = snap;
}

std::uint64_t SimNetwork::channel_digest(const std::vector<MsgId>& q,
                                         bool cached) const {
  Hasher h;
  h.update_u64(q.size());
  for (MsgId id : q) {
    const Message& m = msg_at(id);
    h.update_u64(cached ? m.state_digest() : m.state_digest_uncached());
  }
  return h.digest();
}

// Digest formula: options, RNG state, id counter, then one digest per
// nonempty channel in key order (covering every pending message's full
// wire state and its queue position), then stats. Empty channel entries
// are skipped so the digest is a function of logical state alone.
std::uint64_t SimNetwork::digest_impl(bool cached) const {
  Hasher h;
  h.update_u64(st_.options.fifo ? 1 : 0);
  h.update_u64(std::bit_cast<std::uint64_t>(st_.options.drop_prob));
  h.update_u64(std::bit_cast<std::uint64_t>(st_.options.dup_prob));
  h.update_u64(st_.options.latency_min);
  h.update_u64(st_.options.latency_max);
  h.update_u64(st_.options.seed);
  h.update_u64(st_.blocked_links.size());
  for (const auto& [bs, bd] : st_.blocked_links) {
    h.update_u64(bs);
    h.update_u64(bd);
  }
  BinaryWriter rw;
  st_.rng.save(rw);
  h.update(rw.bytes());
  h.update_u64(st_.next_id);
  for (const auto& [key, q] : st_.channels) {
    if (q.empty()) continue;
    h.update_u64(key.first);
    h.update_u64(key.second);
    std::uint64_t cd;
    if (cached) {
      auto& cache = st_.channel_digests;
      auto it = lower_bound_key(cache, key);
      if (it != cache.end() && it->first == key) {
        cd = it->second;
      } else {
        cd = channel_digest(q, /*cached=*/true);
        cache.emplace(it, key, cd);
      }
    } else {
      cd = channel_digest(q, /*cached=*/false);
    }
    h.update_u64(cd);
  }
  h.update_u64(st_.stats.submitted);
  h.update_u64(st_.stats.delivered);
  h.update_u64(st_.stats.dropped_policy);
  h.update_u64(st_.stats.dropped_forced);
  h.update_u64(st_.stats.duplicated);
  h.update_u64(st_.stats.bytes_submitted);
  h.update_u64(st_.stats.bytes_delivered);
  return h.digest();
}

std::uint64_t SimNetwork::digest() const {
  if (!st_.digest_memo) st_.digest_memo = digest_impl(/*cached=*/true);
  return *st_.digest_memo;
}

std::uint64_t SimNetwork::digest_uncached() const {
  return digest_impl(/*cached=*/false);
}

std::uint64_t SimNetwork::content_digest_acc_uncached() const {
  std::uint64_t acc = 0;
  for (const auto& [id, m] : st_.messages) {
    acc += acc_term(m->content_digest_uncached());
  }
  return acc;
}

}  // namespace fixd::net
