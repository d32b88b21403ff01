#include "svc/journal.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <memory>
#include <set>

namespace fixd::svc {

namespace {

std::filesystem::path wal_path(const std::filesystem::path& dir,
                               std::uint64_t job_id) {
  return dir / ("job-" + std::to_string(job_id) + ".wal");
}

std::filesystem::path run_path(const std::filesystem::path& dir,
                               std::uint64_t job_id, std::uint64_t seq) {
  return dir / ("job-" + std::to_string(job_id) + "-ckpt-" +
                std::to_string(seq) + ".run");
}

// Front coding: each trail is stored as the length of the prefix it shares
// with the previous trail plus its own suffix. Consecutive frontier nodes
// are siblings and cousins, so most of every trail is shared.
void save_front_coded(BinaryWriter& w, const std::vector<mc::Trail>& trails) {
  w.write_varint(trails.size());
  const std::vector<mc::SysAction>* prev = nullptr;
  for (const mc::Trail& t : trails) {
    std::size_t shared = 0;
    if (prev != nullptr) {
      const std::size_t lim = std::min(prev->size(), t.steps.size());
      while (shared < lim && (*prev)[shared] == t.steps[shared]) {
        ++shared;
      }
    }
    w.write_varint(shared);
    w.write_varint(t.steps.size() - shared);
    for (std::size_t i = shared; i < t.steps.size(); ++i) t.steps[i].save(w);
    prev = &t.steps;
  }
}

std::vector<mc::Trail> load_front_coded(BinaryReader& r) {
  const std::uint64_t n = r.read_varint();
  // Every trail takes at least two bytes, so a count beyond that is a lie.
  if (n > r.remaining() / 2) {
    throw SerializationError("journal: frontier count exceeds the record");
  }
  std::vector<mc::Trail> out;
  out.reserve(static_cast<std::size_t>(n));
  std::uint64_t actions = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t shared = r.read_varint();
    const std::uint64_t suffix = r.read_varint();
    const std::uint64_t prev_len = out.empty() ? 0 : out.back().steps.size();
    if (shared > prev_len) {
      throw SerializationError(
          "journal: front-coded trail shares " + std::to_string(shared) +
          " actions with a trail of " + std::to_string(prev_len));
    }
    if (suffix > r.remaining() ||
        shared + suffix > kMaxFrontierActions - actions) {
      throw SerializationError("journal: frontier exceeds its size bounds");
    }
    actions += shared + suffix;
    mc::Trail t;
    t.steps.reserve(static_cast<std::size_t>(shared + suffix));
    if (shared > 0) {
      const auto& p = out.back().steps;
      t.steps.assign(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(shared));
    }
    for (std::uint64_t k = 0; k < suffix; ++k) {
      t.steps.emplace_back().load(r);
    }
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

void RunManifest::save(BinaryWriter& w) const {
  w.write_string(file);
  w.write_u64(count);
  w.write_pod_vector(fence);
}

void RunManifest::load(BinaryReader& r) {
  file = r.read_string();
  count = r.read_u64();
  fence = r.read_pod_vector<std::uint64_t>();
}

void JournalRecord::save(BinaryWriter& w) const {
  w.write_u32(kJournalVersion);
  w.write_u8(static_cast<std::uint8_t>(type));
  switch (type) {
    case JournalRecordType::kSubmitted:
      w.write_u64(request_id);
      w.write_u64(job_id);
      spec.save(w);
      break;
    case JournalRecordType::kAttemptStarted:
      w.write_u32(generation);
      break;
    case JournalRecordType::kCheckpoint:
      w.write_u64(checkpoint_seq);
      visited.save(w);
      stats.save(w);
      w.write_vector(violations,
                     [](BinaryWriter& ww, const mc::SysViolation& v) {
                       v.save(ww);
                     });
      // Last, so recovery can skip it on every record but the newest.
      save_front_coded(w, frontier);
      break;
    case JournalRecordType::kCompleted:
      result.save(w);
      break;
    case JournalRecordType::kCancelled:
      break;
  }
}

namespace {

/// JournalRecord::load, except that a checkpoint's frontier (the record's
/// last field) is decoded only when `with_frontier`.
void decode_record(BinaryReader& r, JournalRecord& rec, bool with_frontier) {
  const std::uint32_t version = r.read_u32();
  if (version != kJournalVersion) {
    throw SerializationError("journal: unsupported WAL version " +
                             std::to_string(version) + " (this build reads " +
                             std::to_string(kJournalVersion) + ")");
  }
  const std::uint8_t t = r.read_u8();
  if (t > static_cast<std::uint8_t>(JournalRecordType::kCancelled)) {
    throw SerializationError("journal: bad record type " + std::to_string(t));
  }
  rec.type = static_cast<JournalRecordType>(t);
  switch (rec.type) {
    case JournalRecordType::kSubmitted:
      rec.request_id = r.read_u64();
      rec.job_id = r.read_u64();
      rec.spec.load(r);
      break;
    case JournalRecordType::kAttemptStarted:
      rec.generation = r.read_u32();
      break;
    case JournalRecordType::kCheckpoint:
      rec.checkpoint_seq = r.read_u64();
      rec.visited.load(r);
      rec.stats.load(r);
      rec.violations = r.read_vector<mc::SysViolation>([](BinaryReader& rr) {
        mc::SysViolation v;
        v.load(rr);
        return v;
      });
      if (with_frontier) rec.frontier = load_front_coded(r);
      break;
    case JournalRecordType::kCompleted:
      rec.result.load(r);
      break;
    case JournalRecordType::kCancelled:
      break;
  }
}

}  // namespace

void JournalRecord::load(BinaryReader& r) {
  decode_record(r, *this, /*with_frontier=*/true);
}

JobJournal::JobJournal(std::filesystem::path dir, std::uint64_t job_id)
    : dir_(std::move(dir)), path_(wal_path(dir_, job_id)), job_id_(job_id) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw IoError("journal: create_directories " + dir_.string(), ec.value());
  }
  const bool created = !std::filesystem::exists(path_, ec);
  errno = 0;
  f_ = std::fopen(path_.c_str(), "ab");
  if (f_ == nullptr) {
    throw IoError("journal: open " + path_.string(), errno);
  }
  // A new WAL's directory entry must be durable before its first record
  // is acknowledged, or a crash could lose an acknowledged submit.
  if (created) io_detail::sync_dir(dir_);
}

JobJournal::~JobJournal() {
  if (f_ != nullptr) std::fclose(f_);
}

void JobJournal::append(const JournalRecord& rec) {
  BinaryWriter payload;
  rec.save(payload);
  BinaryWriter frame;
  write_crc_frame(frame, kJournalMagic, payload.bytes());
  const auto bytes = frame.bytes();
  io_detail::checked_fwrite(bytes.data(), bytes.size(), f_, path_,
                            "journal append");
  io_detail::flush_and_sync(f_, path_);
}

RunManifest JobJournal::write_visited_run(
    std::uint64_t checkpoint_seq, const std::vector<std::uint64_t>& keys) {
  const std::filesystem::path p = run_path(dir_, job_id_, checkpoint_seq);
  SortedRunWriter writer(p);
  if (!keys.empty()) writer.append(keys.data(), keys.size());
  SortedRunWriter::Finished fin = writer.finish(/*durable=*/true);
  RunManifest m;
  m.file = p.filename().string();
  m.count = fin.count;
  m.fence = std::move(fin.fence);
  return m;
}

void JobJournal::remove_files(const std::filesystem::path& dir,
                              std::uint64_t job_id) {
  std::error_code ec;
  const std::string stem = "job-" + std::to_string(job_id);
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == stem + ".wal" ||
        (name.rfind(stem + "-ckpt-", 0) == 0 &&
         name.size() > 4 && name.substr(name.size() - 4) == ".run")) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

std::optional<RecoveredJob> recover_job(const std::filesystem::path& dir,
                                        std::uint64_t job_id,
                                        const Progress& progress) {
  const std::filesystem::path p = wal_path(dir, job_id);
  errno = 0;
  std::FILE* f = std::fopen(p.c_str(), "rb");
  if (f == nullptr) return std::nullopt;

  RecoveredJob out;
  out.job_id = job_id;
  bool saw_submitted = false;
  std::set<std::uint64_t> submitted_ids;
  // Only the newest checkpoint's frontier is ever used: keep its payload
  // and decode the frontier once, at the end.
  std::vector<std::byte> last_checkpoint;

  for (std::uint64_t records = 1;; ++records) {
    if (progress && records % 8 == 0) progress();
    std::array<std::byte, kCrcFrameHeaderBytes> header;
    const std::size_t got = std::fread(header.data(), 1, header.size(), f);
    if (got != header.size()) break;  // clean end or torn header: stop
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    try {
      const auto parsed =
          parse_crc_frame_header(header, kJournalMagic, kMaxFramePayload);
      len = parsed.first;
      crc = parsed.second;
    } catch (const SerializationError&) {
      break;  // garbled header: treat as torn tail
    }
    std::vector<std::byte> payload(len);
    if (len > 0 && std::fread(payload.data(), 1, len, f) != len) {
      break;  // payload torn mid-frame
    }
    try {
      check_crc_payload(payload, crc);
    } catch (const SerializationError&) {
      break;  // CRC mismatch: torn tail
    }
    // A whole, CRC-valid record that does not decode was written by
    // another WAL version or is corrupt: refuse to guess.
    JournalRecord rec;
    try {
      BinaryReader r(payload);
      decode_record(r, rec, /*with_frontier=*/false);
    } catch (const SerializationError& e) {
      std::fclose(f);
      throw SerializationError("journal: job " + std::to_string(job_id) +
                               ": " + e.what());
    }

    switch (rec.type) {
      case JournalRecordType::kSubmitted:
        if (!submitted_ids.insert(rec.request_id).second || saw_submitted) {
          std::fclose(f);
          throw SerializationError(
              "journal: duplicate kSubmitted for request " +
              std::to_string(rec.request_id) + " in job " +
              std::to_string(job_id) + " — idempotency ledger violated");
        }
        saw_submitted = true;
        out.request_id = rec.request_id;
        out.spec = rec.spec;
        break;
      case JournalRecordType::kAttemptStarted:
        ++out.attempts;
        break;
      case JournalRecordType::kCheckpoint:
        out.visited_runs.push_back(rec.visited);
        for (mc::SysViolation& v : rec.violations) {
          out.violations.push_back(std::move(v));
        }
        last_checkpoint = std::move(payload);
        ++out.checkpoints;
        break;
      case JournalRecordType::kCompleted:
        out.result = std::move(rec.result);
        break;
      case JournalRecordType::kCancelled:
        out.cancelled = true;
        break;
    }
  }
  std::fclose(f);
  if (!saw_submitted) return std::nullopt;
  if (!last_checkpoint.empty()) {
    JournalRecord& ck = out.last_checkpoint.emplace();
    try {
      BinaryReader r(last_checkpoint);
      decode_record(r, ck, /*with_frontier=*/true);
    } catch (const SerializationError& e) {
      throw SerializationError("journal: job " + std::to_string(job_id) +
                               ": " + e.what());
    }
    ck.violations.clear();  // folded into out.violations already
  }
  return out;
}

namespace {

/// Append `key` to a merged set, rejecting anything not strictly above the
/// previous key: an unsorted run or two overlapping deltas.
void append_strict(std::vector<std::uint64_t>& out, std::uint64_t key) {
  if (!out.empty() && key <= out.back()) {
    throw SerializationError(
        "journal: checkpoint delta runs are unsorted or overlap");
  }
  out.push_back(key);
}

/// k-way merge of up to kMergeFanIn runs, streamed in chunks.
std::vector<std::uint64_t> merge_batch(const std::filesystem::path& dir,
                                       const RunManifest* runs,
                                       std::size_t n) {
  constexpr std::size_t kChunk = 4096;
  struct Cursor {
    std::unique_ptr<SortedRunReader> reader;
    std::vector<std::uint64_t> buf;
    std::size_t pos = 0;
  };
  std::vector<Cursor> cur(n);
  std::uint64_t total = 0;
  // Min-heap of (head key, cursor index).
  std::vector<std::pair<std::uint64_t, std::size_t>> heap;
  for (std::size_t i = 0; i < n; ++i) {
    cur[i].reader =
        std::make_unique<SortedRunReader>(dir / runs[i].file, runs[i].fence);
    total += cur[i].reader->count();
    if (cur[i].reader->next_chunk(cur[i].buf, kChunk)) {
      heap.emplace_back(cur[i].buf[0], i);
    }
  }
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(total));
  const auto greater = [](const auto& a, const auto& b) { return a > b; };
  std::make_heap(heap.begin(), heap.end(), greater);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const std::size_t i = heap.back().second;
    heap.pop_back();
    Cursor& c = cur[i];
    append_strict(out, c.buf[c.pos]);
    if (++c.pos == c.buf.size()) {
      c.pos = 0;
      if (!c.reader->next_chunk(c.buf, kChunk)) continue;
    }
    heap.emplace_back(c.buf[c.pos], i);
    std::push_heap(heap.begin(), heap.end(), greater);
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> merge_visited_runs(
    const std::filesystem::path& dir, const std::vector<RunManifest>& runs,
    const Progress& progress) {
  std::vector<std::uint64_t> acc;
  for (std::size_t b = 0; b < runs.size(); b += kMergeFanIn) {
    if (progress) progress();
    std::vector<std::uint64_t> batch = merge_batch(
        dir, runs.data() + b, std::min(kMergeFanIn, runs.size() - b));
    if (acc.empty()) {
      acc = std::move(batch);
      continue;
    }
    std::vector<std::uint64_t> out;
    out.reserve(acc.size() + batch.size());
    auto x = acc.begin();
    auto y = batch.begin();
    while (x != acc.end() || y != batch.end()) {
      if (y == batch.end() || (x != acc.end() && *x < *y)) {
        append_strict(out, *x++);
      } else {
        append_strict(out, *y++);
      }
    }
    acc = std::move(out);
  }
  return acc;
}

std::vector<std::uint64_t> list_journaled_jobs(
    const std::filesystem::path& dir) {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("job-", 0) == 0 &&
        name.size() > 8 && name.substr(name.size() - 4) == ".wal") {
      try {
        out.push_back(std::stoull(name.substr(4, name.size() - 8)));
      } catch (const std::exception&) {
        // not ours; skip
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fixd::svc
