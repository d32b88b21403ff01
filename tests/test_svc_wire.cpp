// Serialization and framing properties for the service layer:
//   * CRC-32 known-answer + chaining
//   * CRC frame round-trip, torn-tail and corruption detection
//   * encode(decode(x)) == x property round-trips for every wire type and
//     the explorer types they embed (ExploreStats, Trail, SysViolation)
//   * IO fault injection surfaces as typed IoError (the ScratchDir /
//     SortedRunWriter hardening regression)
//   * hostile journal checkpoint input — malformed front-coded frontiers,
//     truncated / unsorted / overlapping delta runs, other WAL versions —
//     raises SerializationError or IoError, never UB
//   * fault-shim and retry-backoff determinism
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <random>

#include "common/hash.hpp"
#include "common/io.hpp"
#include "common/serialize.hpp"
#include "svc/client.hpp"
#include "svc/journal.hpp"
#include "svc/transport.hpp"
#include "svc/wire.hpp"

namespace fixd {
namespace {

using svc::JobResultMsg;
using svc::JobSpec;
using svc::JobStatusMsg;
using svc::Request;
using svc::Response;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

TEST(Crc32, KnownAnswer) {
  // The IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  const auto bytes = std::as_bytes(std::span(s, 9));
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, ChainingMatchesOneShot) {
  std::vector<std::byte> data(1000);
  std::mt19937_64 rng(7);
  for (auto& b : data) b = static_cast<std::byte>(rng() & 0xff);
  const std::uint32_t oneshot = crc32(data);
  const std::span<const std::byte> all(data);
  std::uint32_t chained = crc32(all.subspan(0, 137));
  chained = crc32(all.subspan(137), chained);
  EXPECT_EQ(chained, oneshot);
}

// ---------------------------------------------------------------------------
// CRC frames
// ---------------------------------------------------------------------------

TEST(CrcFrame, RoundTrip) {
  BinaryWriter payload;
  payload.write_string("hello frames");
  payload.write_u64(0xdeadbeefull);

  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());

  BinaryReader r(framed.bytes());
  const std::vector<std::byte> out =
      read_crc_frame(r, svc::kWireMagic, svc::kMaxFramePayload);
  BinaryReader pr(out);
  EXPECT_EQ(pr.read_string(), "hello frames");
  EXPECT_EQ(pr.read_u64(), 0xdeadbeefull);
}

TEST(CrcFrame, WrongMagicRejected) {
  BinaryWriter payload;
  payload.write_u32(1);
  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());
  BinaryReader r(framed.bytes());
  EXPECT_THROW(read_crc_frame(r, svc::kJournalMagic, svc::kMaxFramePayload),
               SerializationError);
}

TEST(CrcFrame, FlippedPayloadByteRejected) {
  BinaryWriter payload;
  payload.write_string("integrity matters");
  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());
  std::vector<std::byte> bytes = framed.take();
  bytes[kCrcFrameHeaderBytes + 3] ^= std::byte{0x40};
  BinaryReader r(bytes);
  EXPECT_THROW(read_crc_frame(r, svc::kWireMagic, svc::kMaxFramePayload),
               SerializationError);
}

TEST(CrcFrame, OversizedLengthRejected) {
  BinaryWriter payload;
  payload.write_u32(1);
  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());
  BinaryReader r(framed.bytes());
  EXPECT_THROW(read_crc_frame(r, svc::kWireMagic, /*max_payload=*/2),
               SerializationError);
}

TEST(CrcFrame, TornTailDetected) {
  BinaryWriter payload;
  payload.write_string("this frame will be cut short");
  BinaryWriter framed;
  write_crc_frame(framed, svc::kWireMagic, payload.bytes());
  std::vector<std::byte> bytes = framed.take();
  bytes.resize(bytes.size() - 5);  // simulate a crash mid-append
  BinaryReader r(bytes);
  EXPECT_THROW(read_crc_frame(r, svc::kWireMagic, svc::kMaxFramePayload),
               SerializationError);
}

// ---------------------------------------------------------------------------
// Wire type round-trips
// ---------------------------------------------------------------------------

mc::ExploreStats sample_stats(std::uint64_t salt) {
  mc::ExploreStats s;
  s.states = 100 + salt;
  s.transitions = 500 + salt;
  s.duplicates = 40 + salt;
  s.max_depth = 17;
  s.truncated = (salt % 2) == 1;
  s.wall_ms = 12.5;
  s.digest_ms = 3.25;
  s.snapshot_ms = 1.75;
  s.peak_frontier_bytes = 1 << 20;
  s.peak_frontier_bytes_max_worker = 1 << 18;
  s.visited_resident_bytes = 4096;
  s.visited_peak_resident_bytes = 8192;
  s.visited_spilled_bytes = 123;
  s.spilled_bytes = 456;
  s.bloom_fp_rate = 0.01;
  s.anchor_evictions = 2;
  s.anchor_recomputes = 3;
  s.replayed_actions = 99;
  s.workers = 4;
  s.steals = 17;
  s.sleep_reexpansions = 1;
  s.por_deferred = 5;
  s.por_backtracks = 2;
  return s;
}

void expect_stats_eq(const mc::ExploreStats& a, const mc::ExploreStats& b) {
  // Byte-compare through re-encoding: one assertion covers all fields and
  // cannot drift when fields are added (save() must be extended anyway).
  EXPECT_EQ(to_bytes(a), to_bytes(b));
}

mc::Trail sample_trail() {
  mc::Trail t;
  mc::SysAction a;
  a.kind = mc::SysAction::Kind::kRuntime;
  a.event.pid = 2;
  a.event.msg = 77;
  t.steps.push_back(a);
  mc::SysAction b;
  b.kind = mc::SysAction::Kind::kDropMessage;
  b.msg = 123;
  t.steps.push_back(b);
  mc::SysAction c;
  c.kind = mc::SysAction::Kind::kPartitionLinks;
  c.src = 0;
  c.dst = 3;
  t.steps.push_back(c);
  return t;
}

TEST(WireRoundTrip, ExploreStats) {
  const mc::ExploreStats s = sample_stats(3);
  const mc::ExploreStats back = from_bytes<mc::ExploreStats>(to_bytes(s));
  expect_stats_eq(back, s);
}

TEST(WireRoundTrip, TrailAndViolation) {
  mc::SysViolation v;
  v.violation.invariant = "two-pc-agreement";
  v.violation.pid = 1;
  v.violation.detail = "conflicting decisions";
  v.violation.at = 42;
  v.violation.lamport = 9;
  v.violation.step = 33;
  v.trail = sample_trail();
  v.depth = 3;

  const mc::SysViolation back = from_bytes<mc::SysViolation>(to_bytes(v));
  EXPECT_EQ(back.violation.invariant, v.violation.invariant);
  EXPECT_EQ(back.violation.detail, v.violation.detail);
  EXPECT_EQ(back.depth, v.depth);
  ASSERT_EQ(back.trail.steps.size(), v.trail.steps.size());
  EXPECT_EQ(back.trail.render(), v.trail.render());
  EXPECT_EQ(to_bytes(back), to_bytes(v));
}

TEST(WireRoundTrip, TrailBadKindRejected) {
  mc::Trail t = sample_trail();
  std::vector<std::byte> bytes = to_bytes(t);
  // First element's kind tag sits right after the vector length varint.
  bytes[1] = std::byte{0xee};
  EXPECT_THROW(from_bytes<mc::Trail>(bytes), SerializationError);
}

TEST(WireRoundTrip, JobSpec) {
  JobSpec spec;
  spec.scenario = "token-ring";
  spec.n = 5;
  spec.version = 2;
  spec.order = mc::SearchOrder::kDfs;
  spec.trail_frontier = true;
  spec.workers = 4;
  spec.max_states = 123456;
  spec.max_depth = 64;
  spec.max_violations = 7;
  spec.seed = 99;
  spec.model_message_loss = true;
  spec.checkpoint_states = 256;
  const JobSpec back = from_bytes<JobSpec>(to_bytes(spec));
  EXPECT_EQ(to_bytes(back), to_bytes(spec));
  EXPECT_EQ(back.scenario, "token-ring");
  EXPECT_EQ(back.order, mc::SearchOrder::kDfs);
}

TEST(WireRoundTrip, RequestResponseThroughFrames) {
  Request req;
  req.request_id = 0x1122334455667788ull;
  req.deadline_ms = 250;
  req.kind = svc::RpcKind::kSubmit;
  req.spec.scenario = "election";
  req.spec.n = 4;

  const std::vector<std::byte> frame = svc::encode_frame(req);
  BinaryReader r(frame);
  const std::vector<std::byte> payload =
      read_crc_frame(r, svc::kWireMagic, svc::kMaxFramePayload);
  const Request back = svc::decode_payload<Request>(payload);
  EXPECT_EQ(to_bytes(back), to_bytes(req));

  Response rsp;
  rsp.request_id = req.request_id;
  rsp.status = svc::RpcStatus::kOk;
  rsp.job_id = 17;
  rsp.duplicate = true;
  rsp.result.job_id = 17;
  rsp.result.complete = true;
  rsp.result.stats = sample_stats(1);
  rsp.result.visited_count = 1234;
  rsp.result.visited_digest = 0xabcdef;
  rsp.result.trail_digest = 0x123456;
  rsp.log_lines = {"a", "b"};
  const std::vector<std::byte> rframe = svc::encode_frame(rsp);
  BinaryReader rr(rframe);
  const Response rback = svc::decode_payload<Response>(
      read_crc_frame(rr, svc::kWireMagic, svc::kMaxFramePayload));
  EXPECT_EQ(to_bytes(rback), to_bytes(rsp));
}

TEST(WireRoundTrip, BadEnumTagsRejected) {
  Request req;
  req.kind = svc::RpcKind::kPing;
  std::vector<std::byte> payload;
  {
    BinaryWriter w;
    w.write_u32(svc::kWireVersion);
    req.save(w);
    payload = w.take();
  }
  // Corrupt the kind tag (offset: 4B version + 8B request_id + 8B deadline).
  payload[4 + 8 + 8] = std::byte{0xff};
  EXPECT_THROW(svc::decode_payload<Request>(payload), SerializationError);
}

TEST(WireRoundTrip, VersionMismatchRejected) {
  Request req;
  BinaryWriter w;
  w.write_u32(svc::kWireVersion + 7);
  req.save(w);
  EXPECT_THROW(svc::decode_payload<Request>(w.bytes()), SerializationError);
}

// Fuzz-ish: random truncations of a valid payload must throw, never crash
// or return garbage silently.
TEST(WireRoundTrip, TruncationsAlwaysThrow) {
  Response rsp;
  rsp.result.stats = sample_stats(5);
  mc::SysViolation v;
  v.violation = {"inv", 1, "d", 2, 3, 4};
  v.trail = sample_trail();
  v.depth = 3;
  rsp.result.violations.push_back(v);
  rsp.log_lines = {"x", "yy", "zzz"};
  BinaryWriter w;
  w.write_u32(svc::kWireVersion);
  rsp.save(w);
  const std::vector<std::byte> full = w.take();
  std::mt19937_64 rng(11);
  for (int i = 0; i < 64; ++i) {
    const std::size_t cut = rng() % full.size();
    std::vector<std::byte> trunc(full.begin(),
                                 full.begin() + static_cast<long>(cut));
    EXPECT_THROW(svc::decode_payload<Response>(trunc), SerializationError)
        << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------------
// IO fault injection (satellite: ScratchDir / SortedRunWriter hardening)
// ---------------------------------------------------------------------------

TEST(IoFaults, InjectedWriteFailureIsTypedIoError) {
  ScratchDir dir = ScratchDir::create("", "fixd-iofault");
  const auto path = dir.path() / "run.bin";
  std::vector<std::uint64_t> keys(2048);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i * 3 + 1;

  // Countdown semantics: 2 more writes succeed (header + key payload),
  // then the third — finish()'s header patch — fails as ENOSPC.
  io_testing::fail_after_writes(2);
  try {
    SortedRunWriter w(path);
    w.append(keys.data(), keys.size());
    w.finish();
    FAIL() << "expected IoError from injected write fault";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
  io_testing::fail_after_writes(-1);
  // The failed writer must not leave a finished file behind.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(IoFaults, DisarmedInjectorWritesFine) {
  io_testing::fail_after_writes(-1);
  ScratchDir dir = ScratchDir::create("", "fixd-iook");
  const auto path = dir.path() / "run.bin";
  std::vector<std::uint64_t> keys = {1, 5, 9, 12};
  SortedRunWriter w(path);
  w.append(keys.data(), keys.size());
  const SortedRunWriter::Finished fin = w.finish();
  EXPECT_EQ(fin.count, 4u);
  SortedRunReader r(path, fin.fence);
  EXPECT_EQ(r.read_all(), keys);
}

// ---------------------------------------------------------------------------
// Journal checkpoint records and delta runs under hostile input
// ---------------------------------------------------------------------------

/// A checkpoint record's payload up to (not including) its frontier, in
/// the kJournalVersion layout.
BinaryWriter checkpoint_head(std::uint32_t version = svc::kJournalVersion) {
  BinaryWriter w;
  w.write_u32(version);
  w.write_u8(static_cast<std::uint8_t>(svc::JournalRecordType::kCheckpoint));
  w.write_u64(0);                 // checkpoint_seq
  svc::RunManifest{}.save(w);     // visited delta
  sample_stats(1).save(w);        // stats
  w.write_varint(0);              // no new violations
  return w;
}

svc::JournalRecord decode_record(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  svc::JournalRecord rec;
  rec.load(r);
  return rec;
}

/// A WAL holding a valid kSubmitted record followed by `payload` as one
/// CRC-valid frame.
void write_wal(const std::filesystem::path& dir, std::uint64_t job_id,
               std::span<const std::byte> payload) {
  {
    svc::JobJournal j(dir, job_id);
    svc::JournalRecord sub;
    sub.type = svc::JournalRecordType::kSubmitted;
    sub.request_id = 1;
    sub.job_id = job_id;
    j.append(sub);
  }
  BinaryWriter frame;
  write_crc_frame(frame, svc::kJournalMagic, payload);
  std::ofstream out(dir / ("job-" + std::to_string(job_id) + ".wal"),
                    std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(frame.bytes().data()),
            static_cast<std::streamsize>(frame.bytes().size()));
}

TEST(JournalHostile, FrontCodedFrontierRoundTrips) {
  svc::JournalRecord rec;
  rec.type = svc::JournalRecordType::kCheckpoint;
  rec.checkpoint_seq = 4;
  rec.stats = sample_stats(2);
  const mc::Trail t = sample_trail();
  mc::Trail sibling = t;
  sibling.steps.back().dst = 1;
  mc::Trail longer = sibling;
  longer.steps.push_back(t.steps[0]);
  rec.frontier = {t, sibling, longer, mc::Trail{}, t};
  BinaryWriter w;
  rec.save(w);
  const svc::JournalRecord back = decode_record(w.bytes());
  ASSERT_EQ(back.frontier.size(), rec.frontier.size());
  for (std::size_t i = 0; i < rec.frontier.size(); ++i) {
    EXPECT_EQ(to_bytes(back.frontier[i]), to_bytes(rec.frontier[i])) << i;
  }
  // Every strict prefix of the record is a truncation: always an error.
  const std::vector<std::byte> full = w.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_THROW(decode_record({full.data(), cut}), SerializationError)
        << "cut at " << cut;
  }
}

TEST(JournalHostile, SharedPrefixLongerThanPreviousTrailRejected) {
  // First trail: 3 actions. Second claims to share 4 of them.
  BinaryWriter w = checkpoint_head();
  w.write_varint(2);
  w.write_varint(0);
  w.write_varint(3);
  for (const mc::SysAction& a : sample_trail().steps) a.save(w);
  w.write_varint(4);
  w.write_varint(0);
  EXPECT_THROW(decode_record(w.bytes()), SerializationError);

  // The first trail has no predecessor to share anything with.
  BinaryWriter first = checkpoint_head();
  first.write_varint(1);
  first.write_varint(1);
  first.write_varint(0);
  EXPECT_THROW(decode_record(first.bytes()), SerializationError);

  // A trail count or suffix length no record could hold is refused before
  // anything is allocated.
  BinaryWriter huge = checkpoint_head();
  huge.write_varint(std::uint64_t{1} << 40);
  EXPECT_THROW(decode_record(huge.bytes()), SerializationError);
  BinaryWriter long_suffix = checkpoint_head();
  long_suffix.write_varint(1);
  long_suffix.write_varint(0);
  long_suffix.write_varint(std::uint64_t{1} << 40);
  EXPECT_THROW(decode_record(long_suffix.bytes()), SerializationError);

  // Through recovery: the newest checkpoint's frontier is decoded there.
  ScratchDir dir = ScratchDir::create("", "fixd-frontcode");
  write_wal(dir.path(), 5, w.bytes());
  EXPECT_THROW(svc::recover_job(dir.path(), 5), SerializationError);
}

TEST(JournalHostile, OldWalVersionRejected) {
  // A checkpoint record of the previous WAL version: refused on decode and
  // at recovery (not mistaken for a torn tail and silently dropped).
  BinaryWriter old = checkpoint_head(svc::kJournalVersion - 1);
  old.write_varint(0);  // empty frontier
  EXPECT_THROW(decode_record(old.bytes()), SerializationError);
  ScratchDir dir = ScratchDir::create("", "fixd-oldwal");
  write_wal(dir.path(), 6, old.bytes());
  EXPECT_THROW(svc::recover_job(dir.path(), 6), SerializationError);

  // Version-1 records carried no version at all; their first bytes never
  // read as the current one.
  BinaryWriter v1;
  v1.write_u8(static_cast<std::uint8_t>(svc::JournalRecordType::kSubmitted));
  v1.write_u64(77);
  v1.write_u64(7);
  EXPECT_THROW(decode_record(v1.bytes()), SerializationError);
}

TEST(JournalHostile, TruncatedDeltaRunRejected) {
  ScratchDir dir = ScratchDir::create("", "fixd-truncrun");
  svc::JobJournal j(dir.path(), 1);
  std::vector<std::uint64_t> keys(1500);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i + 1;
  const svc::RunManifest m = j.write_visited_run(0, keys);
  const auto path = dir.path() / m.file;
  const auto size = std::filesystem::file_size(path);
  for (const std::uintmax_t keep : {size - 8, size / 2, std::uintmax_t{20},
                                    std::uintmax_t{5}, std::uintmax_t{0}}) {
    std::filesystem::resize_file(path, keep);
    EXPECT_THROW(svc::merge_visited_runs(dir.path(), {m}), SerializationError)
        << "kept " << keep << " bytes";
  }
  std::filesystem::remove(path);
  EXPECT_THROW(svc::merge_visited_runs(dir.path(), {m}), IoError);
}

TEST(JournalHostile, UnsortedOrOverlappingDeltaRunsRejected) {
  ScratchDir dir = ScratchDir::create("", "fixd-badruns");
  svc::JobJournal j(dir.path(), 1);
  // Disjoint deltas merge into their sorted union, across fan-in batches.
  std::vector<svc::RunManifest> ok;
  std::vector<std::uint64_t> want;
  for (std::uint64_t r = 0; r < svc::kMergeFanIn + 6; ++r) {
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < 40; ++k) keys.push_back(k * 1000 + r);
    want.insert(want.end(), keys.begin(), keys.end());
    ok.push_back(j.write_visited_run(r, keys));
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(svc::merge_visited_runs(dir.path(), ok), want);

  // Overlap within one batch and across batches.
  const svc::RunManifest a = j.write_visited_run(100, {1, 5, 9});
  const svc::RunManifest b = j.write_visited_run(101, {5, 7});
  EXPECT_THROW(svc::merge_visited_runs(dir.path(), {a, b}),
               SerializationError);
  std::vector<svc::RunManifest> across = ok;
  across.push_back(j.write_visited_run(102, {want[3]}));
  EXPECT_THROW(svc::merge_visited_runs(dir.path(), across),
               SerializationError);

  // A run whose keys were reordered on disk (same size, valid header).
  const svc::RunManifest c = j.write_visited_run(103, {10, 20, 30});
  {
    std::fstream f(dir.path() / c.file,
                   std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t swapped[2] = {30, 20};
    f.seekp(16 + 8);
    f.write(reinterpret_cast<const char*>(swapped), sizeof(swapped));
  }
  EXPECT_THROW(svc::merge_visited_runs(dir.path(), {c}), SerializationError);
}

// ---------------------------------------------------------------------------
// Fault shim + backoff determinism
// ---------------------------------------------------------------------------

TEST(FaultShim, ParseAndValidate) {
  const auto spec =
      svc::FaultShimSpec::parse("drop=0.25,sever=0.1,delay=0.2:15,seed=9");
  EXPECT_DOUBLE_EQ(spec.drop, 0.25);
  EXPECT_DOUBLE_EQ(spec.sever, 0.1);
  EXPECT_DOUBLE_EQ(spec.delay, 0.2);
  EXPECT_EQ(spec.delay_ms, 15u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_TRUE(spec.enabled());
  EXPECT_FALSE(svc::FaultShimSpec::parse("").enabled());
  EXPECT_THROW(svc::FaultShimSpec::parse("drop=2"), ConfigError);
  EXPECT_THROW(svc::FaultShimSpec::parse("drop=0.6,sever=0.6"), ConfigError);
  EXPECT_THROW(svc::FaultShimSpec::parse("nonsense"), ConfigError);
}

TEST(FaultShim, DeterministicPerSeed) {
  auto spec = svc::FaultShimSpec::parse("drop=0.3,sever=0.2,delay=0.2:5,seed=4");
  svc::FaultShim a(spec), b(spec);
  std::vector<svc::FaultVerdict> va, vb;
  for (int i = 0; i < 200; ++i) {
    va.push_back(a.next());
    vb.push_back(b.next());
  }
  EXPECT_EQ(va, vb);
  // All verdict kinds should actually occur at these rates over 200 draws.
  EXPECT_NE(std::count(va.begin(), va.end(), svc::FaultVerdict::kDrop), 0);
  EXPECT_NE(std::count(va.begin(), va.end(), svc::FaultVerdict::kSever), 0);
  EXPECT_NE(std::count(va.begin(), va.end(), svc::FaultVerdict::kDelay), 0);
  EXPECT_NE(std::count(va.begin(), va.end(), svc::FaultVerdict::kNone), 0);

  spec.seed = 5;
  svc::FaultShim c(spec);
  std::vector<svc::FaultVerdict> vc;
  for (int i = 0; i < 200; ++i) vc.push_back(c.next());
  EXPECT_NE(vc, va) << "different seeds should give different schedules";
}

TEST(Backoff, DeterministicJitteredExponential) {
  svc::RetryPolicy p;
  p.base_backoff_ms = 10;
  p.max_backoff_ms = 100;
  p.jitter_seed = 3;
  EXPECT_EQ(svc::backoff_ms(p, 1), 0u) << "first attempt is immediate";
  for (std::uint32_t attempt = 2; attempt <= 6; ++attempt) {
    const std::uint64_t w1 = svc::backoff_ms(p, attempt);
    const std::uint64_t w2 = svc::backoff_ms(p, attempt);
    EXPECT_EQ(w1, w2) << "same (seed, attempt) must give the same wait";
    // Jitter keeps the wait within [0.5, 1.5) of the capped exponential.
    const std::uint64_t base =
        std::min<std::uint64_t>(100, 10ull << (attempt - 2));
    EXPECT_GE(w1, base / 2);
    EXPECT_LT(w1, base + base / 2 + 1);
  }
  svc::RetryPolicy q = p;
  q.jitter_seed = 4;
  bool any_diff = false;
  for (std::uint32_t attempt = 2; attempt <= 6; ++attempt) {
    any_diff = any_diff || svc::backoff_ms(q, attempt) != svc::backoff_ms(p, attempt);
  }
  EXPECT_TRUE(any_diff) << "different seeds should decorrelate";
}

TEST(Endpoint, ParseForms) {
  const auto u = svc::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, svc::Endpoint::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.to_string(), "unix:/tmp/x.sock");
  const auto t = svc::Endpoint::parse("tcp:127.0.0.1:8091");
  EXPECT_EQ(t.kind, svc::Endpoint::Kind::kTcp);
  EXPECT_EQ(t.port, 8091);
  EXPECT_THROW(svc::Endpoint::parse("carrier-pigeon:coop"), ConfigError);
  EXPECT_THROW(svc::Endpoint::parse("tcp:nope"), ConfigError);
  EXPECT_THROW(svc::Endpoint::parse("unix:"), ConfigError);
}

// ---------------------------------------------------------------------------
// LogRing (satellite: ring-buffered daemon log sink)
// ---------------------------------------------------------------------------

TEST(LogRing, KeepsTailInOrder) {
  LogRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.append(LogLevel::kInfo, "msg" + std::to_string(i));
  }
  EXPECT_EQ(ring.total(), 10u);
  const auto tail = ring.tail(4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().msg, "msg6");
  EXPECT_EQ(tail.back().msg, "msg9");
  const auto two = ring.tail(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two.front().msg, "msg8");
}

}  // namespace
}  // namespace fixd
