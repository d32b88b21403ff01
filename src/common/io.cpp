#include "common/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <random>
#include <system_error>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace fixd {

namespace fs = std::filesystem;

namespace io_testing {

namespace {
// -1 = disarmed; 0 = fail the next checked write; n > 0 = fail after n more.
std::atomic<int> g_fail_countdown{-1};
}  // namespace

void fail_after_writes(int n) { g_fail_countdown.store(n); }

bool consume_write_fault() {
  int cur = g_fail_countdown.load(std::memory_order_relaxed);
  while (cur >= 0) {
    if (g_fail_countdown.compare_exchange_weak(cur, cur - 1)) {
      if (cur == 0) return true;  // this write fails; injector disarms
      return false;
    }
  }
  return false;
}

}  // namespace io_testing

namespace io_detail {

void checked_fwrite(const void* data, std::size_t n, std::FILE* f,
                    const std::filesystem::path& path, const char* what) {
  if (io_testing::consume_write_fault()) {
    throw IoError(std::string(what) + ": injected write failure for " +
                      path.string(),
                  ENOSPC);
  }
  errno = 0;
  if (std::fwrite(data, 1, n, f) != n) {
    throw IoError(std::string(what) + ": short write to " + path.string(),
                  errno);
  }
}

void flush_and_sync(std::FILE* f, const std::filesystem::path& path) {
  errno = 0;
  if (std::fflush(f) != 0) {
    throw IoError("flush failed for " + path.string(), errno);
  }
  errno = 0;
  if (::fsync(fileno(f)) != 0) {
    throw IoError("fsync failed for " + path.string(), errno);
  }
}

void sync_dir(const std::filesystem::path& dir) {
  errno = 0;
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw IoError("open directory " + dir.string(), errno);
  errno = 0;
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) throw IoError("fsync failed for directory " + dir.string(), err);
}

}  // namespace io_detail

namespace {

constexpr std::uint32_t kRunMagic = 0x50535846;  // "FXSP" little-endian
constexpr std::uint32_t kRunVersion = 1;
constexpr std::uint64_t kRunHeaderBytes = 16;  // magic u32 + version u32 + count u64

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// ScratchDir

ScratchDir ScratchDir::create(const fs::path& parent, std::string_view prefix) {
  std::error_code ec;
  fs::path base = parent.empty() ? fs::temp_directory_path(ec) : parent;
  if (ec) throw IoError("ScratchDir: no usable temp directory", ec.value());
  fs::create_directories(base, ec);  // ok if it already exists
  std::random_device rd;
  std::uint64_t nonce = (std::uint64_t(rd()) << 32) ^ rd();
  for (int attempt = 0; attempt < 16; ++attempt, ++nonce) {
    fs::path candidate =
        base / (std::string(prefix) + "-" + hex64(nonce * 0x9e3779b97f4a7c15ULL));
    ec.clear();
    if (fs::create_directory(candidate, ec) && !ec) {
      ScratchDir d;
      d.path_ = std::move(candidate);
      return d;
    }
  }
  throw IoError("ScratchDir: could not create a unique directory under " +
                base.string());
}

ScratchDir& ScratchDir::operator=(ScratchDir&& other) noexcept {
  if (this != &other) {
    remove_now();
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

void ScratchDir::remove_now() noexcept {
  if (path_.empty()) return;
  std::error_code ec;
  fs::remove_all(path_, ec);  // best effort: never throw on a cleanup path
  path_.clear();
}

// ---------------------------------------------------------------------------
// SortedRunWriter

SortedRunWriter::SortedRunWriter(fs::path final_path)
    : final_(std::move(final_path)) {
  tmp_ = final_;
  tmp_ += ".tmp";
  errno = 0;
  f_ = std::fopen(tmp_.string().c_str(), "wb");
  if (f_ == nullptr) {
    throw IoError("SortedRunWriter: cannot open " + tmp_.string(), errno);
  }
  // Placeholder header; finish() rewrites it with the real count.
  BinaryWriter w;
  w.write_u32(kRunMagic);
  w.write_u32(kRunVersion);
  w.write_u64(0);
  try {
    io_detail::checked_fwrite(w.bytes().data(), w.bytes().size(), f_, tmp_,
                              "SortedRunWriter header");
  } catch (...) {
    std::fclose(f_);
    f_ = nullptr;
    throw;
  }
}

SortedRunWriter::~SortedRunWriter() {
  if (f_ != nullptr) {  // finish() never ran: abandon the temp file
    std::fclose(f_);
    std::error_code ec;
    fs::remove(tmp_, ec);
  }
}

void SortedRunWriter::append(const std::uint64_t* keys, std::size_t n) {
  FIXD_CHECK(f_ != nullptr);
  if (n == 0) return;
  BinaryWriter w;
  w.reserve(n * 8);
  for (std::size_t i = 0; i < n; ++i) {
    FIXD_CHECK_MSG(count_ == 0 || keys[i] > last_,
                   "SortedRunWriter: keys must be strictly increasing");
    if (count_ % kSortedRunFenceStride == 0) fence_.push_back(keys[i]);
    w.write_u64(keys[i]);
    last_ = keys[i];
    ++count_;
  }
  io_detail::checked_fwrite(w.bytes().data(), w.bytes().size(), f_, tmp_,
                            "SortedRunWriter append");
}

SortedRunWriter::Finished SortedRunWriter::finish(bool durable) {
  FIXD_CHECK(f_ != nullptr);
  BinaryWriter w;
  w.write_u32(kRunMagic);
  w.write_u32(kRunVersion);
  w.write_u64(count_);
  try {
    errno = 0;
    if (std::fseek(f_, 0, SEEK_SET) != 0) {
      throw IoError("SortedRunWriter: seek failed for " + tmp_.string(),
                    errno);
    }
    io_detail::checked_fwrite(w.bytes().data(), w.bytes().size(), f_, tmp_,
                              "SortedRunWriter finish");
    if (durable) {
      io_detail::flush_and_sync(f_, tmp_);
    } else {
      errno = 0;
      if (std::fflush(f_) != 0) {
        throw IoError("SortedRunWriter: flush failed for " + tmp_.string(),
                      errno);
      }
    }
  } catch (...) {
    std::fclose(f_);
    f_ = nullptr;
    std::error_code rm;
    fs::remove(tmp_, rm);
    throw;
  }
  std::fclose(f_);
  f_ = nullptr;
  std::error_code ec;
  fs::rename(tmp_, final_, ec);
  if (ec) {
    std::error_code rm;
    fs::remove(tmp_, rm);
    throw IoError("SortedRunWriter: rename to " + final_.string() + " failed",
                  ec.value());
  }
  if (durable) io_detail::sync_dir(final_.parent_path());
  Finished out;
  out.count = count_;
  out.file_bytes = kRunHeaderBytes + count_ * 8;
  out.fence = std::move(fence_);
  return out;
}

// ---------------------------------------------------------------------------
// SortedRunReader

SortedRunReader::SortedRunReader(fs::path path, std::vector<std::uint64_t> fence)
    : path_(std::move(path)), fence_(std::move(fence)) {
  errno = 0;
  f_ = std::fopen(path_.string().c_str(), "rb");
  if (f_ == nullptr) {
    throw IoError("SortedRunReader: cannot open " + path_.string(), errno);
  }
  std::byte hdr[kRunHeaderBytes];
  if (std::fread(hdr, 1, sizeof(hdr), f_) != sizeof(hdr)) {
    std::fclose(f_);
    f_ = nullptr;
    throw SerializationError("SortedRunReader: truncated header in " +
                             path_.string());
  }
  BinaryReader r({hdr, sizeof(hdr)});
  std::uint32_t magic = r.read_u32();
  std::uint32_t version = r.read_u32();
  count_ = r.read_u64();
  if (magic != kRunMagic || version != kRunVersion) {
    std::fclose(f_);
    f_ = nullptr;
    throw SerializationError("SortedRunReader: bad magic/version in " +
                             path_.string());
  }
  // A count no file could hold is as malformed as a short file; checking
  // it first keeps count_ * 8 from overflowing.
  std::error_code ec;
  const std::uint64_t on_disk = fs::file_size(path_, ec);
  if (ec || count_ > (on_disk - kRunHeaderBytes) / 8 ||
      on_disk != kRunHeaderBytes + count_ * 8) {
    std::fclose(f_);
    f_ = nullptr;
    throw SerializationError("SortedRunReader: size does not match the "
                             "header count in " + path_.string());
  }
  file_bytes_ = on_disk;
  std::size_t want_fence =
      (count_ + kSortedRunFenceStride - 1) / kSortedRunFenceStride;
  if (fence_.size() != want_fence) {
    std::fclose(f_);
    f_ = nullptr;
    throw SerializationError("SortedRunReader: fence/count mismatch in " +
                             path_.string());
  }
}

SortedRunReader::~SortedRunReader() {
  if (f_ != nullptr) std::fclose(f_);
}

void SortedRunReader::read_block(std::uint64_t first_entry, std::size_t n,
                                 std::vector<std::uint64_t>& out) {
  out.resize(n);
  std::vector<std::byte> raw(n * 8);
  bool ok = std::fseek(f_, static_cast<long>(kRunHeaderBytes + first_entry * 8),
                       SEEK_SET) == 0 &&
            std::fread(raw.data(), 1, raw.size(), f_) == raw.size();
  if (!ok) throw IoError("SortedRunReader: block read failed in " + path_.string());
  BinaryReader r({raw.data(), raw.size()});
  for (std::size_t i = 0; i < n; ++i) out[i] = r.read_u64();
}

bool SortedRunReader::contains(std::uint64_t key) {
  if (count_ == 0 || fence_.empty() || key < fence_.front()) return false;
  // Last fence entry <= key owns the block that could contain it.
  auto it = std::upper_bound(fence_.begin(), fence_.end(), key);
  std::size_t block = static_cast<std::size_t>(it - fence_.begin()) - 1;
  std::uint64_t first = std::uint64_t(block) * kSortedRunFenceStride;
  std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(kSortedRunFenceStride, count_ - first));
  read_block(first, n, block_);
  return std::binary_search(block_.begin(), block_.end(), key);
}

void SortedRunReader::seek_start() { cursor_ = 0; }

bool SortedRunReader::next_chunk(std::vector<std::uint64_t>& out,
                                 std::size_t max) {
  out.clear();
  if (cursor_ >= count_ || max == 0) return false;
  std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(max, count_ - cursor_));
  read_block(cursor_, n, out);
  cursor_ += n;
  return true;
}

std::vector<std::uint64_t> SortedRunReader::read_all() {
  std::vector<std::uint64_t> all, chunk;
  all.reserve(static_cast<std::size_t>(count_));
  seek_start();
  while (next_chunk(chunk, 1 << 14)) all.insert(all.end(), chunk.begin(), chunk.end());
  return all;
}

}  // namespace fixd
