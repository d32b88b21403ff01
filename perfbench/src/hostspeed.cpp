#include "hostspeed.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t reference_work() {
  constexpr int kSteps = 60000;
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> blocks;
  std::map<std::uint64_t, std::uint64_t> counts;
  std::uint64_t h = 1;
  std::uint64_t sum = 0;
  for (int i = 0; i < kSteps; ++i) {
    h = splitmix(h);
    seen.insert(h >> 3);
    if (i % 8 == 0) {
      auto b = std::make_unique<std::vector<std::uint8_t>>(
          384, static_cast<std::uint8_t>(h));
      sum += (*b)[h % 384];
      blocks.push_back(std::move(b));
      if (blocks.size() > 512) blocks.erase(blocks.begin(), blocks.begin() + 256);
    }
    if (i % 16 == 0) counts[h % 4096] += static_cast<std::uint64_t>(i);
  }
  return sum + seen.size() + counts.size();
}

double syscall_reference_ms(const std::filesystem::path& dir) {
  const auto t0 = Clock::now();
  for (int i = 0; i < 4; ++i) {
    const std::filesystem::path d = dir / std::to_string(i);
    std::filesystem::create_directories(d / "x");
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("syscall reference: socketpair failed");
    }
    std::thread writer([&sv] {
      const char c = 1;
      (void)!::write(sv[0], &c, 1);
    });
    char c = 0;
    (void)!::read(sv[1], &c, 1);
    writer.join();
    ::close(sv[0]);
    ::close(sv[1]);
    std::filesystem::remove_all(d);
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double HostSpeed::sample() {
  std::vector<double> runs;
  for (int i = 0; i < kRunsPerSample; ++i) {
    const auto t0 = Clock::now();
    checksum_ += reference_work();
    last_ = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(last_ - t0).count();
    samples_ms_.push_back(ms);
    runs.push_back(ms);
    spent_s_ += ms / 1e3;
  }
  return median(runs);
}

void HostSpeed::maybe_sample() {
  if (samples_ms_.empty() ||
      std::chrono::duration<double, std::milli>(Clock::now() - last_)
              .count() >= kGapMs) {
    sample();
  }
}

double HostSpeed::median_ms() const {
  return samples_ms_.empty() ? kNominalMs : median(samples_ms_);
}

}  // namespace perfbench
