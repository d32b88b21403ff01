#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {
std::size_t rank_of(std::size_t n, double q) {
  // Guard against 0.9 * 100 evaluating to 90.00000000000001.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}
}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[rank_of(v.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

std::string Tail::label() const {
  if (q == 0) return "none";
  if (q == 0.999) return "p99.9";
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%d", static_cast<int>(std::lround(q * 100)));
  return buf;
}

Tail highest_supported_tail(const std::vector<double>& v) {
  for (const double q : {0.999, 0.99, 0.90, 0.75, 0.50}) {
    if (samples_beyond(v.size(), q) >= 10) return {q, percentile(v, q)};
  }
  return {};
}

Summary summarize(const std::vector<double>& v) {
  return {v.size(), median(v), highest_supported_tail(v)};
}

}  // namespace perfbench
