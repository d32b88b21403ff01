// Sample summaries for the benchmark's timings.
//
// The reporting rule: a timing is a median plus the highest percentile that
// has at least ten samples beyond it, always with the sample count, so a
// tail figure never rests on one or two outliers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even n); 0 for no samples.
double median(std::vector<double> v);

/// Nearest-rank percentile q in (0, 1]: the value at 1-based rank ceil(q*n)
/// of the sorted samples.
double percentile(std::vector<double> v, double q);

/// The tail figure the reporting rule allows for n samples: the highest of
/// p99.9, p99, p90, p75 and p50 with at least ten samples ranked above it.
/// `q` is 0 when even the median has fewer than ten samples beyond it.
struct Tail {
  double q = 0;
  double value = 0;
  std::string label() const;  ///< "p99", "p90", ... or "none"
};
Tail highest_supported_tail(const std::vector<double>& v);

/// Samples ranked strictly above the nearest-rank percentile q.
std::size_t samples_beyond(std::size_t n, double q);

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  Tail tail;
};
Summary summarize(const std::vector<double>& v);

/// Failed operations over attempted ones. An operation that was refused or
/// failed counts once here and is missing from every latency sample.
class OpLedger {
 public:
  void ok() { ++attempted_; }
  void fail() {
    ++attempted_;
    ++failed_;
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double error_rate() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
