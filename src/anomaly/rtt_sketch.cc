#include "src/anomaly/rtt_sketch.h"

#include <algorithm>

namespace detector {

namespace {

// Lower bound of the bin holding the q-quantile sample of a sketch with `total` samples over
// `num_bins` bins whose counts `count_at(bin)` yields; 0 when total <= 0.
template <typename CountAt>
int64_t QuantileOf(int64_t total, int num_bins, double q, CountAt count_at) {
  if (total <= 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile sample, 1-based: ceil(q * total), at least 1.
  int64_t rank = static_cast<int64_t>(clamped * static_cast<double>(total));
  if (static_cast<double>(rank) < clamped * static_cast<double>(total)) ++rank;
  rank = std::clamp<int64_t>(rank, 1, total);
  int64_t cumulative = 0;
  for (int bin = 0; bin < num_bins; ++bin) {
    cumulative += count_at(static_cast<size_t>(bin));
    if (cumulative >= rank) return RttSketch::BinLowerUs(bin);
  }
  return RttSketch::BinLowerUs(num_bins - 1);
}

}  // namespace

int64_t RttSketch::Quantile(double q) const {
  return QuantileOf(total_, num_bins(), q, [&](size_t bin) { return counts_[bin]; });
}

int64_t RttSketch::DifferenceQuantile(const RttSketch& minuend, const RttSketch& subtrahend,
                                      double q) {
  CHECK(Mergeable(minuend, subtrahend))
      << "merging sketches with different bin counts: " << minuend.num_bins() << " vs "
      << subtrahend.num_bins();
  // An empty side contributes zeros; the difference takes the other side's bin count.
  auto at = [](const RttSketch& s, size_t bin) { return s.empty() ? 0 : s.counts_[bin]; };
  return QuantileOf(minuend.total_ - subtrahend.total_,
                    minuend.empty() ? subtrahend.num_bins() : minuend.num_bins(), q,
                    [&](size_t bin) { return at(minuend, bin) - at(subtrahend, bin); });
}

}  // namespace detector
