#include "src/anomaly/rtt_sketch.h"

#include <algorithm>

namespace detector {

namespace {

// 1-based rank of the q-quantile sample among `total` > 0 samples: ceil(q * total), clamped
// to [1, total].
int64_t QuantileRank(int64_t total, double q) {
  const double clamped = std::clamp(q, 0.0, 1.0);
  int64_t rank = static_cast<int64_t>(clamped * static_cast<double>(total));
  if (static_cast<double>(rank) < clamped * static_cast<double>(total)) ++rank;
  return std::clamp<int64_t>(rank, 1, total);
}

}  // namespace

int64_t RttSketch::Quantile(double q) const {
  if (total_ <= 0) return 0;
  const int64_t rank = QuantileRank(total_, q);
  int64_t cumulative = 0;
  for (size_t bin = 0; bin < counts_.size(); ++bin) {
    cumulative += counts_[bin];
    if (cumulative >= rank) return BinLowerUs(static_cast<int>(bin));
  }
  return BinLowerUs(num_bins() - 1);
}

int64_t RttSketch::SparseQuantile(int64_t total, int num_bins,
                                  std::span<const RttBinCount> bins, double q) {
  if (total <= 0) return 0;
  // The dense scan's cumulative count only moves at non-zero bins, so the first bin where it
  // reaches the rank is one of the pairs.
  const int64_t rank = QuantileRank(total, q);
  int64_t cumulative = 0;
  for (const RttBinCount& entry : bins) {
    cumulative += entry.count;
    if (cumulative >= rank) return BinLowerUs(entry.bin);
  }
  return BinLowerUs(num_bins - 1);
}

}  // namespace detector
