// Deterministic fixed-bin quantile sketch for path RTT samples.
//
// Bins are HDR-style log-linear over integer microseconds: values 0..3 get one
// bin each, then every octave [2^b, 2^(b+1)) splits into 4 sub-bins. The bin
// index is computed with pure integer arithmetic (bit_width + shifts), so the
// sketch is bit-identical on every platform and under any shard/thread split —
// the same discipline as the (sent, lost) counters. Merging is element-wise
// integer addition: commutative, associative, and signed (sign = -1 retracts a
// previously merged sketch, mirroring the watchdog retract/re-add path in the
// ObservationStore).
//
// A default-constructed sketch is *empty* (no bins allocated). Merging into an
// empty sketch adopts the other side's bin count; recording requires explicit
// construction with a bin count. Empty sketches compare unequal to allocated
// all-zero sketches, so producers skip empty sketches entirely (nothing is
// recorded or put on the wire for a path with no RTT samples) to keep direct
// and report-plane folds bit-identical.
//
// Sparse form: a sketch's non-zero bins as (bin, count) pairs plus its bin
// count. The ObservationStore keeps every probe record's sketch this way (one
// record usually holds a single sample), and MergeSparse folds the pairs into a
// dense sketch under exactly Merge's rules.
#ifndef SRC_ANOMALY_RTT_SKETCH_H_
#define SRC_ANOMALY_RTT_SKETCH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/check.h"

namespace detector {

// One non-zero bin of a sketch in sparse form. Counts stay 64-bit: wire-decoded
// counts are peer-supplied and must fold exactly, never truncated.
struct RttBinCount {
  int32_t bin = 0;
  int64_t count = 0;
};

class RttSketch {
 public:
  // 4 sub-bins per octave: ~25% relative quantile error, purely integer mapping.
  static constexpr int kSubBins = 4;
  // 80 bins span [0us, ~2.1s) with 4 sub-bins/octave; larger values clamp into
  // the last bin.
  static constexpr int kDefaultBins = 80;
  static constexpr int kMaxBins = 4096;

  RttSketch() = default;  // empty: no bins, total 0
  explicit RttSketch(int num_bins) : counts_(static_cast<size_t>(num_bins), 0) {
    CHECK(num_bins >= kSubBins && num_bins <= kMaxBins)
        << "rtt sketch bins out of range: " << num_bins;
  }

  // Bin index of an RTT in microseconds (negative values clamp to bin 0,
  // overflow clamps to the last bin).
  static int BinOf(int64_t rtt_us, int num_bins) {
    if (rtt_us < kSubBins) return rtt_us < 0 ? 0 : static_cast<int>(rtt_us);
    const int width = std::bit_width(static_cast<uint64_t>(rtt_us));  // >= 3
    const int shift = width - 3;  // mantissa in [4, 8)
    const int64_t mantissa = rtt_us >> shift;
    const int index = (shift + 1) * kSubBins + static_cast<int>(mantissa) - kSubBins;
    return index < num_bins ? index : num_bins - 1;
  }

  // Inclusive lower bound of a bin in microseconds.
  static int64_t BinLowerUs(int bin) {
    if (bin < kSubBins) return bin;
    const int shift = bin / kSubBins - 1;
    return static_cast<int64_t>(kSubBins + bin % kSubBins) << shift;
  }

  // Exclusive upper bound; the last bin of a num_bins-sketch is unbounded.
  static int64_t BinUpperUs(int bin, int num_bins) {
    if (bin >= num_bins - 1) return INT64_MAX;
    return BinLowerUs(bin + 1);
  }

  bool empty() const { return counts_.empty(); }
  int num_bins() const { return static_cast<int>(counts_.size()); }
  int64_t total() const { return total_; }
  std::span<const int64_t> counts() const { return counts_; }

  void Record(int64_t rtt_us) {
    DCHECK(!counts_.empty()) << "recording into an unallocated sketch";
    counts_[static_cast<size_t>(BinOf(rtt_us, num_bins()))] += 1;
    total_ += 1;
  }

  // Adds (sign = +1) or retracts (sign = -1) every count of `other`. Merging a
  // non-empty sketch into an empty one adopts its bin count; merging an empty
  // sketch is a no-op.
  void Merge(const RttSketch& other, int64_t sign = 1) {
    if (other.counts_.empty()) return;
    AdoptBins(other.num_bins());
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += sign * other.counts_[i];
    total_ += sign * other.total_;
    CancelToEmpty();
  }

  // Merge of the sketch whose sparse form is (num_bins, bins): same bin-count
  // adoption, CHECK and cancel-to-empty rules. num_bins == 0 is the empty sketch.
  void MergeSparse(int num_bins, std::span<const RttBinCount> bins, int64_t sign = 1) {
    if (num_bins == 0) return;
    AdoptBins(num_bins);
    int64_t total = 0;
    for (const RttBinCount& entry : bins) {
      DCHECK(entry.bin >= 0 && entry.bin < num_bins);
      counts_[static_cast<size_t>(entry.bin)] += sign * entry.count;
      total += entry.count;
    }
    total_ += sign * total;
    CancelToEmpty();
  }

  // Appends the non-zero bins, in bin order, to `out` (the sparse form; pair it
  // with num_bins()).
  void AppendNonZero(std::vector<RttBinCount>& out) const {
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] != 0) out.push_back(RttBinCount{static_cast<int32_t>(i), counts_[i]});
    }
  }

  // Raw count accumulation for wire decode.
  void AddCount(int bin, int64_t count) {
    DCHECK(bin >= 0 && bin < num_bins());
    counts_[static_cast<size_t>(bin)] += count;
    total_ += count;
  }

  // Lower bound of the bin holding the q-quantile sample (q in [0, 1]); the
  // true quantile lies in [result, BinUpperUs(bin)). Returns 0 when empty.
  int64_t Quantile(double q) const;

  // Quantile(q) of the difference sketch `minuend` minus `subtrahend` (what
  // copying minuend and merging subtrahend with sign -1 would hold), computed
  // without building it. CHECKs like that Merge on mismatched bin counts.
  static int64_t DifferenceQuantile(const RttSketch& minuend, const RttSketch& subtrahend,
                                    double q);

  // Whether Merge(b) into a (or the reverse) passes the bin-count CHECK.
  static bool Mergeable(const RttSketch& a, const RttSketch& b) {
    return a.empty() || b.empty() || a.num_bins() == b.num_bins();
  }

  // Empties the sketch; the bin storage keeps its capacity for reuse.
  void Clear() {
    counts_.clear();
    total_ = 0;
  }

  // Zeroes every count but keeps the bin count: a recorder reused across paths.
  void ZeroCounts() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }

  bool operator==(const RttSketch&) const = default;

 private:
  // Merge's bin-count rule: an empty sketch adopts `num_bins`; otherwise they must match.
  void AdoptBins(int num_bins) {
    if (counts_.empty()) counts_.resize(static_cast<size_t>(num_bins), 0);
    CHECK(counts_.size() == static_cast<size_t>(num_bins))
        << "merging sketches with different bin counts: " << counts_.size() << " vs "
        << num_bins;
  }

  // A merge that cancels every count (the watchdog retract path) returns the sketch to the
  // empty state, so a running fold stays bit-identical to a view rebuilt from the surviving
  // records — which never merges anything for a fully retracted slot.
  void CancelToEmpty() {
    if (total_ != 0) return;
    for (const int64_t c : counts_) {
      if (c != 0) return;
    }
    counts_.clear();
  }

  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace detector

#endif  // SRC_ANOMALY_RTT_SKETCH_H_
