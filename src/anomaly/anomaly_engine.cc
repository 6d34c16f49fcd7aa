#include "src/anomaly/anomaly_engine.h"

#include <algorithm>
#include <utility>

namespace detector {

namespace {

// Magnitude of a flagged path's pseudo-observation. Any value comfortably above the
// preprocess floors works (lost >= 2, ratio > 1e-3); a flagged path reads fully lossy and a
// probed-but-clean path fully lossless, so the hitting set sees a crisp incidence structure.
constexpr int64_t kPseudoProbes = 1000;

const RttSketch kEmptySketch;

// Merges two normalized pair lists (bins ascending and distinct) into `out`, summing equal
// bins and dropping zero sums.
void MergePairs(std::span<const RttBinCount> a, std::span<const RttBinCount> b,
                std::vector<RttBinCount>& out) {
  out.clear();
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    RttBinCount next;
    if (j == b.size() || (i < a.size() && a[i].bin < b[j].bin)) {
      next = a[i++];
    } else if (i == a.size() || b[j].bin < a[i].bin) {
      next = b[j++];
    } else {
      next = RttBinCount{a[i].bin, a[i].count + b[j].count};
      ++i;
      ++j;
    }
    if (next.count != 0) {
      out.push_back(next);
    }
  }
}

}  // namespace

const char* AnomalySignalName(uint8_t signal) {
  switch (signal) {
    case kAnomalySignalLoss:
      return "loss";
    case kAnomalySignalLatency:
      return "latency";
    case kAnomalySignalLoss | kAnomalySignalLatency:
      return "loss+latency";
  }
  return "none";
}

AnomalyEngine::AnomalyEngine(AnomalyOptions options)
    : options_(options), pll_(options.pll) {}

AnomalyEngine::SlotState AnomalyEngine::MakeSlotState() const {
  SlotState state;
  state.loss = EwmaBaseline(options_.ewma_alpha, options_.deviations, options_.min_inflation,
                            options_.warmup_boundaries);
  state.p50 = state.loss;
  state.p99 = state.loss;
  return state;
}

void AnomalyEngine::BeginWindow() {
  for (SlotState& slot : slots_) {
    slot.prev = PathObservation{};
    slot.prev_rtt_total = 0;
    slot.prev_rtt_bins = 0;
  }
  carry_.Clear();
  for (RttSketch& sketch : dense_prev_) {
    sketch.Clear();  // in place: the storage is reused next window
  }
}

void AnomalyEngine::Reset() {
  slots_.clear();
  current_.clear();
  carry_.Clear();
  for (RttSketch& sketch : dense_prev_) {
    sketch.Clear();
  }
}

AnomalyEngine::PendingRtt AnomalyEngine::TakePending(int32_t slot, const RttDelta& delta,
                                                     size_t& d, size_t& c) {
  const bool in_delta = d < delta.size() && delta.slots[d] == slot;
  const bool in_carry = c < carry_.size() && carry_.slots[c] == slot;
  PendingRtt pending;
  if (in_delta && in_carry) {
    MergePairs(carry_.Bins(c), delta.Bins(d), merged_);
    pending = PendingRtt{true, delta.num_bins[d], merged_};
  } else if (in_delta) {
    pending = PendingRtt{true, delta.num_bins[d], delta.Bins(d)};
  } else if (in_carry) {
    pending = PendingRtt{true, carry_.num_bins[c], carry_.Bins(c)};
  }
  d += in_delta ? 1 : 0;
  c += in_carry ? 1 : 0;
  return pending;
}

std::vector<LinkAnomaly> AnomalyEngine::Observe(const ProbeMatrix& matrix,
                                                ObservationView totals,
                                                std::span<const RttSketch> rtt_totals) {
  if (dense_prev_.size() < rtt_totals.size()) {
    dense_prev_.resize(rtt_totals.size());
  }
  dense_delta_.Clear();
  for (size_t s = 0; s < dense_prev_.size(); ++s) {
    const RttSketch& cur = s < rtt_totals.size() ? rtt_totals[s] : kEmptySketch;
    RttSketch& prev = dense_prev_[s];
    if (cur == prev) {
      continue;
    }
    const std::span<const int64_t> now = cur.counts();
    const std::span<const int64_t> before = prev.counts();
    merged_.clear();
    for (size_t bin = 0; bin < std::max(now.size(), before.size()); ++bin) {
      const int64_t diff =
          (bin < now.size() ? now[bin] : 0) - (bin < before.size() ? before[bin] : 0);
      if (diff != 0) {
        merged_.push_back(RttBinCount{static_cast<int32_t>(bin), diff});
      }
    }
    dense_delta_.Append(static_cast<int32_t>(s), cur.num_bins(), merged_);
    prev = cur;
  }
  return Observe(matrix, totals, dense_delta_);
}

std::vector<LinkAnomaly> AnomalyEngine::Observe(const ProbeMatrix& matrix,
                                                ObservationView totals,
                                                const RttDelta& rtt_delta) {
  if (slots_.size() < totals.size()) {
    slots_.resize(totals.size(), MakeSlotState());
  }
  next_carry_.Clear();
  size_t d = 0;  // cursors into rtt_delta and carry_, both ascending by slot
  size_t c = 0;
  bool any_flagged = false;
  for (size_t s = 0; s < totals.size(); ++s) {
    SlotState& slot = slots_[s];
    const PathObservation cur = totals[s];
    const int64_t delta_sent = cur.sent - slot.prev.sent;
    const int64_t delta_lost = cur.lost - slot.prev.lost;
    // The slot's RTT change since its previous-boundary state: cur_rtt - prev_rtt as pairs.
    const PendingRtt rtt = TakePending(static_cast<int32_t>(s), rtt_delta, d, c);
    const int32_t cur_bins = rtt.changed ? rtt.num_bins : slot.prev_rtt_bins;
    int64_t delta_rtt_total = 0;
    for (const RttBinCount& entry : rtt.pairs) {
      delta_rtt_total += entry.count;
    }
    if (delta_sent < 0 || delta_lost < 0 || delta_rtt_total < 0) {
      // The slot's totals went backwards: a mid-window invalidation or watchdog retraction
      // re-keyed what this slot means. Its history is no longer about the same traffic —
      // restart the slot's baselines rather than learn from a fabricated delta.
      const int64_t cur_rtt_total = slot.prev_rtt_total + delta_rtt_total;
      slot = MakeSlotState();
      slot.prev = cur;
      slot.prev_rtt_total = cur_rtt_total;
      slot.prev_rtt_bins = cur_bins;
      continue;
    }
    if (delta_sent == 0 && delta_rtt_total == 0) {
      // Nothing probed since the last boundary: no information either way. The previous
      // state stays, so any bin shuffle that kept the total is still owed to it.
      if (!rtt.pairs.empty() || cur_bins != slot.prev_rtt_bins) {
        next_carry_.Append(static_cast<int32_t>(s), cur_bins, rtt.pairs);
      }
      continue;
    }
    // Loss signal over the boundary delta.
    if (delta_sent > 0) {
      const double loss_rate =
          static_cast<double>(delta_lost) / static_cast<double>(delta_sent);
      if (slot.loss.Excursion(loss_rate, options_.loss_floor)) {
        ++slot.loss_run;
      } else {
        slot.loss_run = 0;
        slot.loss.Observe(loss_rate);
      }
      if (slot.loss_run >= options_.horizon) {
        any_flagged = true;
      }
    }
    // Latency signal over the boundary's RTT delta, read from its pairs. The bin-count rule
    // is Merge's: the delta of two non-empty sketches needs one bin count.
    CHECK(slot.prev_rtt_bins == 0 || cur_bins == 0 || slot.prev_rtt_bins == cur_bins)
        << "merging sketches with different bin counts: " << cur_bins << " vs "
        << slot.prev_rtt_bins;
    if (delta_rtt_total >= options_.min_rtt_samples) {
      const int num_bins = cur_bins != 0 ? cur_bins : slot.prev_rtt_bins;
      const double p50 = static_cast<double>(
          RttSketch::SparseQuantile(delta_rtt_total, num_bins, rtt.pairs, 0.5));
      const double p99 = static_cast<double>(
          RttSketch::SparseQuantile(delta_rtt_total, num_bins, rtt.pairs, 0.99));
      if (slot.p50.Excursion(p50, options_.rtt_floor_us) ||
          slot.p99.Excursion(p99, options_.rtt_floor_us)) {
        ++slot.lat_run;
      } else {
        slot.lat_run = 0;
        slot.p50.Observe(p50);
        slot.p99.Observe(p99);
      }
      if (slot.lat_run >= options_.horizon) {
        any_flagged = true;
      }
    }
    slot.prev = cur;
    slot.prev_rtt_total += delta_rtt_total;
    slot.prev_rtt_bins = cur_bins;
  }
  // Slots beyond `totals` are not observed this boundary; their change waits in the carry.
  while (d < rtt_delta.size() || c < carry_.size()) {
    const int32_t slot =
        std::min(d < rtt_delta.size() ? rtt_delta.slots[d] : INT32_MAX,
                 c < carry_.size() ? carry_.slots[c] : INT32_MAX);
    const PendingRtt rtt = TakePending(slot, rtt_delta, d, c);
    next_carry_.Append(slot, rtt.num_bins, rtt.pairs);
  }
  std::swap(carry_, next_carry_);

  current_.clear();
  if (!any_flagged) {
    return current_;
  }
  // Fuse the flagged paths into pseudo-observations and localize with the standard PLL
  // partition machinery: flagged paths are fully lossy, probed clean paths fully lossless,
  // silent slots invalid — the hitting set then names the links common to the flagged paths.
  pseudo_.assign(totals.size(), PathObservation{});
  for (size_t s = 0; s < totals.size(); ++s) {
    const SlotState& slot = slots_[s];
    const bool flagged =
        slot.loss_run >= options_.horizon || slot.lat_run >= options_.horizon;
    if (totals[s].sent > 0 || flagged) {
      pseudo_[s].sent = kPseudoProbes;
      pseudo_[s].lost = flagged ? kPseudoProbes : 0;
    }
  }
  const LocalizeResult localized = pll_.LocalizeView(matrix, pseudo_);
  for (const SuspectLink& suspect : localized.links) {
    LinkAnomaly anomaly;
    anomaly.link = suspect.link;
    anomaly.score = suspect.hit_ratio;
    for (const PathId path : matrix.PathsThrough(suspect.link)) {
      if (path < 0 || static_cast<size_t>(path) >= slots_.size()) {
        continue;
      }
      const SlotState& slot = slots_[static_cast<size_t>(path)];
      if (slot.loss_run >= options_.horizon) {
        anomaly.signal |= kAnomalySignalLoss;
        anomaly.sustained = std::max(anomaly.sustained, slot.loss_run);
      }
      if (slot.lat_run >= options_.horizon) {
        anomaly.signal |= kAnomalySignalLatency;
        anomaly.sustained = std::max(anomaly.sustained, slot.lat_run);
      }
    }
    if (anomaly.signal != 0) {
      current_.push_back(anomaly);
    }
  }
  return current_;
}

}  // namespace detector
