#include "src/anomaly/anomaly_engine.h"

#include <algorithm>

namespace detector {

namespace {

// Magnitude of a flagged path's pseudo-observation. Any value comfortably above the
// preprocess floors works (lost >= 2, ratio > 1e-3); a flagged path reads fully lossy and a
// probed-but-clean path fully lossless, so the hitting set sees a crisp incidence structure.
constexpr int64_t kPseudoProbes = 1000;

const RttSketch kEmptySketch;

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
    slot.prev_rtt.Clear();  // in place: the slot's bin storage is reused next window
  }
}

void AnomalyEngine::Reset() {
  slots_.clear();
  current_.clear();
}

std::vector<LinkAnomaly> AnomalyEngine::Observe(const ProbeMatrix& matrix,
                                                ObservationView totals,
                                                std::span<const RttSketch> rtt_totals) {
  if (slots_.size() < totals.size()) {
    slots_.resize(totals.size(), MakeSlotState());
  }
  bool any_flagged = false;
  for (size_t s = 0; s < totals.size(); ++s) {
    SlotState& slot = slots_[s];
    const PathObservation cur = totals[s];
    const int64_t delta_sent = cur.sent - slot.prev.sent;
    const int64_t delta_lost = cur.lost - slot.prev.lost;
    const RttSketch& cur_rtt = s < rtt_totals.size() ? rtt_totals[s] : kEmptySketch;
    if (delta_sent < 0 || delta_lost < 0 || cur_rtt.total() < slot.prev_rtt.total()) {
      // The slot's totals went backwards: a mid-window invalidation or watchdog retraction
      // re-keyed what this slot means. Its history is no longer about the same traffic —
      // restart the slot's baselines rather than learn from a fabricated delta.
      slot = MakeSlotState();
      slot.prev = cur;
      slot.prev_rtt = cur_rtt;
      continue;
    }
    if (delta_sent == 0 && cur_rtt.total() == slot.prev_rtt.total()) {
      continue;  // nothing probed since the last boundary: no information either way
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
    // Latency signal over the boundary's RTT delta (cur - prev), read without materializing
    // the delta sketch.
    CHECK(RttSketch::Mergeable(cur_rtt, slot.prev_rtt))
        << "merging sketches with different bin counts: " << cur_rtt.num_bins() << " vs "
        << slot.prev_rtt.num_bins();
    const int64_t delta_rtt_total = cur_rtt.total() - slot.prev_rtt.total();
    if (delta_rtt_total >= options_.min_rtt_samples) {
      const double p50 =
          static_cast<double>(RttSketch::DifferenceQuantile(cur_rtt, slot.prev_rtt, 0.5));
      const double p99 =
          static_cast<double>(RttSketch::DifferenceQuantile(cur_rtt, slot.prev_rtt, 0.99));
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
    slot.prev_rtt = cur_rtt;
  }

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
