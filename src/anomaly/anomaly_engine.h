// AnomalyEngine: the multi-signal anomaly plane's fusion stage. At every streaming diagnosis
// boundary it diffs the store's running totals (loss counters and RTT sketches) against the
// previous boundary, feeds the per-slot boundary deltas to adaptive EwmaBaselines (loss rate,
// RTT p50, RTT p99 — no fixed thresholds), and counts consecutive excursion boundaries per
// slot. A slot excursive for `horizon` consecutive boundaries is *flagged*; flagged paths are
// converted into pseudo-observations (flagged = fully lossy, probed-and-clean = lossless) and
// pushed through the existing PllLocalizer partition machinery, so a gray link that
// delays-but-delivers is localized by the same minimum-hitting-set pipeline as a dropping
// link — each alarm names the link, the signal that raised it (loss, latency, or both), and
// how long the excursion has been sustained.
//
// Baselines persist across aggregation windows (BeginWindow only re-bases the totals, which
// reset when the store clears) and fully reset on matrix structure changes (Reset), since a
// slot's identity is not stable across a rebuild. Everything is integer/deterministic in —
// deterministic out: given bit-identical totals (which the store guarantees under any
// shard/thread split), the anomaly timeline is bit-identical too.
#ifndef SRC_ANOMALY_ANOMALY_ENGINE_H_
#define SRC_ANOMALY_ANOMALY_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/anomaly/ewma_baseline.h"
#include "src/anomaly/rtt_sketch.h"
#include "src/localize/pll.h"
#include "src/pmc/probe_matrix.h"

namespace detector {

struct AnomalyOptions {
  double ewma_alpha = 0.2;       // baseline smoothing factor
  double deviations = 4.0;       // additive excursion band: mean + deviations * ewma-dev
  double min_inflation = 1.25;   // multiplicative band: value must exceed mean * this
  int warmup_boundaries = 3;     // baseline samples before it may call excursions
  int horizon = 2;               // consecutive excursion boundaries before a path is flagged
  double loss_floor = 0.002;     // loss-rate deltas below this never count as excursions
  int64_t min_rtt_samples = 4;   // boundary RTT deltas with fewer samples carry no signal
  double rtt_floor_us = 1.0;     // RTT quantiles below this never count as excursions
  PllOptions pll;                // localization over the pseudo-observations
};

// Bitmask of the signals that flagged a path/link.
inline constexpr uint8_t kAnomalySignalLoss = 1;
inline constexpr uint8_t kAnomalySignalLatency = 2;
const char* AnomalySignalName(uint8_t signal);  // "loss" | "latency" | "loss+latency"

struct LinkAnomaly {
  LinkId link = kInvalidLink;
  uint8_t signal = 0;          // kAnomalySignal* bits
  double score = 0.0;          // localization hit ratio of the link
  int32_t sustained = 0;       // longest excursion run (boundaries) among its flagged paths

  bool operator==(const LinkAnomaly&) const = default;
};

class AnomalyEngine {
 public:
  explicit AnomalyEngine(AnomalyOptions options = {});

  // Re-bases the per-slot totals at zero for a fresh aggregation window (the store clears
  // between windows) without touching the learned baselines or excursion runs.
  void BeginWindow();

  // Consumes one boundary: totals/rtt_totals are the store's running views at this boundary
  // (rtt_totals may be shorter than totals — missing slots carry no RTT). Returns the
  // anomalies raised at this boundary (empty when no path is flagged).
  std::vector<LinkAnomaly> Observe(const ProbeMatrix& matrix, ObservationView totals,
                                   std::span<const RttSketch> rtt_totals);

  // Drops all per-slot state and baselines — call when the probe matrix changes structurally
  // (slot identities are not stable across a rebuild).
  void Reset();

  struct SlotState {
    PathObservation prev;      // totals at the previous boundary
    RttSketch prev_rtt;        // RTT totals at the previous boundary
    EwmaBaseline loss;
    EwmaBaseline p50;
    EwmaBaseline p99;
    int32_t loss_run = 0;      // consecutive loss-excursion boundaries
    int32_t lat_run = 0;       // consecutive latency-excursion boundaries
  };

  const AnomalyOptions& options() const { return options_; }
  const std::vector<LinkAnomaly>& current() const { return current_; }
  // Per-slot learned state (baselines, excursion runs, previous-boundary totals), read-only.
  std::span<const SlotState> slot_states() const { return slots_; }

 private:
  SlotState MakeSlotState() const;

  AnomalyOptions options_;
  PllLocalizer pll_;
  std::vector<SlotState> slots_;
  std::vector<LinkAnomaly> current_;
  Observations pseudo_;  // scratch for the pseudo-observation vector
};

}  // namespace detector

#endif  // SRC_ANOMALY_ANOMALY_ENGINE_H_
