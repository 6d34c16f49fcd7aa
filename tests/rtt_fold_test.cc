// Sparse RTT data path tests: RttSketch::MergeSparse (the ObservationStore's per-record
// (bin, count) fold) against the dense RttSketch::Merge as oracle — cancel-to-empty, sign -1
// and the bin-count-mismatch CHECK included; SparseQuantile against a materialized difference
// sketch; the store's running RTT sketches against RttSnapshot under randomized mixed direct
// and report-plane records, watchdog flips, slot invalidation and stale epochs; the store's
// boundary RTT delta (TakeRttDelta) against snapshot differences; exact folding of wire counts
// beyond 32 bits and the collector's bin-count check; AnomalyEngine::Observe — the dense
// adapter and the store-fed delta path — against the dense-diff body it replaced, boundary by
// boundary; and Pinger's view-only construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/anomaly/anomaly_engine.h"
#include "src/anomaly/rtt_sketch.h"
#include "src/common/rng.h"
#include "src/detector/observation_store.h"
#include "src/detector/pinger.h"
#include "src/pmc/probe_matrix.h"
#include "src/report/codec.h"
#include "src/report/collector.h"
#include "src/sim/latency_model.h"
#include "src/sim/probe_engine.h"
#include "src/sim/watchdog.h"
#include "src/topo/fattree.h"
#include "src/topo/topology.h"

namespace detector {
namespace {

// A Pinger only views its pinglist; a temporary would dangle, so binding one must not compile.
static_assert(!std::is_constructible_v<Pinger, Pinglist&&>);
static_assert(!std::is_constructible_v<Pinger, const Pinglist&&>);
static_assert(std::is_constructible_v<Pinger, const Pinglist&>);

// The non-zero bins of `sketch`, ascending: its sparse form next to num_bins().
std::vector<RttBinCount> SparseOf(const RttSketch& sketch) {
  std::vector<RttBinCount> bins;
  for (size_t b = 0; b < sketch.counts().size(); ++b) {
    if (sketch.counts()[b] != 0) {
      bins.push_back(RttBinCount{static_cast<int32_t>(b), sketch.counts()[b]});
    }
  }
  return bins;
}

// Allocated sketch with up to `nonzero` random bins carrying counts in [1, max_count].
RttSketch RandomSketch(Rng& rng, int num_bins, int nonzero, int64_t max_count = 50) {
  RttSketch sketch(num_bins);
  for (int i = 0; i < nonzero; ++i) {
    sketch.AddCount(static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_bins))),
                    1 + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(max_count))));
  }
  return sketch;
}

// ---- MergeSparse against the dense Merge --------------------------------------------------

void ExpectSparseMatchesDense(const RttSketch& into, const RttSketch& other, int64_t sign,
                              const std::string& when) {
  RttSketch dense = into;
  dense.Merge(other, sign);
  RttSketch sparse = into;
  sparse.MergeSparse(other.num_bins(), SparseOf(other), sign);
  EXPECT_EQ(sparse, dense) << when;
  EXPECT_EQ(sparse.empty(), dense.empty()) << when;
}

TEST(SparseRttMerge, MatchesDenseMergeOnRandomSketches) {
  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    const int num_bins = trial % 3 == 0 ? 16 : RttSketch::kDefaultBins;
    const RttSketch into = trial % 5 == 0 ? RttSketch{}
                                          : RandomSketch(rng, num_bins, 1 + trial % 7);
    const RttSketch other = trial % 11 == 0 ? RttSketch{}
                                            : RandomSketch(rng, num_bins, trial % 4);
    const int64_t sign = trial % 2 == 0 ? 1 : -1;
    ExpectSparseMatchesDense(into, other, sign, "trial " + std::to_string(trial));
  }
}

TEST(SparseRttMerge, RetractingEverythingCancelsToEmpty) {
  Rng rng(5);
  const RttSketch a = RandomSketch(rng, RttSketch::kDefaultBins, 6);
  const RttSketch b = RandomSketch(rng, RttSketch::kDefaultBins, 3);
  RttSketch folded;
  folded.MergeSparse(a.num_bins(), SparseOf(a));
  folded.MergeSparse(b.num_bins(), SparseOf(b));
  folded.MergeSparse(a.num_bins(), SparseOf(a), -1);
  folded.MergeSparse(b.num_bins(), SparseOf(b), -1);
  EXPECT_TRUE(folded.empty());  // back to the empty state, not an allocated all-zero one
  EXPECT_EQ(folded, RttSketch{});

  // A zero total with non-zero counts is not a cancellation: the sketch stays allocated.
  RttSketch plus(RttSketch::kDefaultBins);
  plus.AddCount(3, 2);
  RttSketch minus(RttSketch::kDefaultBins);
  minus.AddCount(9, 2);
  ExpectSparseMatchesDense(plus, minus, -1, "zero total, non-zero counts");
  RttSketch mixed = plus;
  mixed.MergeSparse(minus.num_bins(), SparseOf(minus), -1);
  EXPECT_FALSE(mixed.empty());
  EXPECT_EQ(mixed.total(), 0);

  // An allocated all-zero sketch (a wire record with no non-zero bins) folds as a no-op into
  // an empty sketch, exactly like the dense merge.
  ExpectSparseMatchesDense(RttSketch{}, RttSketch(RttSketch::kDefaultBins), 1, "all-zero");
}

TEST(SparseRttMerge, KeepsSixtyFourBitCounts) {
  RttSketch big(RttSketch::kDefaultBins);
  big.AddCount(7, (int64_t{1} << 40) + 3);
  big.AddCount(70, (int64_t{1} << 33) + 1);
  for (const int64_t sign : {int64_t{1}, int64_t{-1}}) {
    Rng rng(3);
    ExpectSparseMatchesDense(RandomSketch(rng, RttSketch::kDefaultBins, 4), big, sign,
                             "sign " + std::to_string(sign));
  }
}

TEST(SparseRttMergeDeathTest, MismatchedBinCountsCheckLikeDenseMerge) {
  RttSketch wide(RttSketch::kDefaultBins);
  wide.Record(100);
  RttSketch narrow(16);
  narrow.Record(100);
  EXPECT_DEATH(wide.Merge(narrow), "different bin counts");  // the oracle's behaviour
  EXPECT_DEATH(wide.MergeSparse(narrow.num_bins(), SparseOf(narrow)), "different bin counts");
  // The bin count alone decides, even when the record carries no non-zero bins.
  EXPECT_DEATH(wide.MergeSparse(16, {}), "different bin counts");
}

// ---- SparseQuantile against a materialized difference sketch -----------------------------

TEST(RttSparseQuantile, MatchesTheMaterializedDifference) {
  Rng rng(29);
  const double qs[] = {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0};
  for (int trial = 0; trial < 1500; ++trial) {
    RttSketch prev = trial % 6 == 0 ? RttSketch{}
                                    : RandomSketch(rng, RttSketch::kDefaultBins, trial % 5);
    RttSketch cur = prev;
    switch (trial % 4) {
      case 0:  // cumulative growth: the common boundary
        cur.Merge(RandomSketch(rng, RttSketch::kDefaultBins, 1 + trial % 3));
        break;
      case 1:  // totals went backwards
        cur = RandomSketch(rng, RttSketch::kDefaultBins, 1);
        break;
      case 2:  // non-empty -> empty
        cur = RttSketch{};
        break;
      default:  // unchanged
        break;
    }
    RttSketch diff = cur;
    diff.Merge(prev, -1);
    // Signed pairs of the difference; its bin count is either side's (an empty side has none).
    const int num_bins = cur.empty() ? prev.num_bins() : cur.num_bins();
    for (const double q : qs) {
      EXPECT_EQ(RttSketch::SparseQuantile(diff.total(), num_bins, SparseOf(diff), q),
                diff.Quantile(q))
          << "trial " << trial << " q " << q;
    }
  }
}

// ---- Store: running sketches == snapshot under mixed direct/report-plane records ----------

void ExpectRunningMatchesSnapshot(ObservationStore& store, size_t num_slots,
                                  const Watchdog& watchdog, const std::string& when) {
  const ObservationView totals = store.RunningTotals(num_slots, watchdog);
  const Observations running_loss(totals.begin(), totals.end());
  const ObservationView snapshot_loss = store.Snapshot(num_slots, watchdog);
  ASSERT_EQ(running_loss.size(), snapshot_loss.size()) << when;
  for (size_t slot = 0; slot < num_slots; ++slot) {
    EXPECT_EQ(running_loss[slot].sent, snapshot_loss[slot].sent) << when << " slot " << slot;
    EXPECT_EQ(running_loss[slot].lost, snapshot_loss[slot].lost) << when << " slot " << slot;
  }
  const std::span<const RttSketch> running = store.RttRunningTotals();
  const std::vector<RttSketch> snapshot = store.RttSnapshot(num_slots, watchdog);
  const RttSketch empty;
  for (size_t slot = 0; slot < num_slots; ++slot) {
    // The running sketches are allocated lazily: a missing slot reads as empty.
    const RttSketch& got = slot < running.size() ? running[slot] : empty;
    EXPECT_EQ(got, snapshot[slot]) << when << " slot " << slot;
  }
}

TEST(StoreRttFold, RunningEqualsSnapshotUnderRandomMixedRecords) {
  Topology topo("rtt-fold");
  constexpr int kNodes = 6;
  for (int i = 0; i < kNodes; ++i) {
    topo.AddNode(NodeKind::kServer, 0, i, "s" + std::to_string(i));
  }
  constexpr size_t kSlots = 8;
  Rng rng(41);
  int64_t folded_samples = 0;
  for (int window = 0; window < 6; ++window) {
    Watchdog watchdog(topo);
    ObservationStore store;
    store.EnsureSlots(kSlots);
    for (int step = 0; step < 300; ++step) {
      const NodeId pinger = static_cast<NodeId>(rng.NextBounded(4));
      const NodeId target = static_cast<NodeId>(rng.NextBounded(kNodes));
      const PathId slot = static_cast<PathId>(rng.NextBounded(kSlots));
      ObservationStore::Shard& shard = store.OpenShard(pinger);
      const RttSketch sketch =
          RandomSketch(rng, RttSketch::kDefaultBins, 1 + static_cast<int>(rng.NextBounded(3)));
      const uint32_t epoch = store.SlotEpoch(static_cast<size_t>(slot));
      switch (rng.NextBounded(8)) {
        case 0:  // direct record with a sketch
        case 1:
          shard.RecordPathWithRtt(slot, target, 10, 1, sketch.num_bins(), SparseOf(sketch));
          break;
        case 2:  // direct loss-only record
          shard.RecordPath(slot, target, 10, 2);
          break;
        case 3:  // report-plane pair at the current epoch
          shard.RecordPathAtEpoch(slot, epoch, target, 10, 0);
          shard.RecordPathRttAtEpoch(slot, epoch, target, sketch.num_bins(), SparseOf(sketch));
          break;
        case 4:  // report-plane record stamped before an invalidation: orphans
          shard.RecordPathRttAtEpoch(slot, epoch == 0 ? 0 : epoch - 1, target, sketch.num_bins(),
                                     SparseOf(sketch));
          break;
        case 5: {  // watchdog flip
          const NodeId node = static_cast<NodeId>(rng.NextBounded(kNodes));
          if (watchdog.IsHealthy(node)) {
            watchdog.MarkDown(node);
          } else {
            watchdog.MarkUp(node);
          }
          break;
        }
        case 6: {  // mid-window slot invalidation
          const PathId stale[] = {slot};
          store.InvalidateSlots(stale);
          break;
        }
        default:  // serial read between streaming steps
          break;
      }
      if (step % 7 == 0) {
        ExpectRunningMatchesSnapshot(store, kSlots, watchdog,
                                     "window " + std::to_string(window) + " step " +
                                         std::to_string(step));
      }
    }
    ExpectRunningMatchesSnapshot(store, kSlots, watchdog, "window end");
    for (const RttSketch& sketch : store.RttSnapshot(kSlots, watchdog)) {
      folded_samples += sketch.total();
    }
    store.Clear();  // in-place clear: the next window must start from empty sketches
    for (const RttSketch& sketch : store.RttRunningTotals()) {
      EXPECT_TRUE(sketch.empty());
    }
  }
  EXPECT_GT(folded_samples, 0);  // non-vacuous: samples survived the filters
}

// ---- Store: the boundary RTT delta == snapshot(now) - snapshot(at the last take) ----------

// Checks one TakeRttDelta against the snapshot difference: every slot's sketch at the last take
// merged with its pairs is its sketch now, the bin count attached is the one it has now, pairs
// are normalized, and slots absent from the delta did not change. Advances `base` to now and
// returns the number of slots in the delta.
size_t ExpectDeltaMatchesSnapshots(ObservationStore& store, size_t num_slots,
                                 const Watchdog& watchdog, std::vector<RttSketch>& base,
                                 const std::string& when) {
  store.RunningTotals(num_slots, watchdog);
  const RttDelta& delta = store.TakeRttDelta();
  std::vector<RttSketch> now = store.RttSnapshot(num_slots, watchdog);
  base.resize(num_slots);
  std::vector<bool> in_delta(num_slots, false);
  EXPECT_EQ(delta.offsets.size(), delta.size() + 1) << when;
  EXPECT_EQ(delta.num_bins.size(), delta.size()) << when;
  for (size_t i = 0; i < delta.size(); ++i) {
    const size_t slot = static_cast<size_t>(delta.slots[i]);
    EXPECT_LT(slot, num_slots) << when;
    if (slot >= num_slots) {
      return 0;
    }
    if (i > 0) {
      EXPECT_GT(delta.slots[i], delta.slots[i - 1]) << when << ": slots not ascending";
    }
    in_delta[slot] = true;
    const std::span<const RttBinCount> pairs = delta.Bins(i);
    for (size_t j = 0; j < pairs.size(); ++j) {
      EXPECT_NE(pairs[j].count, 0) << when << " slot " << slot;
      if (j > 0) {
        EXPECT_GT(pairs[j].bin, pairs[j - 1].bin) << when << " slot " << slot;
      }
    }
    EXPECT_EQ(delta.num_bins[i], now[slot].num_bins()) << when << " slot " << slot;
    RttSketch merged = base[slot];
    const int bins = delta.num_bins[i] != 0 ? delta.num_bins[i] : merged.num_bins();
    if (bins == 0) {
      EXPECT_TRUE(pairs.empty()) << when << " slot " << slot;
    } else {
      merged.MergeSparse(bins, pairs);
    }
    EXPECT_EQ(merged, now[slot]) << when << " slot " << slot;
  }
  for (size_t slot = 0; slot < num_slots; ++slot) {
    if (!in_delta[slot]) {
      EXPECT_EQ(base[slot], now[slot]) << when << " slot " << slot << " changed off the delta";
    }
  }
  base = std::move(now);
  return delta.size();
}

TEST(StoreRttDelta, TakeEqualsSnapshotDifferenceUnderRandomMixedRecords) {
  Topology topo("rtt-delta");
  constexpr int kNodes = 6;
  for (int i = 0; i < kNodes; ++i) {
    topo.AddNode(NodeKind::kServer, 0, i, "s" + std::to_string(i));
  }
  Rng rng(43);
  Watchdog watchdog(topo);
  ObservationStore store;
  size_t num_slots = 4;
  store.EnsureSlots(num_slots);
  std::vector<RttSketch> base(num_slots);  // the snapshot at the last take
  size_t nonempty_takes = 0;
  for (int step = 0; step < 4000; ++step) {
    const NodeId pinger = static_cast<NodeId>(rng.NextBounded(4));
    const NodeId target = static_cast<NodeId>(rng.NextBounded(kNodes));
    const PathId slot = static_cast<PathId>(rng.NextBounded(num_slots));
    ObservationStore::Shard& shard = store.OpenShard(pinger);
    const RttSketch sketch =
        RandomSketch(rng, RttSketch::kDefaultBins, 1 + static_cast<int>(rng.NextBounded(3)));
    const uint32_t epoch = store.SlotEpoch(static_cast<size_t>(slot));
    const std::string when = "step " + std::to_string(step);
    switch (rng.NextBounded(12)) {
      case 0:  // direct record with a sketch
      case 1:
      case 2:
        shard.RecordPathWithRtt(slot, target, 10, 1, sketch.num_bins(), SparseOf(sketch));
        break;
      case 3:  // direct loss-only record: never touches the delta
        shard.RecordPath(slot, target, 10, 2);
        break;
      case 4:  // report-plane pair at the current epoch (a reused slot's new occupant)
        shard.RecordPathAtEpoch(slot, epoch, target, 10, 0);
        shard.RecordPathRttAtEpoch(slot, epoch, target, sketch.num_bins(), SparseOf(sketch));
        break;
      case 5:  // report-plane record stamped before an invalidation: orphans
        shard.RecordPathRttAtEpoch(slot, epoch == 0 ? 0 : epoch - 1, target,
                                   sketch.num_bins(), SparseOf(sketch));
        break;
      case 6: {  // watchdog flip
        const NodeId node = static_cast<NodeId>(rng.NextBounded(kNodes));
        if (watchdog.IsHealthy(node)) {
          watchdog.MarkDown(node);
        } else {
          watchdog.MarkUp(node);
        }
        break;
      }
      case 7: {  // mid-window slot invalidation
        const PathId stale[] = {slot};
        store.InvalidateSlots(stale);
        break;
      }
      case 8:  // slot-table growth
        if (num_slots < 12 && rng.NextBounded(4) == 0) {
          ++num_slots;
          store.EnsureSlots(num_slots);
        }
        break;
      case 9:  // boundary
      case 10:
        nonempty_takes +=
            ExpectDeltaMatchesSnapshots(store, num_slots, watchdog, base, when) > 0 ? 1 : 0;
        break;
      default:  // window end or a consumer reset: the next take starts from zero
        if (rng.NextBounded(8) == 0) {
          if (rng.NextBounded(2) == 0) {
            store.Clear();
          } else {
            store.RebaseRttDelta();  // unfolded records and unapplied flips log later
          }
          base.assign(num_slots, RttSketch{});
        }
        break;
    }
    if (HasFailure()) {
      return;
    }
  }
  ExpectDeltaMatchesSnapshots(store, num_slots, watchdog, base, "end");
  EXPECT_GT(nonempty_takes, 100u);
  // A take with nothing logged since is empty.
  EXPECT_EQ(store.TakeRttDelta().size(), 0u);
  // Loss-only records never reach the delta.
  store.OpenShard(0).RecordPath(0, 1, 10, 1);
  store.RunningTotals(num_slots, watchdog);
  EXPECT_EQ(store.TakeRttDelta().size(), 0u);
}

// ---- Wire counts beyond 32 bits fold exactly ----------------------------------------------

TEST(StoreRttFold, WireCountsBeyondThirtyTwoBitsFoldExactly) {
  const FatTree ft(4);
  Watchdog watchdog(ft.topology());
  ObservationStore store;
  store.EnsureSlots(4);
  Collector collector(store);
  collector.BeginWindow(1);

  const int64_t huge = (int64_t{1} << 33) + 7;    // > 2^32
  const int64_t over = (int64_t{1} << 31) + 1;    // > INT32_MAX
  RttSketch sketch(RttSketch::kDefaultBins);
  sketch.AddCount(5, huge);
  sketch.AddCount(60, over);
  const NodeId reporters[] = {ft.Server(0, 0, 0), ft.Server(0, 0, 1)};
  for (const NodeId pinger : reporters) {  // two reporters: the fold sums beyond 2^34
    ReportFrame frame;
    frame.pinger = pinger;
    frame.window_id = 1;
    frame.seq = 0;
    frame.AddRtt(2, 0, ft.Server(1, 0, 0), sketch.num_bins(), SparseOf(sketch));
    std::vector<uint8_t> wire;
    ReportCodec::Encode(frame, wire);
    ASSERT_TRUE(collector.Offer(wire));
  }
  EXPECT_EQ(collector.Drain(), 2u);
  EXPECT_EQ(collector.stats().decode_errors, 0u);

  store.RunningTotals(4, watchdog);
  const std::span<const RttSketch> running = store.RttRunningTotals();
  ASSERT_GT(running.size(), 2u);
  EXPECT_EQ(running[2].counts()[5], 2 * huge);
  EXPECT_EQ(running[2].counts()[60], 2 * over);
  EXPECT_EQ(running[2].total(), 2 * (huge + over));
  EXPECT_EQ(store.RttSnapshot(4, watchdog)[2], running[2]);

  // A watchdog retraction of one reporter removes exactly its share.
  watchdog.MarkDown(reporters[0]);
  store.RunningTotals(4, watchdog);
  EXPECT_EQ(store.RttRunningTotals()[2].counts()[5], huge);
  EXPECT_EQ(store.RttRunningTotals()[2].total(), huge + over);
}

// ---- Collector: RTT records with a foreign bin count are skipped and counted --------------

TEST(StoreRttFold, CollectorSkipsRttRecordsWithAForeignBinCount) {
  const FatTree ft(4);
  Watchdog watchdog(ft.topology());
  ObservationStore store;
  store.EnsureSlots(4);
  Collector collector(store);  // the deployment's bin count: RttSketch::kDefaultBins
  collector.BeginWindow(1);

  RttSketch ours(RttSketch::kDefaultBins);
  ours.Record(100);
  RttSketch foreign(16);
  foreign.Record(100);
  const NodeId reporters[] = {ft.Server(0, 0, 0), ft.Server(0, 0, 1)};
  const RttSketch* sketches[] = {&ours, &foreign};
  for (int i = 0; i < 2; ++i) {
    ReportFrame frame;
    frame.pinger = reporters[i];
    frame.window_id = 1;
    frame.paths.push_back(WirePathDelta{2, 0, ft.Server(1, 0, 0), 10, 1});
    frame.AddRtt(2, 0, ft.Server(1, 0, 0), sketches[i]->num_bins(), SparseOf(*sketches[i]));
    std::vector<uint8_t> wire;
    ReportCodec::Encode(frame, wire);
    ASSERT_TRUE(collector.Offer(wire));
  }
  EXPECT_EQ(collector.Drain(), 2u);

  // Folding both sketches into one slot would abort on the bin-count CHECK; the foreign one
  // never reaches the store, while both frames' loss records do.
  const ObservationView totals = store.RunningTotals(4, watchdog);
  EXPECT_EQ(totals[2].sent, 20);
  EXPECT_EQ(totals[2].lost, 2);
  EXPECT_EQ(store.RttRunningTotals()[2], ours);
  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.rtt_bins_mismatch_dropped, 1u);
  EXPECT_EQ(stats.frames_folded, 2u);
  EXPECT_EQ(stats.observations_folded, 3u);  // two loss records, one RTT record
}

// ---- AnomalyEngine::Observe against the dense-diff body it replaced -----------------------

// The Observe body as it was before the delta quantiles were computed in place: it builds
// the boundary's delta sketch per slot (copy cur, merge prev with sign -1) and takes its
// quantiles. BeginWindow frees the previous-boundary sketches.
class DenseDiffAnomalyEngine {
 public:
  // AnomalyEngine::SlotState as it was: the previous boundary's RTT sketch kept whole.
  struct SlotState {
    PathObservation prev;
    RttSketch prev_rtt;
    EwmaBaseline loss;
    EwmaBaseline p50;
    EwmaBaseline p99;
    int32_t loss_run = 0;
    int32_t lat_run = 0;
  };

  explicit DenseDiffAnomalyEngine(AnomalyOptions options) : options_(options), pll_(options.pll) {}

  void BeginWindow() {
    for (SlotState& slot : slots_) {
      slot.prev = PathObservation{};
      slot.prev_rtt = RttSketch{};
    }
  }

  void Reset() {
    slots_.clear();
    current_.clear();
  }

  std::vector<LinkAnomaly> Observe(const ProbeMatrix& matrix, ObservationView totals,
                                   std::span<const RttSketch> rtt_totals) {
    static const RttSketch kEmptySketch;
    constexpr int64_t kPseudoProbes = 1000;
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
        slot = MakeSlotState();
        slot.prev = cur;
        slot.prev_rtt = cur_rtt;
        continue;
      }
      if (delta_sent == 0 && cur_rtt.total() == slot.prev_rtt.total()) {
        continue;
      }
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
      RttSketch delta_rtt = cur_rtt;
      delta_rtt.Merge(slot.prev_rtt, -1);
      if (delta_rtt.total() >= options_.min_rtt_samples) {
        const double p50 = static_cast<double>(delta_rtt.Quantile(0.5));
        const double p99 = static_cast<double>(delta_rtt.Quantile(0.99));
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

  std::span<const SlotState> slot_states() const { return slots_; }

 private:
  SlotState MakeSlotState() const {
    SlotState state;
    state.loss = EwmaBaseline(options_.ewma_alpha, options_.deviations, options_.min_inflation,
                              options_.warmup_boundaries);
    state.p50 = state.loss;
    state.p99 = state.loss;
    return state;
  }

  AnomalyOptions options_;
  PllLocalizer pll_;
  std::vector<SlotState> slots_;
  std::vector<LinkAnomaly> current_;
  Observations pseudo_;
};

// Four monitored links in a chain with single-link and two-link paths, so flagged paths
// localize to different links as the excursions move around.
struct ChainNet {
  Topology topo{"chain"};
  ProbeMatrix matrix;

  ChainNet() : matrix(MakeMatrix(topo)) {}

  static ProbeMatrix MakeMatrix(Topology& topo) {
    std::vector<NodeId> nodes;
    for (int i = 0; i < 5; ++i) {
      nodes.push_back(topo.AddNode(NodeKind::kTor, 0, i, "n" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
      topo.AddLink(nodes[static_cast<size_t>(i)], nodes[static_cast<size_t>(i) + 1], 1);
    }
    PathStore store;
    const std::vector<std::vector<LinkId>> routes = {{0}, {1}, {2}, {3}, {0, 1}, {2, 3}};
    for (const auto& route : routes) {
      store.Add(nodes[static_cast<size_t>(route.front())],
                nodes[static_cast<size_t>(route.back()) + 1], route);
    }
    return ProbeMatrix(std::move(store), LinkIndex::ForMonitored(topo));
  }
};

void ExpectSameBaseline(const EwmaBaseline& got, const EwmaBaseline& want,
                        const std::string& what) {
  EXPECT_EQ(got.samples(), want.samples()) << what;
  EXPECT_EQ(got.mean(), want.mean()) << what;
  EXPECT_EQ(got.deviation(), want.deviation()) << what;
}

void ExpectSameSlots(std::span<const AnomalyEngine::SlotState> got,
                     std::span<const DenseDiffAnomalyEngine::SlotState> want,
                     const std::string& when) {
  ASSERT_EQ(got.size(), want.size()) << when;
  for (size_t s = 0; s < got.size(); ++s) {
    const std::string where = when + " slot " + std::to_string(s);
    EXPECT_EQ(got[s].prev.sent, want[s].prev.sent) << where;
    EXPECT_EQ(got[s].prev.lost, want[s].prev.lost) << where;
    EXPECT_EQ(got[s].prev_rtt_total, want[s].prev_rtt.total()) << where;
    EXPECT_EQ(got[s].prev_rtt_bins, want[s].prev_rtt.num_bins()) << where;
    ExpectSameBaseline(got[s].loss, want[s].loss, where + " loss");
    ExpectSameBaseline(got[s].p50, want[s].p50, where + " p50");
    ExpectSameBaseline(got[s].p99, want[s].p99, where + " p99");
    EXPECT_EQ(got[s].loss_run, want[s].loss_run) << where;
    EXPECT_EQ(got[s].lat_run, want[s].lat_run) << where;
  }
}

TEST(AnomalyObserveOracle, MatchesDenseDiffBodyOnRandomBoundarySequences) {
  const ChainNet net;
  const size_t num_slots = net.matrix.NumPaths();
  size_t alarms_raised = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    AnomalyEngine engine;
    DenseDiffAnomalyEngine oracle(engine.options());
    Observations totals(num_slots);
    std::vector<RttSketch> rtt(num_slots);
    for (int boundary = 0; boundary < 400; ++boundary) {
      // Regimes drift every ~20 boundaries: a slow path and a lossy path, somewhere.
      const size_t slow = static_cast<size_t>((boundary / 20 + seed) % (num_slots + 1));
      const size_t lossy = static_cast<size_t>((boundary / 23 + 2 * seed) % (num_slots + 1));
      for (size_t s = 0; s < num_slots; ++s) {
        switch (rng.NextBounded(20)) {
          case 0:  // silent slot this boundary
            break;
          case 1:  // totals go backwards (retraction / invalidation)
            totals[s].sent = totals[s].sent / 2;
            totals[s].lost = 0;
            if (!rtt[s].empty() && rtt[s].total() > 1) {
              RttSketch retract(RttSketch::kDefaultBins);
              for (size_t b = 0; b < rtt[s].counts().size(); ++b) {
                if (rtt[s].counts()[b] > 0) {
                  retract.AddCount(static_cast<int>(b), 1);
                  break;
                }
              }
              rtt[s].Merge(retract, -1);
            }
            break;
          case 2:  // non-empty -> empty
            rtt[s].Clear();
            break;
          case 3:  // silent, but a retract and an add moved one sample to another bin
            if (!rtt[s].empty()) {
              for (size_t b = 0; b < rtt[s].counts().size(); ++b) {
                if (rtt[s].counts()[b] > 0) {
                  RttSketch moved(RttSketch::kDefaultBins);
                  moved.AddCount(static_cast<int>(b), -1);
                  moved.AddCount(static_cast<int>((b + 1 + rng.NextBounded(60)) % 80), 1);
                  rtt[s].Merge(moved);
                  break;
                }
              }
            }
            break;
          case 4:  // silent, but an empty sketch became an allocated all-zero one
            if (rtt[s].empty()) {
              rtt[s] = RttSketch(RttSketch::kDefaultBins);
            }
            break;
          default: {  // ordinary traffic
            const int64_t sent = 200 + static_cast<int64_t>(rng.NextBounded(50));
            totals[s].sent += sent;
            totals[s].lost += s == lossy ? sent / 5 : static_cast<int64_t>(rng.NextBounded(2));
            const int samples = static_cast<int>(rng.NextBounded(9));
            if (samples > 0 && rtt[s].empty()) {
              rtt[s] = RttSketch(RttSketch::kDefaultBins);  // empty -> non-empty
            }
            const int64_t base = s == slow ? 4000 : 100;
            for (int i = 0; i < samples; ++i) {
              rtt[s].Record(base + static_cast<int64_t>(rng.NextBounded(40)));
            }
            break;
          }
        }
      }
      const uint64_t event = rng.NextBounded(60);
      if (event == 0) {  // window boundary: the store clears
        engine.BeginWindow();
        oracle.BeginWindow();
        totals.assign(num_slots, PathObservation{});
        rtt.assign(num_slots, RttSketch{});
      } else if (event == 1) {  // matrix rebuild
        engine.Reset();
        oracle.Reset();
      }
      // Sometimes the RTT span is shorter than the totals (slots beyond it carry no RTT).
      const size_t rtt_len = rng.NextBounded(8) == 0 ? rng.NextBounded(num_slots) : num_slots;
      const std::span<const RttSketch> rtt_view(rtt.data(), rtt_len);
      const std::string when = "seed " + std::to_string(seed) + " boundary " +
                               std::to_string(boundary);
      const std::vector<LinkAnomaly> got = engine.Observe(net.matrix, totals, rtt_view);
      const std::vector<LinkAnomaly> want = oracle.Observe(net.matrix, totals, rtt_view);
      ASSERT_EQ(got, want) << when;
      alarms_raised += got.size();
      ExpectSameSlots(engine.slot_states(), oracle.slot_states(), when);
      if (HasFailure()) {
        return;
      }
    }
  }
  EXPECT_GT(alarms_raised, 0u);  // non-vacuous: the drifting regimes raised alarms
}

// Totals shorter than the RTT sketches (a matrix smaller than the store's slot table): the
// slots beyond them sit the boundary out, and their RTT change must still count when they
// are observed again. Three boundaries stay inside the warmup, so nothing is localized.
TEST(AnomalyObserveOracle, SlotsBeyondTheTotalsKeepTheirChange) {
  const ChainNet net;
  const size_t num_slots = net.matrix.NumPaths();
  AnomalyEngine engine;
  DenseDiffAnomalyEngine oracle(engine.options());
  Observations totals(num_slots);
  std::vector<RttSketch> rtt(num_slots, RttSketch(RttSketch::kDefaultBins));
  const size_t observed[] = {num_slots, num_slots / 2, num_slots};
  for (int boundary = 0; boundary < 3; ++boundary) {
    for (size_t s = 0; s < num_slots; ++s) {
      totals[s].sent += 100;
      rtt[s].Record(100 + 10 * static_cast<int64_t>(s) + boundary);
      rtt[s].Record(300);
    }
    const ObservationView view(totals.data(), observed[boundary]);
    const std::string when = "boundary " + std::to_string(boundary);
    EXPECT_EQ(engine.Observe(net.matrix, view, rtt), oracle.Observe(net.matrix, view, rtt))
        << when;
    ExpectSameSlots(engine.slot_states(), oracle.slot_states(), when);
  }
}

// The live path: the store's delta feeds the engine while the oracle reads the store's dense
// running sketches, under random direct records, watchdog flips, invalidations, window ends
// (store Clear + BeginWindow) and matrix rebuilds (Reset + RebaseRttDelta, mid-window).
TEST(AnomalyObserveOracle, StoreDeltaPathMatchesDenseDiffBody) {
  const ChainNet net;
  const size_t num_slots = net.matrix.NumPaths();
  Topology hosts("hosts");  // pingers 0-2 and targets 3-4, as servers the watchdog can flag
  for (int i = 0; i < 5; ++i) {
    hosts.AddNode(NodeKind::kServer, 0, i, "h" + std::to_string(i));
  }
  size_t alarms_raised = 0;
  size_t rebases = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(100 + seed);
    Watchdog watchdog(hosts);
    ObservationStore store;
    store.EnsureSlots(num_slots);
    AnomalyEngine engine;
    DenseDiffAnomalyEngine oracle(engine.options());
    for (int boundary = 0; boundary < 300; ++boundary) {
      const size_t slow = static_cast<size_t>((boundary / 20 + seed) % (num_slots + 1));
      const size_t lossy = static_cast<size_t>((boundary / 23 + 2 * seed) % (num_slots + 1));
      const int records = static_cast<int>(rng.NextBounded(12));
      for (int r = 0; r < records; ++r) {
        const NodeId pinger = static_cast<NodeId>(rng.NextBounded(3));
        const NodeId target = static_cast<NodeId>(3 + rng.NextBounded(2));
        const size_t slot = static_cast<size_t>(rng.NextBounded(num_slots));
        ObservationStore::Shard& shard = store.OpenShard(pinger);
        const int64_t sent = 50 + static_cast<int64_t>(rng.NextBounded(20));
        const int64_t lost = slot == lossy ? sent / 4 : static_cast<int64_t>(rng.NextBounded(2));
        RttSamples samples(RttSketch::kDefaultBins);
        const int64_t base = slot == slow ? 4000 : 100;
        for (uint64_t i = rng.NextBounded(5); i > 0; --i) {
          samples.Record(base + static_cast<int64_t>(rng.NextBounded(40)));
        }
        if (samples.empty()) {
          shard.RecordPath(static_cast<PathId>(slot), target, sent, lost);
        } else {
          shard.RecordPathWithRtt(static_cast<PathId>(slot), target, sent, lost,
                                  samples.num_bins(), samples.bins());
        }
      }
      switch (rng.NextBounded(40)) {
        case 0: {  // watchdog flip of a pinger or target
          const NodeId node = static_cast<NodeId>(rng.NextBounded(5));
          if (watchdog.IsHealthy(node)) {
            watchdog.MarkDown(node);
          } else {
            watchdog.MarkUp(node);
          }
          break;
        }
        case 1: {  // mid-window invalidation; the slot's next records are its new occupant's
          const PathId stale[] = {static_cast<PathId>(rng.NextBounded(num_slots))};
          store.InvalidateSlots(stale);
          break;
        }
        case 2:  // matrix rebuild: the engine drops its state, the store re-bases its log
          engine.Reset();
          store.RebaseRttDelta();
          oracle.Reset();
          ++rebases;
          break;
        case 3:  // window end: the store clears, both engines re-base at zero
          store.Clear();
          engine.BeginWindow();
          oracle.BeginWindow();
          break;
        default:
          break;
      }
      const std::string when =
          "seed " + std::to_string(seed) + " boundary " + std::to_string(boundary);
      const ObservationView totals = store.RunningTotals(num_slots, watchdog);
      const std::vector<LinkAnomaly> want =
          oracle.Observe(net.matrix, totals, store.RttRunningTotals());
      const std::vector<LinkAnomaly> got =
          engine.Observe(net.matrix, totals, store.TakeRttDelta());
      ASSERT_EQ(got, want) << when;
      alarms_raised += got.size();
      ExpectSameSlots(engine.slot_states(), oracle.slot_states(), when);
      if (HasFailure()) {
        return;
      }
    }
  }
  EXPECT_GT(alarms_raised, 0u);  // non-vacuous: the drifting regimes raised alarms
  EXPECT_GT(rebases, 0u);
}

TEST(AnomalyObserveDeathTest, MismatchedBinCountsCheckLikeDenseMerge) {
  const ChainNet net;
  const size_t num_slots = net.matrix.NumPaths();
  Observations totals(num_slots);
  std::vector<RttSketch> rtt(num_slots);
  AnomalyEngine engine;
  totals[0].sent = 100;
  rtt[0] = RttSketch(RttSketch::kDefaultBins);
  rtt[0].Record(100);
  engine.Observe(net.matrix, totals, rtt);
  // The slot's sketch empties and comes back with another bin count: the boundary delta
  // mixes two layouts, which the dense diff refused with Merge's CHECK.
  totals[0].sent = 200;
  rtt[0] = RttSketch(16);
  rtt[0].Record(100);
  rtt[0].Record(100);
  EXPECT_DEATH(engine.Observe(net.matrix, totals, rtt), "different bin counts");
}

// ---- Pinger: one reused sketch per run, nothing leaks between entries ---------------------

TEST(PingerRtt, ReusedSketchCarriesOnlyItsOwnEntrysSamples) {
  const FatTree ft(4);
  Pinglist list;
  list.pinger = ft.Server(0, 0, 0);
  list.packets_per_second = 10.0;
  for (int pod = 1; pod < 4; ++pod) {
    PinglistEntry entry;
    entry.path_id = pod - 1;
    entry.target_server = ft.Server(pod, 0, 0);
    entry.route = {ft.ServerLink(0, 0, 0),   ft.EdgeAggLink(0, 0, 0),   ft.AggCoreLink(0, 0, 0),
                   ft.AggCoreLink(pod, 0, 0), ft.EdgeAggLink(pod, 0, 0), ft.ServerLink(pod, 0, 0)};
    list.entries.push_back(entry);
  }
  const LatencyModel latency(LatencyModelOptions{});
  ProbeEngine engine(ft.topology(), FailureScenario{}, ProbeConfig{});
  constexpr int kSamples = 3;
  engine.AttachRttObservation(&latency, {}, kSamples);
  const Pinger pinger(list, /*confirm_packets=*/0);
  EXPECT_EQ(&pinger.pinglist(), &list);  // a view, not a copy

  Rng rng(8);
  const PingerWindowResult window = pinger.RunWindow(engine, 30.0, rng);
  ASSERT_EQ(window.reports.size(), list.entries.size());
  for (const PathReport& report : window.reports) {
    EXPECT_EQ(report.rtt.total(), kSamples) << "path " << report.path_id;
  }
}

}  // namespace
}  // namespace detector
