// ObservationStore: streaming per-window observation accumulator behind the diagnoser. Each
// pinger shard owns one accumulation bucket and streams per-slot (sent, lost) counters into it
// as its probes run, so the window's observations build up incrementally instead of arriving
// as one monolithic batch at window end. Slots can be invalidated mid-window (epoch bump) when
// ApplyTopologyDelta vacates them, which orphans every counter already buffered on the slot in
// O(slots) without scanning the shards; a slot reused by repair within the same window starts
// a fresh epoch, so the new occupant's counters never mix with the stale ones.
//
// Two dense read paths over the same records:
//  - Snapshot(): rebuilds the merged vector from every buffered record per call. O(records)
//    per call; kept as the reference semantics (the running totals are test-gated against it).
//  - RunningTotals(): maintained running dense totals — each record is folded in exactly once
//    (at the first serial read after it streams in), a slot invalidation retracts the slot's
//    contribution in O(1) by zeroing it, and watchdog changes retract/re-add only the flipped
//    node's records. This is what continuous per-segment diagnosis reads: cost per call is
//    O(new records since the last call + watchdog flips), not O(all records in the window).
//
// Threading contract: OpenShard/EnsureSlots/InvalidateSlots/Snapshot/RunningTotals run in
// serial phases; between them, each shard may be written by exactly one thread with no locking
// (shards never share mutable state, and slot epochs are only read during the parallel phase).
#ifndef SRC_DETECTOR_OBSERVATION_STORE_H_
#define SRC_DETECTOR_OBSERVATION_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "src/anomaly/rtt_sketch.h"
#include "src/localize/observations.h"
#include "src/routing/path_store.h"
#include "src/sim/watchdog.h"
#include "src/topo/topology.h"

namespace detector {

// One intra-rack (server-link) probe record; these live outside the slot space and are never
// invalidated by topology deltas (they age out when the window's buffer clears).
struct IntraRackObservation {
  NodeId pinger = kInvalidNode;
  NodeId target = kInvalidNode;
  int64_t sent = 0;
  int64_t lost = 0;
};

class ObservationStore {
 public:
  // Per-pinger accumulation bucket. Obtained via OpenShard; written by exactly one thread.
  class Shard {
   public:
    // Streams one probe-matrix observation. `slot` must be < the EnsureSlots bound; the record
    // is stamped with the slot's current epoch so a later invalidation orphans it.
    void RecordPath(PathId slot, NodeId target, int64_t sent, int64_t lost);
    // Streams one observation carrying an explicit epoch stamp — the report plane's fold path,
    // where the stamp is the epoch the emitter observed at probe time. A frame delivered
    // after the slot was invalidated therefore orphans exactly like a direct record written
    // before the invalidation would have.
    void RecordPathAtEpoch(PathId slot, uint32_t epoch, NodeId target, int64_t sent,
                           int64_t lost);
    // Streams one observation that also carries the path's RTT sample sketch (the anomaly
    // plane's direct-mode write). The sketch rides on the same record, so epoch orphaning and
    // watchdog retract/re-add apply to the loss counters and the sketch together. Callers
    // skip paths with no samples (empty sketch) rather than recording an allocated-zero one.
    // Only the sketch's non-zero bins are kept (in the shard's RTT arena), so the caller may
    // reuse `sketch` as soon as this returns.
    void RecordPathWithRtt(PathId slot, NodeId target, int64_t sent, int64_t lost,
                           const RttSketch& sketch);
    // RTT-sketch-only record with an explicit epoch stamp — the report plane's fold path for
    // extension records, whose loss counters travel in a separate wire record.
    void RecordPathRttAtEpoch(PathId slot, uint32_t epoch, NodeId target,
                              const RttSketch& sketch);
    // Streams one intra-rack (server-link) observation.
    void RecordIntraRack(NodeId target, int64_t sent, int64_t lost);

    NodeId pinger() const { return pinger_; }

   private:
    friend class ObservationStore;
    Shard(const ObservationStore* store, NodeId pinger) : store_(store), pinger_(pinger) {}

    // 40 bytes, no heap: a record's RTT sketch lives in the shard's rtt_bins_ arena as its
    // non-zero (bin, count) pairs [rtt_offset, rtt_offset + rtt_len), next to the sketch's
    // bin count (0 when the record carries no sketch — merging it is a no-op, like merging
    // an empty sketch).
    struct PathRecord {
      PathId slot;
      NodeId target;
      int64_t sent;
      int64_t lost;
      uint32_t epoch;  // slot epoch at record time; stale when the slot was since invalidated
      uint32_t rtt_offset = 0;
      uint16_t rtt_len = 0;
      uint16_t rtt_num_bins = 0;
    };

    // Appends the record, copying `sketch`'s non-zero bins into the arena.
    void Append(PathRecord record, const RttSketch& sketch);
    std::span<const RttBinCount> RttBins(const PathRecord& record) const {
      return std::span<const RttBinCount>(rtt_bins_).subspan(record.rtt_offset,
                                                             record.rtt_len);
    }

    const ObservationStore* store_;
    NodeId pinger_;
    std::vector<PathRecord> paths_;
    std::vector<RttBinCount> rtt_bins_;  // RTT arena, referenced by PathRecord::rtt_offset
    std::vector<IntraRackObservation> intra_;
    // Records below this index are reflected in the store's running totals (under the filter
    // and epochs applied at fold time); records at/after it stream in between serial reads.
    size_t folded_ = 0;
  };

  // Grows the slot-epoch table (and the running totals) to cover [0, num_slots). Serial phase
  // only: records may not be streamed for a slot the table does not cover yet.
  void EnsureSlots(size_t num_slots);

  // Returns the accumulation shard for `pinger`, creating it on first use. Serial phase only;
  // the returned reference stays valid until Clear().
  Shard& OpenShard(NodeId pinger);

  // Orphans every buffered counter on the given slots (stale after a mid-window topology delta
  // vacated them) by bumping the slots' epochs and zeroing their running totals in O(1) per
  // slot. Counters recorded afterwards — the slot's next occupant — accumulate normally under
  // the new epoch. Serial phase only.
  void InvalidateSlots(std::span<const PathId> slots);

  // Dense merged view over slots [0, num_slots): replica counters summed across shards, minus
  // records from watchdog-flagged pingers or towards watchdog-flagged targets, minus orphaned
  // epochs. The view aliases an internal buffer rebuilt per call — valid until the next
  // Snapshot/Clear, no copy handed to the consumer. Reference semantics for RunningTotals.
  ObservationView Snapshot(size_t num_slots, const Watchdog& watchdog) const;

  // Maintained running dense totals over slots [0, num_slots): folds the records streamed in
  // since the last call, reconciles the watchdog filter by retracting/re-adding only nodes
  // whose health flipped, and returns a zero-copy view over the totals. Bit-identical to
  // Snapshot() on the same state (integer counters, order-independent). Serial phase only; the
  // view is valid until the next EnsureSlots (growth reallocates the buffer the view
  // aliases), InvalidateSlots, RunningTotals or Clear.
  ObservationView RunningTotals(size_t num_slots, const Watchdog& watchdog);

  // Maintained running per-slot RTT sketches, kept by the same fold/retract machinery as the
  // loss totals (records carrying a sketch merge it when they fold, watchdog flips retract and
  // re-add it, slot invalidation resets it). Valid after the RunningTotals call that folded
  // the records. Lazily allocated: empty until the first sketch-carrying record folds, so
  // loss-only deployments pay nothing; slots beyond the span (or with an empty sketch) simply
  // accumulated no RTT samples.
  std::span<const RttSketch> RttRunningTotals() const { return rtt_running_; }

  // Reference semantics for RttRunningTotals (mirrors Snapshot): rebuilds the merged per-slot
  // sketches from every buffered record per call, under the same watchdog/epoch filter.
  std::vector<RttSketch> RttSnapshot(size_t num_slots, const Watchdog& watchdog) const;

  // Visits the buffered intra-rack records in place (shard open order, record order within a
  // shard), minus records from or towards watchdog-flagged servers.
  template <typename Visitor>
  void ForEachIntraRack(const Watchdog& watchdog, Visitor&& visit) const {
    for (const auto& shard : shards_) {
      if (!watchdog.IsHealthy(shard->pinger_)) {
        continue;
      }
      for (const IntraRackObservation& record : shard->intra_) {
        if (watchdog.IsHealthy(record.target)) {
          visit(record);
        }
      }
    }
  }
  // The same records, copied out.
  std::vector<IntraRackObservation> IntraRackObservations(const Watchdog& watchdog) const;

  // Slots whose running totals changed since the previous TakeDirtySlots call — folded
  // records, slot invalidations, watchdog retractions/re-adds, and table growth all mark their
  // slots. `all` short-circuits the list: everything must be treated as changed (initial
  // state, and after Clear). Consumed after RunningTotals at a diagnosis boundary, this is
  // exactly the dirty set incremental diagnosis needs; taking it resets the tracker. Serial
  // phase only.
  struct DirtySlots {
    bool all = false;
    std::vector<PathId> slots;  // unordered, duplicate-free
    // Slots whose running totals were adjusted by a watchdog health flip (retract on down,
    // re-add on recovery) since the previous take — changes with no epoch bump that are not
    // probe-time traffic. The diagnoser's sliding ring restarts these slots instead of
    // ingesting the adjustment as a (possibly negative) segment delta. Subset of the dirty
    // set; unordered, duplicate-free; tracked even while `all` is set.
    std::vector<PathId> watchdog_flipped;
  };
  DirtySlots TakeDirtySlots();

  // Drops every shard and resets all epochs and running totals (end of an aggregation window).
  void Clear();

  size_t num_slots() const { return slot_epoch_.size(); }
  size_t num_shards() const { return shards_.size(); }

  // Read-only view of the per-slot epochs, for report emitters stamping records with the
  // epoch current at probe time. Epochs mutate only at serial points, so the view may be read
  // during the parallel phase; it is invalidated by EnsureSlots growth and Clear.
  std::span<const uint32_t> slot_epochs() const { return slot_epoch_; }
  // Epoch of one slot (serial phase; slot must be < num_slots()). The diagnoser's sliding
  // ring keys its per-segment deltas by (slot, epoch) through this.
  uint32_t SlotEpoch(size_t slot) const { return slot_epoch_[slot]; }

 private:
  // Adds (`sign` = +1) or retracts (-1) the folded, current-epoch records involving `node` —
  // its shard's records (via shard_of_pinger_) plus records targeting it (via the per-target
  // index) — whose other party is not filtered. O(records involving node), not O(all records).
  // The caller keeps `node` itself out of applied_down_ while this runs so each record
  // adjusts exactly once.
  void AdjustForNode(NodeId node, int sign);
  // Folds records streamed in since the last serial read into the running totals and indexes
  // them by target.
  void FoldNewRecords();

  std::vector<std::unique_ptr<Shard>> shards_;  // stable addresses, creation order
  std::map<NodeId, size_t> shard_of_pinger_;    // ordered: snapshot order independent of churn
  std::vector<uint32_t> slot_epoch_;
  mutable Observations snapshot_;  // lazily materialized merged view (Snapshot path)
  // Running-totals state: running_[slot] always equals the sum of folded records whose epoch
  // is the slot's current one and whose pinger/target are outside applied_down_.
  Observations running_;
  // Running per-slot RTT sketches, parallel to running_ once allocated (first sketch fold).
  std::vector<RttSketch> rtt_running_;
  // Sizes rtt_running_ to the slot table on the first sketch-carrying fold/adjust.
  void EnsureRttRunning();
  std::set<NodeId> applied_down_;  // watchdog filter currently reflected in running_
  // Folded records by target server, as (shard, record index) — a watchdog flip of a target
  // retracts/re-adds only that node's records instead of scanning every shard. Built lazily
  // at the first flip (one O(folded records) scan) so the common no-flip batch window pays
  // nothing; once built, folding keeps it current.
  void BuildTargetIndex();
  bool target_index_built_ = false;
  std::map<NodeId, std::vector<std::pair<const Shard*, size_t>>> records_by_target_;

  // Marks a slot's running total as changed since the last TakeDirtySlots. O(1), dedup'ed.
  void MarkDirty(size_t slot);
  // Marks a slot as adjusted by a watchdog flip — unlike MarkDirty this records even under
  // all_dirty_, because the consumer needs to know *which* dirty slots were flip-adjusted.
  void MarkWatchdogFlipped(size_t slot);
  bool all_dirty_ = true;             // nothing taken yet / Clear(): treat everything as changed
  std::vector<uint8_t> slot_dirty_;   // parallel to slot_epoch_
  std::vector<PathId> dirty_slots_;
  std::vector<uint8_t> slot_flipped_; // parallel to slot_epoch_
  std::vector<PathId> flipped_slots_;
};

}  // namespace detector

#endif  // SRC_DETECTOR_OBSERVATION_STORE_H_
