#include "src/detector/observation_store.h"

#include "src/common/check.h"

namespace detector {

void ObservationStore::Shard::RecordPath(PathId slot, NodeId target, int64_t sent,
                                         int64_t lost) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  paths_.push_back(PathRecord{slot, target, sent, lost,
                              store_->slot_epoch_[static_cast<size_t>(slot)]});
}

void ObservationStore::Shard::RecordPathAtEpoch(PathId slot, uint32_t epoch, NodeId target,
                                                int64_t sent, int64_t lost) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  paths_.push_back(PathRecord{slot, target, sent, lost, epoch});
}

void ObservationStore::Shard::RecordPathWithRtt(PathId slot, NodeId target, int64_t sent,
                                                int64_t lost, const RttSketch& sketch) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  DCHECK(!sketch.empty()) << "record RTT-less paths via RecordPath";
  Append(PathRecord{slot, target, sent, lost, store_->slot_epoch_[static_cast<size_t>(slot)]},
         sketch);
}

void ObservationStore::Shard::RecordPathRttAtEpoch(PathId slot, uint32_t epoch, NodeId target,
                                                   const RttSketch& sketch) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  DCHECK(!sketch.empty());
  Append(PathRecord{slot, target, 0, 0, epoch}, sketch);
}

void ObservationStore::Shard::Append(PathRecord record, const RttSketch& sketch) {
  static_assert(RttSketch::kMaxBins <= UINT16_MAX, "bin counts must fit PathRecord");
  CHECK(rtt_bins_.size() <= UINT32_MAX - static_cast<size_t>(RttSketch::kMaxBins))
      << "RTT arena offset overflow";
  record.rtt_offset = static_cast<uint32_t>(rtt_bins_.size());
  sketch.AppendNonZero(rtt_bins_);
  record.rtt_len = static_cast<uint16_t>(rtt_bins_.size() - record.rtt_offset);
  record.rtt_num_bins = static_cast<uint16_t>(sketch.num_bins());
  paths_.push_back(record);
}

void ObservationStore::Shard::RecordIntraRack(NodeId target, int64_t sent, int64_t lost) {
  intra_.push_back(IntraRackObservation{pinger_, target, sent, lost});
}

void ObservationStore::EnsureSlots(size_t num_slots) {
  if (num_slots > slot_epoch_.size()) {
    const size_t old_size = slot_epoch_.size();
    slot_epoch_.resize(num_slots, 0);
    running_.resize(num_slots, PathObservation{});
    if (!rtt_running_.empty()) {
      rtt_running_.resize(num_slots);
    }
    slot_dirty_.resize(num_slots, 0);
    slot_flipped_.resize(num_slots, 0);
    for (size_t slot = old_size; slot < num_slots; ++slot) {
      MarkDirty(slot);  // new slots enter the diagnosable domain: treat as changed
    }
  }
}

void ObservationStore::EnsureRttRunning() {
  if (rtt_running_.empty()) {
    rtt_running_.resize(slot_epoch_.size());
  }
}

void ObservationStore::MarkDirty(size_t slot) {
  if (all_dirty_ || slot_dirty_[slot]) {
    return;
  }
  slot_dirty_[slot] = 1;
  dirty_slots_.push_back(static_cast<PathId>(slot));
}

void ObservationStore::MarkWatchdogFlipped(size_t slot) {
  if (slot_flipped_[slot]) {
    return;
  }
  slot_flipped_[slot] = 1;
  flipped_slots_.push_back(static_cast<PathId>(slot));
}

ObservationStore::DirtySlots ObservationStore::TakeDirtySlots() {
  DirtySlots taken;
  taken.all = all_dirty_;
  taken.slots = std::move(dirty_slots_);
  dirty_slots_.clear();
  for (const PathId slot : taken.slots) {
    slot_dirty_[static_cast<size_t>(slot)] = 0;
  }
  taken.watchdog_flipped = std::move(flipped_slots_);
  flipped_slots_.clear();
  for (const PathId slot : taken.watchdog_flipped) {
    slot_flipped_[static_cast<size_t>(slot)] = 0;
  }
  all_dirty_ = false;
  return taken;
}

ObservationStore::Shard& ObservationStore::OpenShard(NodeId pinger) {
  auto [it, inserted] = shard_of_pinger_.try_emplace(pinger, shards_.size());
  if (inserted) {
    shards_.emplace_back(new Shard(this, pinger));
  }
  return *shards_[it->second];
}

void ObservationStore::InvalidateSlots(std::span<const PathId> slots) {
  for (const PathId slot : slots) {
    if (slot >= 0 && static_cast<size_t>(slot) < slot_epoch_.size()) {
      // Every contribution in the running totals is from the current epoch, so the bump
      // retracts the whole slot by zeroing — no record scan. Unfolded records on the old epoch
      // are skipped at fold time by the epoch check.
      ++slot_epoch_[static_cast<size_t>(slot)];
      running_[static_cast<size_t>(slot)] = PathObservation{};
      if (static_cast<size_t>(slot) < rtt_running_.size()) {
        rtt_running_[static_cast<size_t>(slot)].Clear();
      }
      MarkDirty(static_cast<size_t>(slot));
    }
  }
}

ObservationView ObservationStore::Snapshot(size_t num_slots, const Watchdog& watchdog) const {
  snapshot_.assign(num_slots, PathObservation{});
  for (const auto& shard : shards_) {
    if (!watchdog.IsHealthy(shard->pinger_)) {
      continue;  // outlier removal (§5.1): a bad pinger fabricates losses everywhere
    }
    for (const Shard::PathRecord& record : shard->paths_) {
      const size_t slot = static_cast<size_t>(record.slot);
      if (slot >= num_slots || record.epoch != slot_epoch_[slot]) {
        continue;  // beyond the matrix, or orphaned by a mid-window invalidation
      }
      if (!watchdog.IsHealthy(record.target)) {
        continue;
      }
      snapshot_[slot].sent += record.sent;
      snapshot_[slot].lost += record.lost;
    }
  }
  return snapshot_;
}

void ObservationStore::AdjustForNode(NodeId node, int sign) {
  auto adjust = [&](const Shard& owner, const Shard::PathRecord& record) {
    const size_t slot = static_cast<size_t>(record.slot);
    if (record.epoch != slot_epoch_[slot]) {
      return;  // orphaned: never part of the running totals
    }
    running_[slot].sent += sign * record.sent;
    running_[slot].lost += sign * record.lost;
    if (record.rtt_num_bins != 0) {
      EnsureRttRunning();
      rtt_running_[slot].MergeSparse(record.rtt_num_bins, owner.RttBins(record), sign);
    }
    MarkDirty(slot);
    MarkWatchdogFlipped(slot);
  };
  // Pinger role: the node's own shard, minus records excluded by a still-filtered target.
  const auto shard_it = shard_of_pinger_.find(node);
  if (shard_it != shard_of_pinger_.end()) {
    const Shard& shard = *shards_[shard_it->second];
    for (size_t i = 0; i < shard.folded_; ++i) {
      const Shard::PathRecord& record = shard.paths_[i];
      // node itself is outside applied_down_ (caller contract), so this also admits
      // records whose target is the node.
      if (applied_down_.count(record.target) == 0) {
        adjust(shard, record);
      }
    }
  }
  // Target role: records towards the node from other shards (its own were handled above),
  // minus shards excluded by a still-filtered pinger.
  if (!target_index_built_) {
    BuildTargetIndex();
  }
  const auto by_target = records_by_target_.find(node);
  if (by_target != records_by_target_.end()) {
    for (const auto& [shard, index] : by_target->second) {
      if (shard->pinger_ != node && applied_down_.count(shard->pinger_) == 0) {
        adjust(*shard, shard->paths_[index]);
      }
    }
  }
}

void ObservationStore::BuildTargetIndex() {
  records_by_target_.clear();
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < shard->folded_; ++i) {
      records_by_target_[shard->paths_[i].target].emplace_back(shard.get(), i);
    }
  }
  target_index_built_ = true;
}

void ObservationStore::FoldNewRecords() {
  for (const auto& shard : shards_) {
    const bool pinger_down = applied_down_.count(shard->pinger_) > 0;
    for (size_t i = shard->folded_; i < shard->paths_.size(); ++i) {
      const Shard::PathRecord& record = shard->paths_[i];
      const size_t slot = static_cast<size_t>(record.slot);
      if (!pinger_down && record.epoch == slot_epoch_[slot] &&
          applied_down_.count(record.target) == 0) {
        running_[slot].sent += record.sent;
        running_[slot].lost += record.lost;
        if (record.rtt_num_bins != 0) {
          EnsureRttRunning();
          rtt_running_[slot].MergeSparse(record.rtt_num_bins, shard->RttBins(record));
        }
        MarkDirty(slot);
      }
      // Filtered and orphaned records still count as folded (and indexed): if their
      // pinger/target later recovers, AdjustForNode(+1) re-adds exactly the ones whose epoch
      // is still current.
      if (target_index_built_) {
        records_by_target_[record.target].emplace_back(shard.get(), i);
      }
    }
    shard->folded_ = shard->paths_.size();
  }
}

ObservationView ObservationStore::RunningTotals(size_t num_slots, const Watchdog& watchdog) {
  EnsureSlots(num_slots);
  // Reconcile the applied filter with the watchdog: only nodes whose health flipped since the
  // last call cost a record scan; steady state costs nothing. The order nodes are processed in
  // cannot leak into the totals — integer sums, and each step adjusts exactly the records
  // whose contribution flips under the final down-set.
  std::vector<NodeId> back_up;
  for (const NodeId node : applied_down_) {
    if (watchdog.IsHealthy(node)) {
      back_up.push_back(node);
    }
  }
  for (const NodeId node : back_up) {
    applied_down_.erase(node);
    AdjustForNode(node, +1);
  }
  for (const NodeId node : watchdog.down()) {
    if (applied_down_.count(node) == 0) {
      AdjustForNode(node, -1);
      applied_down_.insert(node);
    }
  }
  FoldNewRecords();
  return ObservationView(running_.data(), num_slots);
}

std::vector<RttSketch> ObservationStore::RttSnapshot(size_t num_slots,
                                                     const Watchdog& watchdog) const {
  std::vector<RttSketch> out(num_slots);
  for (const auto& shard : shards_) {
    if (!watchdog.IsHealthy(shard->pinger_)) {
      continue;
    }
    for (const Shard::PathRecord& record : shard->paths_) {
      const size_t slot = static_cast<size_t>(record.slot);
      if (record.rtt_num_bins == 0 || slot >= num_slots || record.epoch != slot_epoch_[slot] ||
          !watchdog.IsHealthy(record.target)) {
        continue;
      }
      out[slot].MergeSparse(record.rtt_num_bins, shard->RttBins(record));
    }
  }
  return out;
}

std::vector<IntraRackObservation> ObservationStore::IntraRackObservations(
    const Watchdog& watchdog) const {
  std::vector<IntraRackObservation> out;
  ForEachIntraRack(watchdog, [&](const IntraRackObservation& record) { out.push_back(record); });
  return out;
}

void ObservationStore::Clear() {
  shards_.clear();
  shard_of_pinger_.clear();
  slot_epoch_.assign(slot_epoch_.size(), 0);
  running_.assign(running_.size(), PathObservation{});
  for (RttSketch& sketch : rtt_running_) {
    sketch.Clear();  // keeps each slot's bin storage for the next window
  }
  applied_down_.clear();
  records_by_target_.clear();
  target_index_built_ = false;
  all_dirty_ = true;
  dirty_slots_.clear();
  slot_dirty_.assign(slot_dirty_.size(), 0);
  flipped_slots_.clear();
  slot_flipped_.assign(slot_flipped_.size(), 0);
}

}  // namespace detector
