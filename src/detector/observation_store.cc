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
                                                int64_t lost, int num_bins,
                                                std::span<const RttBinCount> bins) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  Append(PathRecord{slot, target, sent, lost, store_->slot_epoch_[static_cast<size_t>(slot)]},
         num_bins, bins);
}

void ObservationStore::Shard::RecordPathRttAtEpoch(PathId slot, uint32_t epoch, NodeId target,
                                                   int num_bins,
                                                   std::span<const RttBinCount> bins) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  Append(PathRecord{slot, target, 0, 0, epoch}, num_bins, bins);
}

void ObservationStore::Shard::Append(PathRecord record, int num_bins,
                                     std::span<const RttBinCount> bins) {
  static_assert(RttSketch::kMaxBins <= UINT16_MAX, "bin counts must fit PathRecord");
  DCHECK(num_bins >= RttSketch::kSubBins && num_bins <= RttSketch::kMaxBins)
      << "record RTT-less paths via RecordPath";
  DCHECK(bins.size() <= static_cast<size_t>(num_bins));
  CHECK(rtt_bins_.size() <= UINT32_MAX - static_cast<size_t>(RttSketch::kMaxBins))
      << "RTT arena offset overflow";
  record.rtt_offset = static_cast<uint32_t>(rtt_bins_.size());
  rtt_bins_.insert(rtt_bins_.end(), bins.begin(), bins.end());
  record.rtt_len = static_cast<uint16_t>(bins.size());
  record.rtt_num_bins = static_cast<uint16_t>(num_bins);
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

void ObservationStore::MergeRtt(size_t slot, int num_bins, std::span<const RttBinCount> bins,
                                int64_t sign) {
  EnsureRttRunning();
  rtt_running_[slot].MergeSparse(num_bins, bins, sign);
  for (const RttBinCount& entry : bins) {
    rtt_log_.push_back(RttLogEntry{static_cast<int32_t>(slot), entry.bin, sign * entry.count});
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
    auto spare = spare_shards_.find(pinger);
    if (spare == spare_shards_.end()) {
      spare = spare_shards_.begin();  // a pinger new this window takes any spare
    }
    if (spare == spare_shards_.end()) {
      shards_.emplace_back(new Shard(this, pinger));
    } else {
      shards_.push_back(std::move(spare->second));
      spare_shards_.erase(spare);
      shards_.back()->pinger_ = pinger;
    }
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
        RttSketch& rtt = rtt_running_[static_cast<size_t>(slot)];
        const std::span<const int64_t> counts = rtt.counts();
        for (size_t bin = 0; bin < counts.size(); ++bin) {
          if (counts[bin] != 0) {
            rtt_log_.push_back(RttLogEntry{slot, static_cast<int32_t>(bin), -counts[bin]});
          }
        }
        rtt.Clear();
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
      MergeRtt(slot, record.rtt_num_bins, owner.RttBins(record), sign);
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
          MergeRtt(slot, record.rtt_num_bins, shard->RttBins(record), 1);
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

const RttDelta& ObservationStore::TakeRttDelta() {
  rtt_delta_.Clear();
  if (rtt_log_.empty()) {
    return rtt_delta_;
  }
  // Counting sort by slot (stable): count, prefix-sum into group starts, scatter — after the
  // scatter rtt_group_end_[s] is one past slot s's last entry.
  const size_t num_slots = rtt_running_.size();
  rtt_group_end_.assign(num_slots, 0);
  for (const RttLogEntry& entry : rtt_log_) {
    ++rtt_group_end_[static_cast<size_t>(entry.slot)];
  }
  uint32_t start = 0;
  for (uint32_t& slot_end : rtt_group_end_) {
    const uint32_t count = slot_end;
    slot_end = start;
    start += count;
  }
  rtt_grouped_.resize(rtt_log_.size());
  for (const RttLogEntry& entry : rtt_log_) {
    rtt_grouped_[rtt_group_end_[static_cast<size_t>(entry.slot)]++] =
        RttBinCount{entry.bin, entry.count};
  }
  rtt_log_.clear();
  uint32_t begin = 0;
  for (size_t slot = 0; slot < num_slots; ++slot) {
    const uint32_t end = rtt_group_end_[slot];
    if (end == begin) {
      continue;
    }
    // Normalize the slot's group in place: bins ascending, equal bins summed, zeros dropped.
    const auto first = rtt_grouped_.begin() + begin;
    const auto last = rtt_grouped_.begin() + end;
    for (auto it = first + 1; it < last; ++it) {  // insertion sort: groups are tiny
      const RttBinCount entry = *it;
      auto hole = it;
      for (; hole != first && (hole - 1)->bin > entry.bin; --hole) {
        *hole = *(hole - 1);
      }
      *hole = entry;
    }
    auto out = first;
    for (auto it = first; it != last;) {
      RttBinCount sum{it->bin, 0};
      for (; it != last && it->bin == sum.bin; ++it) {
        sum.count += it->count;
      }
      if (sum.count != 0) {
        *out++ = sum;
      }
    }
    rtt_delta_.Append(static_cast<int32_t>(slot), rtt_running_[slot].num_bins(),
                      std::span<const RttBinCount>(&*first, static_cast<size_t>(out - first)));
    begin = end;
  }
  return rtt_delta_;
}

void ObservationStore::RebaseRttDelta() {
  rtt_log_.clear();
  for (size_t slot = 0; slot < rtt_running_.size(); ++slot) {
    const std::span<const int64_t> counts = rtt_running_[slot].counts();
    for (size_t bin = 0; bin < counts.size(); ++bin) {
      if (counts[bin] != 0) {
        rtt_log_.push_back(
            RttLogEntry{static_cast<int32_t>(slot), static_cast<int32_t>(bin), counts[bin]});
      }
    }
  }
}

void ObservationStore::SwapRttRunningTotals(std::vector<RttSketch>& out) {
  rtt_running_.swap(out);
  if (!rtt_running_.empty()) {
    for (RttSketch& sketch : rtt_running_) {
      sketch.Clear();
    }
    rtt_running_.resize(slot_epoch_.size());
  }
  rtt_log_.clear();
}

std::vector<IntraRackObservation> ObservationStore::IntraRackObservations(
    const Watchdog& watchdog) const {
  std::vector<IntraRackObservation> out;
  ForEachIntraRack(watchdog, [&](const IntraRackObservation& record) { out.push_back(record); });
  return out;
}

void ObservationStore::Clear() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->paths_.clear();
    shard->rtt_bins_.clear();
    shard->intra_.clear();
    shard->folded_ = 0;
    spare_shards_[shard->pinger_] = std::move(shard);
  }
  shards_.clear();
  shard_of_pinger_.clear();
  slot_epoch_.assign(slot_epoch_.size(), 0);
  running_.assign(running_.size(), PathObservation{});
  for (RttSketch& sketch : rtt_running_) {
    sketch.Clear();  // keeps each slot's bin storage for the next window
  }
  rtt_log_.clear();
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
