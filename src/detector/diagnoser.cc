#include "src/detector/diagnoser.h"

#include <algorithm>
#include <cmath>

namespace detector {

void Diagnoser::DirtyAccum::Merge(const ObservationStore::DirtySlots& taken) {
  if (all) {
    return;
  }
  if (taken.all) {
    Reset(/*to_all=*/true);
    return;
  }
  for (const PathId slot : taken.slots) {
    Add(static_cast<size_t>(slot));
  }
}

void Diagnoser::DirtyAccum::Add(size_t slot) {
  if (all) {
    return;
  }
  if (slot >= mark.size()) {
    mark.resize(slot + 1, 0);
  }
  if (!mark[slot]) {
    mark[slot] = 1;
    slots.push_back(static_cast<PathId>(slot));
  }
}

void Diagnoser::DirtyAccum::Reset(bool to_all) {
  all = to_all;
  for (const PathId slot : slots) {
    mark[static_cast<size_t>(slot)] = 0;
  }
  slots.clear();
}

void Diagnoser::Ingest(const PingerWindowResult& window) {
  PathId max_slot = -1;
  for (const PathReport& report : window.reports) {
    max_slot = std::max(max_slot, report.path_id);
  }
  if (max_slot >= 0) {
    store_.EnsureSlots(static_cast<size_t>(max_slot) + 1);
  }
  ObservationStore::Shard& shard = store_.OpenShard(window.pinger);
  for (const PathReport& report : window.reports) {
    if (report.path_id == PinglistEntry::kIntraRackPath) {
      shard.RecordIntraRack(report.target, report.sent, report.lost);
    } else if (report.path_id >= 0) {
      shard.RecordPath(report.path_id, report.target, report.sent, report.lost);
    }
  }
}

void Diagnoser::InvalidateLocalizeCache() {
  running_state_.structure_valid = false;
  trailing_state_.structure_valid = false;
  decay_state_.structure_valid = false;
  running_dirty_.Reset(/*to_all=*/true);
  trailing_dirty_.Reset(/*to_all=*/true);
  decay_dirty_.Reset(/*to_all=*/true);
}

Observations Diagnoser::AggregatedObservations(const ProbeMatrix& matrix,
                                               const Watchdog& watchdog) const {
  const ObservationView view = store_.Snapshot(matrix.NumPaths(), watchdog);
  return Observations(view.begin(), view.end());
}

std::vector<ServerLinkAlarm> Diagnoser::ServerLinkAlarms(const Watchdog& watchdog) const {
  std::vector<ServerLinkAlarm> alarms;
  store_.ForEachIntraRack(watchdog, [&](const IntraRackObservation& record) {
    if (record.sent == 0) {
      return;
    }
    const double ratio = static_cast<double>(record.lost) / static_cast<double>(record.sent);
    if (record.lost >= options_.preprocess.min_lost_packets &&
        ratio > options_.preprocess.path_loss_ratio_threshold) {
      alarms.push_back(ServerLinkAlarm{record.pinger, record.target, ratio});
    }
  });
  return alarms;
}

ObservationView Diagnoser::RefreshTotals(const ProbeMatrix& matrix, const Watchdog& watchdog,
                                         ObservationStore::DirtySlots* taken) {
  const ObservationView view = store_.RunningTotals(matrix.NumPaths(), watchdog);
  ObservationStore::DirtySlots dirty = store_.TakeDirtySlots();
  running_dirty_.Merge(dirty);
  if (taken != nullptr) {
    *taken = std::move(dirty);
  }
  return view;
}

void Diagnoser::AdvanceSegment(const ProbeMatrix& matrix, const Watchdog& watchdog) {
  ObservationStore::DirtySlots segment_dirty;
  const ObservationView view = RefreshTotals(matrix, watchdog, &segment_dirty);
  const size_t num_slots = view.size();
  if (sliding_segments_ <= 0 && decay_factor_ <= 0.0) {
    return;
  }
  if (boundary_totals_.size() < num_slots) {
    boundary_totals_.resize(num_slots, PathObservation{});
    boundary_epoch_.resize(num_slots, 0);
    trailing_.resize(num_slots, PathObservation{});
  }

  // Watchdog flips adjust the running totals without an epoch bump, and a retraction is not
  // probe traffic: pushed as a delta it would ride the ring as transiently negative (sent,
  // lost) sums that preprocessing must treat as unusable. Restart flipped slots instead —
  // purge their ring history, re-cut the boundary at the adjusted totals, reset their decayed
  // values — so the trailing view resumes from the flip carrying real traffic only.
  std::vector<uint8_t> flipped_mark;
  if (!segment_dirty.watchdog_flipped.empty()) {
    flipped_mark.resize(num_slots, 0);
    for (const PathId slot : segment_dirty.watchdog_flipped) {
      if (slot >= 0 && static_cast<size_t>(slot) < num_slots) {
        flipped_mark[static_cast<size_t>(slot)] = 1;
      }
    }
  }
  std::vector<size_t> restarted;

  // The boundary's sparse delta: totals now minus totals at the previous boundary, nonzero
  // only on slots the store marked dirty this segment.
  std::vector<DeltaEntry> delta;
  auto fold_slot = [&](size_t slot) {
    const uint32_t epoch = store_.SlotEpoch(slot);
    if (!flipped_mark.empty() && flipped_mark[slot]) {
      PurgeRingEntries(slot, epoch, /*all_epochs=*/true);
      boundary_totals_[slot] = view[slot];
      boundary_epoch_[slot] = epoch;
      restarted.push_back(slot);
      return;
    }
    if (epoch != boundary_epoch_[slot]) {
      // The slot was invalidated (and possibly reused by repair) since the last boundary:
      // the store zeroed its running total, so a plain totals-vs-boundary delta would mix
      // the retraction with the new occupant's counters and leave the trailing sum negative.
      // Purge the dead epoch's deltas from the ring and cut this delta against zero, so the
      // trailing view sees exactly the new occupant's observations — no blind spot.
      PurgeRingEntries(slot, epoch, /*all_epochs=*/false);
      boundary_totals_[slot] = PathObservation{};
      boundary_epoch_[slot] = epoch;
    }
    const int64_t d_sent = view[slot].sent - boundary_totals_[slot].sent;
    const int64_t d_lost = view[slot].lost - boundary_totals_[slot].lost;
    if (d_sent != 0 || d_lost != 0) {
      delta.push_back(DeltaEntry{static_cast<PathId>(slot), epoch, d_sent, d_lost});
      boundary_totals_[slot] = view[slot];
    }
  };
  if (segment_dirty.all) {
    for (size_t slot = 0; slot < num_slots; ++slot) {
      fold_slot(slot);
    }
  } else {
    for (const PathId slot : segment_dirty.slots) {
      if (slot >= 0 && static_cast<size_t>(slot) < num_slots) {
        fold_slot(static_cast<size_t>(slot));
      }
    }
  }

  if (decay_factor_ > 0.0 && decay_quantized_) {
    if (qdecayed_.size() < num_slots) {
      qdecayed_.resize(num_slots, PathObservation{});
      decay_active_mark_.resize(num_slots, 0);
    }
    for (const size_t slot : restarted) {
      if (qdecayed_[slot].sent != 0 || qdecayed_[slot].lost != 0) {
        qdecayed_[slot] = PathObservation{};
        decay_dirty_.Add(slot);
      }
    }
    // Shift-based halving at fixed boundaries: decay_factor^period ~ 1/2, so one >>= 1 every
    // `period` boundaries replaces a float multiply over every active slot every boundary.
    // Only halving boundaries dirty the whole active set; every other boundary perturbs just
    // the delta's slots, which is what lets DiagnoseDecayed ride LocalizeIncremental.
    ++decay_boundaries_;
    if (decay_boundaries_ % DecayHalvingPeriod() == 0) {
      size_t kept = 0;
      for (const size_t slot : decay_active_) {
        PathObservation& totals = qdecayed_[slot];
        totals.sent >>= 1;
        totals.lost >>= 1;
        decay_dirty_.Add(slot);
        if (totals.sent == 0 && totals.lost == 0) {
          decay_active_mark_[slot] = 0;  // decayed away — leaves the active set for good
        } else {
          decay_active_[kept++] = slot;
        }
      }
      decay_active_.resize(kept);
    }
    for (const DeltaEntry& entry : delta) {
      const size_t slot = static_cast<size_t>(entry.slot);
      qdecayed_[slot].sent += entry.sent;
      qdecayed_[slot].lost += entry.lost;
      decay_dirty_.Add(slot);
      if (!decay_active_mark_[slot]) {
        decay_active_mark_[slot] = 1;
        decay_active_.push_back(slot);
      }
    }
  } else if (decay_factor_ > 0.0) {
    if (decayed_sent_.size() < num_slots) {
      decayed_sent_.resize(num_slots, 0.0);
      decayed_lost_.resize(num_slots, 0.0);
      decay_active_mark_.resize(num_slots, 0);
    }
    for (const size_t slot : restarted) {
      decayed_sent_[slot] = 0.0;
      decayed_lost_[slot] = 0.0;
    }
    for (const size_t slot : decay_active_) {
      decayed_sent_[slot] *= decay_factor_;
      decayed_lost_[slot] *= decay_factor_;
    }
    for (const DeltaEntry& entry : delta) {
      const size_t slot = static_cast<size_t>(entry.slot);
      decayed_sent_[slot] += static_cast<double>(entry.sent);
      decayed_lost_[slot] += static_cast<double>(entry.lost);
      if (!decay_active_mark_[slot]) {
        decay_active_mark_[slot] = 1;
        decay_active_.push_back(slot);
      }
    }
  }

  if (sliding_segments_ > 0) {
    for (const DeltaEntry& entry : delta) {
      const size_t slot = static_cast<size_t>(entry.slot);
      trailing_[slot].sent += entry.sent;
      trailing_[slot].lost += entry.lost;
      trailing_dirty_.Add(slot);
    }
    ring_.push_back(std::move(delta));
    if (static_cast<int>(ring_.size()) > sliding_segments_) {
      for (const DeltaEntry& entry : ring_.front()) {
        const size_t slot = static_cast<size_t>(entry.slot);
        trailing_[slot].sent -= entry.sent;
        trailing_[slot].lost -= entry.lost;
        trailing_dirty_.Add(slot);
      }
      ring_.pop_front();
    }
  }
}

void Diagnoser::PurgeRingEntries(size_t slot, uint32_t current_epoch, bool all_epochs) {
  for (std::vector<DeltaEntry>& segment : ring_) {
    size_t kept = 0;
    for (const DeltaEntry& entry : segment) {
      if (static_cast<size_t>(entry.slot) == slot &&
          (all_epochs || entry.epoch != current_epoch)) {
        trailing_[slot].sent -= entry.sent;
        trailing_[slot].lost -= entry.lost;
        trailing_dirty_.Add(slot);
      } else {
        segment[kept++] = entry;
      }
    }
    segment.resize(kept);
  }
}

LocalizeResult Diagnoser::DiagnoseRunning(const ProbeMatrix& matrix, const Watchdog& watchdog) {
  const ObservationView view = RefreshTotals(matrix, watchdog, nullptr);
  LocalizeResult result = pll_.LocalizeIncremental(matrix, view, running_dirty_.slots,
                                                   running_dirty_.all, running_state_);
  running_dirty_.Reset(/*to_all=*/false);
  return result;
}

LocalizeResult Diagnoser::DiagnoseRunningFull(const ProbeMatrix& matrix,
                                              const Watchdog& watchdog) {
  // RunningTotals folds pending records (marking their slots dirty for later incremental
  // consumers); the full localization itself reads the view statelessly.
  return pll_.LocalizeView(matrix, store_.RunningTotals(matrix.NumPaths(), watchdog));
}

ObservationView Diagnoser::TrailingTotals(size_t num_slots) {
  if (trailing_.size() < num_slots) {
    boundary_totals_.resize(num_slots, PathObservation{});
    trailing_.resize(num_slots, PathObservation{});
  }
  return ObservationView(trailing_.data(), num_slots);
}

LocalizeResult Diagnoser::DiagnoseTrailing(const ProbeMatrix& matrix,
                                           const Watchdog& /*watchdog*/) {
  // The watchdog filter is already reflected in the totals the segment deltas were cut from.
  const size_t num_slots = matrix.NumPaths();
  if (trailing_.size() < num_slots) {
    boundary_totals_.resize(num_slots, PathObservation{});
    trailing_.resize(num_slots, PathObservation{});
  }
  const ObservationView view(trailing_.data(), num_slots);
  LocalizeResult result = pll_.LocalizeIncremental(matrix, view, trailing_dirty_.slots,
                                                   trailing_dirty_.all, trailing_state_);
  trailing_dirty_.Reset(/*to_all=*/false);
  return result;
}

int64_t Diagnoser::DecayHalvingPeriod() const {
  if (decay_factor_ <= 0.0 || decay_factor_ >= 1.0) {
    return 1;
  }
  return std::max<int64_t>(1, std::llround(std::log(0.5) / std::log(decay_factor_)));
}

LocalizeResult Diagnoser::DiagnoseDecayed(const ProbeMatrix& matrix,
                                          const Watchdog& /*watchdog*/) {
  // As in DiagnoseTrailing: the filter is already applied to the deltas' source totals.
  const size_t num_slots = matrix.NumPaths();
  if (decay_quantized_) {
    if (qdecayed_.size() < num_slots) {
      qdecayed_.resize(num_slots, PathObservation{});
    }
    const ObservationView view(qdecayed_.data(), num_slots);
    LocalizeResult result = pll_.LocalizeIncremental(matrix, view, decay_dirty_.slots,
                                                     decay_dirty_.all, decay_state_);
    decay_dirty_.Reset(/*to_all=*/false);
    return result;
  }
  decayed_rounded_.assign(num_slots, PathObservation{});
  for (const size_t slot : decay_active_) {
    if (slot < num_slots) {
      decayed_rounded_[slot].sent = std::llround(decayed_sent_[slot]);
      decayed_rounded_[slot].lost = std::llround(decayed_lost_[slot]);
    }
  }
  return pll_.LocalizeView(matrix, ObservationView(decayed_rounded_.data(), num_slots));
}

LocalizeResult Diagnoser::Diagnose(const ProbeMatrix& matrix, const Watchdog& watchdog) {
  LocalizeResult result =
      pll_.LocalizeView(matrix, store_.RunningTotals(matrix.NumPaths(), watchdog));
  store_.Clear();
  ResetWindowState();
  return result;
}

void Diagnoser::ResetWindowState() {
  running_dirty_.Reset(/*to_all=*/true);
  trailing_dirty_.Reset(/*to_all=*/true);
  decay_dirty_.Reset(/*to_all=*/true);
  ring_.clear();
  boundary_totals_.assign(boundary_totals_.size(), PathObservation{});
  boundary_epoch_.assign(boundary_epoch_.size(), 0);  // store epochs reset with the window
  trailing_.assign(trailing_.size(), PathObservation{});
  decayed_sent_.assign(decayed_sent_.size(), 0.0);
  decayed_lost_.assign(decayed_lost_.size(), 0.0);
  qdecayed_.assign(qdecayed_.size(), PathObservation{});
  decay_boundaries_ = 0;
  for (const size_t slot : decay_active_) {
    decay_active_mark_[slot] = 0;
  }
  decay_active_.clear();
}

void Diagnoser::Clear() {
  store_.Clear();
  ResetWindowState();
}

}  // namespace detector
