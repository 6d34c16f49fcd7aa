#include "src/detector/pinger.h"

#include <algorithm>

namespace detector {

namespace {

// Intra-rack entries towards a watchdog-flagged server are skipped at execution time. Server
// churn dispatched through UpdatePinglists removes such entries from the standing pinglists
// outright (diffs key them by (path, target)); this probe-time skip is defense-in-depth for
// servers flagged outside the delta flow (e.g. a watchdog MarkDown with no topology delta) —
// probing a downed server only burns budget and records counters the diagnoser would discard
// anyway. Matrix entries are not filtered here — server churn re-dispatches them off downed
// endpoints through UpdatePinglists.
bool EntryEligible(const PinglistEntry& entry, const Watchdog* watchdog) {
  return entry.path_id != PinglistEntry::kIntraRackPath || watchdog == nullptr ||
         watchdog->IsHealthy(entry.target_server);
}

}  // namespace

template <typename Sink>
PingerTraffic Pinger::RunEntries(const ProbeEngine& engine, double window_seconds, Rng& rng,
                                 const Watchdog* watchdog, Sink&& sink) const {
  PingerTraffic traffic;
  int64_t eligible = 0;
  for (const PinglistEntry& entry : pinglist_->entries) {
    eligible += EntryEligible(entry, watchdog) ? 1 : 0;
  }
  if (eligible == 0) {
    return traffic;
  }
  const int64_t budget =
      std::max<int64_t>(1, static_cast<int64_t>(pinglist_->packets_per_second * window_seconds));
  const int64_t per_entry = std::max<int64_t>(1, budget / eligible);
  // When filtering skipped entries, their budget share is redistributed over the live ones;
  // the integer split truncates, so the remainder goes one extra packet at a time to the
  // first eligible entries in pinglist order. The assignment depends only on this pinglist's
  // own entry order — never on shard scheduling or thread count, which the 1/2/8-thread
  // bit-exactness oracle in tests/parallel_window_test.cc covers with filtering active.
  const bool redistributing = eligible < static_cast<int64_t>(pinglist_->entries.size());
  const int64_t extra_packets =
      redistributing ? std::max<int64_t>(0, budget - per_entry * eligible) : 0;

  // One sketch for the whole run, zeroed after each entry hands it to the sink.
  RttSketch rtt = engine.rtt_observation() ? RttSketch(engine.rtt_sketch_bins()) : RttSketch{};
  int64_t eligible_index = 0;
  for (const PinglistEntry& entry : pinglist_->entries) {
    if (!EntryEligible(entry, watchdog)) {
      continue;
    }
    const int64_t packets = per_entry + (eligible_index < extra_packets ? 1 : 0);
    ++eligible_index;
    // Matrix entries sample RTTs when the engine observes them; intra-rack probes stay
    // loss-only (the anomaly plane runs over the probe matrix).
    RttSketch* rtt_ptr = !rtt.empty() && entry.path_id >= 0 ? &rtt : nullptr;
    PathObservation obs = engine.SimulatePath(entry.route, pinglist_->pinger,
                                              entry.target_server,
                                              static_cast<int>(packets), rng, rtt_ptr);
    if (obs.lost > 0 && confirm_packets_ > 0) {
      // Confirm the loss pattern with extra probes of the same content (§3.1).
      const PathObservation confirm = engine.SimulatePath(
          entry.route, pinglist_->pinger, entry.target_server, confirm_packets_, rng, rtt_ptr);
      obs.sent += confirm.sent;
      obs.lost += confirm.lost;
    }
    traffic.probes_sent += obs.sent;
    traffic.bytes_sent += obs.sent * engine.config().probe_bytes * 2;  // request + echo
    const bool sampled = rtt.total() > 0;
    sink(entry.path_id, entry.target_server, obs.sent, obs.lost, sampled ? &rtt : nullptr);
    if (sampled) {
      rtt.ZeroCounts();
    }
  }
  return traffic;
}

PingerWindowResult Pinger::RunWindow(const ProbeEngine& engine, double window_seconds,
                                     Rng& rng, const Watchdog* watchdog) const {
  PingerWindowResult result;
  result.pinger = pinglist_->pinger;
  result.reports.reserve(pinglist_->entries.size());
  const PingerTraffic traffic = RunEntries(
      engine, window_seconds, rng, watchdog,
      [&](PathId path_id, NodeId target, int64_t sent, int64_t lost, const RttSketch* rtt) {
        result.reports.push_back(
            PathReport{path_id, target, sent, lost, rtt != nullptr ? *rtt : RttSketch{}});
      });
  result.probes_sent = traffic.probes_sent;
  result.bytes_sent = traffic.bytes_sent;
  return result;
}

PingerTraffic Pinger::RunWindowInto(const ProbeEngine& engine, double window_seconds, Rng& rng,
                                    ObservationStore::Shard& shard,
                                    const Watchdog* watchdog) const {
  return RunEntries(
      engine, window_seconds, rng, watchdog,
      [&](PathId path_id, NodeId target, int64_t sent, int64_t lost, const RttSketch* rtt) {
        if (path_id == PinglistEntry::kIntraRackPath) {
          shard.RecordIntraRack(target, sent, lost);
        } else if (path_id >= 0) {
          // Other negative ids (a corrupt wire pinglist) are dropped, matching
          // Diagnoser::Ingest.
          if (rtt != nullptr) {
            shard.RecordPathWithRtt(path_id, target, sent, lost, *rtt);
          } else {
            shard.RecordPath(path_id, target, sent, lost);
          }
        }
      });
}

PingerTraffic Pinger::RunEntryRange(const ProbeEngine& engine, double window_seconds,
                                    uint64_t window_seed, size_t begin, size_t end,
                                    std::vector<PathReport>& out,
                                    const Watchdog* watchdog) const {
  PingerTraffic traffic;
  const std::vector<PinglistEntry>& entries = pinglist_->entries;
  int64_t eligible = 0;
  for (const PinglistEntry& entry : entries) {
    eligible += EntryEligible(entry, watchdog) ? 1 : 0;
  }
  if (eligible == 0) {
    return traffic;
  }
  // Whole-list budget split, identical to RunEntries: per-entry packet counts depend only on
  // an entry's eligible rank, never on the range partition.
  const int64_t budget =
      std::max<int64_t>(1, static_cast<int64_t>(pinglist_->packets_per_second * window_seconds));
  const int64_t per_entry = std::max<int64_t>(1, budget / eligible);
  const bool redistributing = eligible < static_cast<int64_t>(entries.size());
  const int64_t extra_packets =
      redistributing ? std::max<int64_t>(0, budget - per_entry * eligible) : 0;

  end = std::min(end, entries.size());
  RttSketch rtt = engine.rtt_observation() ? RttSketch(engine.rtt_sketch_bins()) : RttSketch{};
  int64_t eligible_index = 0;
  for (size_t i = 0; i < std::min(begin, entries.size()); ++i) {
    eligible_index += EntryEligible(entries[i], watchdog) ? 1 : 0;
  }
  for (size_t i = begin; i < end; ++i) {
    const PinglistEntry& entry = entries[i];
    if (!EntryEligible(entry, watchdog)) {
      continue;
    }
    const int64_t packets = per_entry + (eligible_index < extra_packets ? 1 : 0);
    ++eligible_index;
    Rng entry_rng = ProbeEngine::ShardRng(
        window_seed,
        HashCombine(static_cast<uint64_t>(pinglist_->pinger), static_cast<uint64_t>(i)));
    RttSketch* rtt_ptr = !rtt.empty() && entry.path_id >= 0 ? &rtt : nullptr;
    PathObservation obs = engine.SimulatePath(entry.route, pinglist_->pinger,
                                              entry.target_server,
                                              static_cast<int>(packets), entry_rng, rtt_ptr);
    if (obs.lost > 0 && confirm_packets_ > 0) {
      const PathObservation confirm =
          engine.SimulatePath(entry.route, pinglist_->pinger, entry.target_server,
                              confirm_packets_, entry_rng, rtt_ptr);
      obs.sent += confirm.sent;
      obs.lost += confirm.lost;
    }
    traffic.probes_sent += obs.sent;
    traffic.bytes_sent += obs.sent * engine.config().probe_bytes * 2;  // request + echo
    const bool sampled = rtt.total() > 0;
    out.push_back(PathReport{entry.path_id, entry.target_server, obs.sent, obs.lost,
                             sampled ? rtt : RttSketch{}});
    if (sampled) {
      rtt.ZeroCounts();
    }
  }
  return traffic;
}

PingerTraffic Pinger::RunWindowTo(const ProbeEngine& engine, double window_seconds, Rng& rng,
                                  ReportSink& sink, const Watchdog* watchdog) const {
  return RunEntries(
      engine, window_seconds, rng, watchdog,
      [&](PathId path_id, NodeId target, int64_t sent, int64_t lost, const RttSketch* rtt) {
        if (path_id == PinglistEntry::kIntraRackPath) {
          sink.OnIntraRack(target, sent, lost);
        } else if (path_id >= 0) {
          sink.OnPath(path_id, target, sent, lost);
          if (rtt != nullptr) {
            sink.OnPathRtt(path_id, target, *rtt);
          }
        }
      });
}

}  // namespace detector
