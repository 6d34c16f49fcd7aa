#include "src/detector/system.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <unordered_set>

#include "src/net/loopback.h"
#include "src/report/emitter.h"

namespace detector {

DetectorSystem::DetectorSystem(const PathProvider& provider, DetectorSystemOptions options)
    : topo_(provider.topology()),
      options_(options),
      incremental_(std::make_unique<IncrementalPmc>(
          topo_, provider.Enumerate(options.enum_mode), options.pmc)),
      matrix_(incremental_->BuildMatrix()),
      pmc_stats_(incremental_->initial_stats()),
      overlay_(topo_),
      watchdog_(topo_),
      controller_(topo_, options.controller),
      diagnoser_(options.pll),
      latency_model_(options.latency),
      anomaly_engine_(options.anomaly_options) {
  ConfigureDiagnoserViews();
  incremental_->set_repair_threads(std::max(0, options_.pmc_repair_threads));
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);
  for (const Pinglist& list : pinglists_) {
    version_floor_[list.pinger] = list.version;
  }
}

DetectorSystem::DetectorSystem(const Topology& topo, ProbeMatrix matrix,
                               DetectorSystemOptions options)
    : topo_(topo),
      options_(options),
      matrix_(std::move(matrix)),
      overlay_(topo_),
      watchdog_(topo_),
      controller_(topo_, options.controller),
      diagnoser_(options.pll),
      latency_model_(options.latency),
      anomaly_engine_(options.anomaly_options) {
  ConfigureDiagnoserViews();
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);
  for (const Pinglist& list : pinglists_) {
    version_floor_[list.pinger] = list.version;
  }
}

void DetectorSystem::set_pmc_repair_threads(int n) {
  options_.pmc_repair_threads = std::max(0, n);
  if (incremental_ != nullptr) {
    incremental_->set_repair_threads(options_.pmc_repair_threads);
  }
}

void DetectorSystem::SetReportTransport(std::unique_ptr<Transport> transport) {
  report_transport_factory_ = nullptr;
  report_transports_.clear();
  report_transports_.push_back(std::move(transport));
}

void DetectorSystem::SetReportTransportFactory(
    std::function<std::unique_ptr<Transport>(size_t)> factory) {
  report_transport_factory_ = std::move(factory);
  report_transports_.clear();
}

PartitionMap DetectorSystem::BuildReportPartition() const {
  std::vector<NodeId> pingers;
  pingers.reserve(pinglists_.size());
  for (const Pinglist& list : pinglists_) {
    pingers.push_back(list.pinger);
  }
  return PartitionMap::Build(std::move(pingers), std::max<size_t>(1, options_.report_collectors));
}

void DetectorSystem::PrepareReportFabric() {
  const size_t n = std::max<size_t>(1, options_.report_collectors);
  CollectorGroupOptions group_options;
  group_options.num_collectors = n;
  group_options.collector.ingest_shards = std::max<size_t>(1, options_.report_ingest_shards);
  group_options.collector.key = options_.report_key;
  group_options.collector.liveness_horizon = options_.report_liveness_horizon;
  const bool hardening_changed = applied_report_key_ != options_.report_key ||
                                 applied_liveness_horizon_ != options_.report_liveness_horizon;
  applied_report_key_ = options_.report_key;
  applied_liveness_horizon_ = options_.report_liveness_horizon;
  if (collector_group_ == nullptr || hardening_changed ||
      collector_group_->num_collectors() != n ||
      collector_group_->ingest_shards_per_collector() != group_options.collector.ingest_shards) {
    collector_group_ = std::make_unique<CollectorGroup>(diagnoser_.store(),
                                                        BuildReportPartition(), group_options);
  } else {
    // Same shape: just refresh the ownership map — pinger churn across windows repartitions
    // deterministically (PartitionMap::Build is a pure function of the pinger set).
    collector_group_->Repartition(BuildReportPartition());
  }
  if (report_transports_.size() > n) {
    report_transports_.resize(n);  // shrinking the fabric drops the surplus backends
  }
  while (report_transports_.size() < n) {
    const size_t i = report_transports_.size();
    report_transports_.push_back(report_transport_factory_ != nullptr
                                     ? report_transport_factory_(i)
                                     : std::make_unique<LoopbackTransport>());
  }
}

void DetectorSystem::ConfigureDiagnoserViews() {
  diagnoser_.set_sliding_segments(options_.streaming_view == StreamingViewMode::kSliding
                                      ? std::max(1, options_.sliding_window_segments)
                                      : 0);
  diagnoser_.set_decay_factor(
      options_.streaming_view == StreamingViewMode::kDecay ? options_.decay_factor : 0.0);
  diagnoser_.set_decay_quantized(options_.streaming_view == StreamingViewMode::kDecay &&
                                 options_.decay_quantized);
}

void DetectorSystem::EnforceVersionFloors(std::vector<PinglistDiff>& diffs) {
  if (diffs.empty()) {
    return;
  }
  std::map<NodeId, Pinglist*> by_pinger;
  for (Pinglist& list : pinglists_) {
    by_pinger.emplace(list.pinger, &list);
  }
  for (PinglistDiff& diff : diffs) {
    Pinglist* list = by_pinger.at(diff.pinger);
    const auto it = version_floor_.find(diff.pinger);
    if (it != version_floor_.end() && list->version <= it->second) {
      list->version = it->second + 1;
    }
    diff.version = list->version;
    version_floor_[diff.pinger] = list->version;
  }
}

void DetectorSystem::RecomputeCycle() {
  if (incremental_ != nullptr) {
    pmc_stats_ = incremental_->FullResolve();
    matrix_ = incremental_->BuildMatrix();
    // The rebuilt matrix rewires slots; the diagnoser's cached PLL partition is stale, and so
    // is every per-slot anomaly baseline (slot identities do not survive a rebuild).
    diagnoser_.InvalidateLocalizeCache();
    anomaly_engine_.Reset();
  }
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);

  // Fixed-matrix mode keeps dead-link paths in the matrix; withdraw their entries so the
  // rebuild respects the overlay like the incremental path does (whose FullResolve already
  // excludes dead links from the matrix itself).
  if (incremental_ == nullptr && overlay_.NumDeadLinks() > 0) {
    std::vector<PathId> dead_paths;
    for (int32_t d = 0; d < matrix_.NumLinks(); ++d) {
      if (overlay_.IsLinkLive(matrix_.links().Link(d))) {
        continue;
      }
      const auto through = matrix_.PathsThroughDense(d);
      dead_paths.insert(dead_paths.end(), through.begin(), through.end());
    }
    std::sort(dead_paths.begin(), dead_paths.end());
    dead_paths.erase(std::unique(dead_paths.begin(), dead_paths.end()), dead_paths.end());
    controller_.UpdatePinglists(pinglists_, matrix_, watchdog_, dead_paths, {}, {}, {},
                                &path_index_);
  }

  // A full rebuild is a new pinglist generation for every pinger: versions must move strictly
  // forward past each pinger's high-water mark — which outlives the lists themselves, so a
  // pinger whose list vanished for a cycle does not restart at 1 when it returns.
  for (Pinglist& list : pinglists_) {
    int& floor = version_floor_[list.pinger];
    list.version = floor + 1;
    floor = list.version;
  }
}

DetectorSystem::ChurnApplyResult DetectorSystem::ApplyTopologyDelta(const TopologyDelta& delta) {
  ChurnApplyResult out;

  // Server churn routes to the watchdog (pinger eligibility); the affected paths are
  // re-dispatched below so replicas move off a downed pinger immediately instead of waiting
  // for the next recompute cycle, and intra-rack entries targeting the server are withdrawn
  // from (on recovery: restored to) the standing pinglists. Deliberately NOT gated on a
  // health transition: the delta may be confirming a server the watchdog already flagged
  // out-of-band (health telemetry), whose entries still stand and must be moved now. Both
  // directions are idempotent — removal finds nothing the second time, and the re-add
  // dedups against standing entries — so a repeated delta is a no-op.
  std::vector<NodeId> downed_servers;
  std::vector<NodeId> recovered_servers;
  for (const NodeChurn& ev : delta.nodes) {
    if (!topo_.IsServer(ev.node)) {
      continue;
    }
    if (ev.action == ChurnAction::kDown || ev.action == ChurnAction::kDrain) {
      watchdog_.MarkDown(ev.node);
      downed_servers.push_back(ev.node);
    } else {
      watchdog_.MarkUp(ev.node);
      recovered_servers.push_back(ev.node);
    }
  }

  const LinkStateOverlay::Effect effect = overlay_.Apply(delta);
  out.links_gone_dead = effect.now_dead.size();
  out.links_back_live = effect.now_live.size();
  out.overlay_version = effect.version;

  std::vector<PathId> removed;
  std::vector<PathId> added;
  if (incremental_ != nullptr) {
    IncrementalPmc::DeltaOutcome outcome = incremental_->ApplyDelta(effect);
    out.repair = outcome.stats;
    out.slots_vacated = outcome.removed_slots;
    removed = std::move(outcome.removed_slots);
    added = std::move(outcome.added_slots);
    if (!removed.empty() || !added.empty()) {
      matrix_ = incremental_->BuildMatrix();
      // Slot reuse keeps the matrix dimensions while rewiring paths, so the diagnoser's
      // cached PLL partition cannot detect the change itself — drop it explicitly, along with
      // the anomaly baselines keyed to the old slot identities.
      diagnoser_.InvalidateLocalizeCache();
      anomaly_engine_.Reset();
    }
  } else {
    // Fixed-matrix mode: no candidate set to repair from. Entries on dead links are withdrawn
    // (their coverage hole persists until the link returns) and entries whose every link is
    // live again are restored.
    for (const LinkId link : effect.now_dead) {
      if (matrix_.links().Dense(link) < 0) {
        continue;
      }
      for (const PathId pid : matrix_.PathsThrough(link)) {
        removed.push_back(pid);
      }
    }
    for (const LinkId link : effect.now_live) {
      if (matrix_.links().Dense(link) < 0) {
        continue;
      }
      for (const PathId pid : matrix_.PathsThrough(link)) {
        const auto links = matrix_.paths().Links(pid);
        if (std::all_of(links.begin(), links.end(),
                        [&](LinkId l) { return overlay_.IsLinkLive(l); })) {
          added.push_back(pid);
        }
      }
    }
    // Entries are withdrawn for every path over a dead monitored link, so coverage is whole
    // exactly when none remain — including holes left by earlier deltas. Dead links outside
    // the matrix domain (e.g. a downed server's rack link) do not open coverage holes.
    out.repair.alpha_satisfied = true;
    for (int32_t d = 0; d < matrix_.NumLinks(); ++d) {
      if (!overlay_.IsLinkLive(matrix_.links().Link(d))) {
        out.repair.alpha_satisfied = false;
        break;
      }
    }
  }

  // Re-dispatch the paths a downed server was pinging or answering for.
  if (!downed_servers.empty()) {
    const std::unordered_set<NodeId> down(downed_servers.begin(), downed_servers.end());
    const std::unordered_set<PathId> already_removed(removed.begin(), removed.end());
    for (const Pinglist& list : pinglists_) {
      const bool pinger_down = down.count(list.pinger) > 0;
      for (const PinglistEntry& entry : list.entries) {
        if (entry.path_id < 0) {
          continue;  // intra-rack entries are keyed by target and removed by UpdatePinglists
        }
        if (pinger_down || down.count(entry.target_server) > 0) {
          removed.push_back(entry.path_id);
          if (already_removed.count(entry.path_id) == 0 &&
              matrix_.paths().PathLength(entry.path_id) > 0) {
            added.push_back(entry.path_id);
          }
        }
      }
    }
  }

  auto sort_unique = [](std::vector<PathId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  sort_unique(removed);
  sort_unique(added);
  out.paths_removed = removed.size();
  out.paths_added = added.size();
  if (incremental_ == nullptr) {
    // Fixed-matrix mode has no solver stats; mirror the deduplicated entry-level counts
    // (a path through two transitioned links counts once).
    out.repair.dropped_paths = removed.size();
    out.repair.added_paths = added.size();
  }

  PinglistUpdate update =
      controller_.UpdatePinglists(pinglists_, matrix_, watchdog_, removed, added,
                                  downed_servers, recovered_servers, &path_index_);
  out.pinglists_touched = update.lists_touched;
  out.entries_removed = update.entries_removed;
  out.entries_added = update.entries_added;
  out.diffs = std::move(update.diffs);
  EnforceVersionFloors(out.diffs);
  return out;
}

void DetectorSystem::RunSpan(const FailureScenario& scenario, double t0, double t1, Rng& rng,
                             WindowResult& result) {
  if (scenario.episodes.empty()) {
    RunSegment(scenario, t1 - t0, rng, result);
    return;
  }
  // Cut [t0, t1) at the episode boundaries inside it; each piece probes under the failure set
  // active at its start (fixed across the piece by construction).
  std::vector<double> cuts;
  for (const FailureEpisode& episode : scenario.episodes) {
    for (const double t : {episode.start_seconds, episode.end_seconds}) {
      if (t > t0 + 1e-9 && t < t1 - 1e-9) {
        cuts.push_back(t);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(t1);
  double at = t0;
  for (const double cut : cuts) {
    if (cut - at <= 1e-9) {
      continue;
    }
    FailureScenario active = scenario;
    active.episodes.clear();
    for (const FailureEpisode& episode : scenario.episodes) {
      if (episode.start_seconds <= at + 1e-9 && at + 1e-9 < episode.end_seconds) {
        active.failures.push_back(episode.failure);
      }
    }
    RunSegment(active, cut - at, rng, result);
    at = cut;
  }
}

FailureScenario DetectorSystem::OverlaidScenario(const FailureScenario& scenario) const {
  if (overlay_.NumDeadLinks() == 0) {
    return scenario;
  }
  FailureScenario overlaid = scenario;  // scenario failures win ProbeEngine's first-wins dedup
  for (const LinkId link : overlay_.FailedLinks()) {
    LinkFailure failure;
    failure.link = link;
    failure.type = FailureType::kFullLoss;
    failure.loss_rate = 1.0;
    overlaid.failures.push_back(failure);
  }
  return overlaid;
}

void DetectorSystem::RunSegment(const FailureScenario& scenario, double seconds, Rng& rng,
                                WindowResult& result) {
  ProbeEngine engine(topo_, OverlaidScenario(scenario), options_.probe);
  if (options_.anomaly) {
    // RTT observation rides the same per-shard RNG streams. A path's sampling draws come
    // after that path's loss draws, but they advance the shared per-pinger stream, so every
    // later entry's loss draws shift: anomaly-on and anomaly-off are distinct (equally
    // deterministic) trajectories.
    engine.AttachRttObservation(&latency_model_, {}, options_.rtt_samples_per_path,
                                options_.rtt_bins);
  }

  // Serial phase: one shard per non-empty pinglist, opened before any thread runs. The caller's
  // rng advances exactly once (the window seed) however many shards or threads execute, and
  // each shard's stream is keyed by its pinger id — so the segment's counters are bit-identical
  // at any thread count, including 1.
  ObservationStore& store = diagnoser_.store();
  store.EnsureSlots(matrix_.NumPaths());
  const uint64_t window_seed = rng();
  if (options_.probe_subshards > 0) {
    RunSegmentSubsharded(engine, seconds, window_seed, result);
    return;
  }
  const bool report = options_.report_plane;
  struct ShardWork {
    const Pinglist* list;
    ObservationStore::Shard* shard;
    std::unique_ptr<ReportEmitter> emitter;  // report-plane sink; null in direct mode
  };
  std::vector<ShardWork> work;
  work.reserve(pinglists_.size());
  for (const Pinglist& list : pinglists_) {
    if (list.entries.empty()) {
      continue;
    }
    // Report mode opens the shards here too: the collector folds into shards looked up by
    // pinger id, and opening them at this serial point in pinglist order keeps shard creation
    // order — and with it intra-rack record order — identical to direct mode.
    ShardWork shard_work{&list, &store.OpenShard(list.pinger), nullptr};
    if (report) {
      // Frames route to the transport of the collector partition that owns this pinger —
      // the agent side of the fabric's partition map.
      Transport& transport =
          *report_transports_[static_cast<size_t>(collector_group_->RouteOf(list.pinger))];
      shard_work.emitter = std::make_unique<ReportEmitter>(
          list.pinger, report_window_id_, report_seq_[list.pinger], store.slot_epochs(),
          transport, options_.report_batch_entries, options_.report_key);
    }
    work.push_back(std::move(shard_work));
  }

  // Parallel phase: each shard is written by exactly one worker; traffic totals land in a
  // per-shard array and are reduced in shard order afterwards. In report mode the worker
  // writes wire frames to the transport instead of the store, and the collector is the
  // store's only writer.
  std::vector<PingerTraffic> traffic(work.size());
  std::atomic<size_t> shards_left{work.size()};
  auto run_shard = [&](size_t i) {
    Rng shard_rng = ProbeEngine::ShardRng(window_seed, static_cast<uint64_t>(
                                                           work[i].list->pinger));
    Pinger pinger(*work[i].list, options_.confirm_packets);
    // The watchdog filters intra-rack entries towards downed servers (it mutates only at
    // serial points, so concurrent shards may read it).
    if (work[i].emitter != nullptr) {
      traffic[i] =
          pinger.RunWindowTo(engine, seconds, shard_rng, *work[i].emitter, &watchdog_);
      work[i].emitter->Flush();
    } else {
      traffic[i] =
          pinger.RunWindowInto(engine, seconds, shard_rng, *work[i].shard, &watchdog_);
    }
    shards_left.fetch_sub(1, std::memory_order_release);
  };
  // The pool is sized by the configured thread count alone — shard-count fluctuations across
  // segments (churn emptying a pinglist) must not tear workers down and restart them.
  const size_t configured = options_.probe_threads != 0
                                ? options_.probe_threads
                                : std::max<size_t>(1, std::thread::hardware_concurrency());
  if (configured <= 1 || work.size() <= 1) {
    for (size_t i = 0; i < work.size(); ++i) {
      run_shard(i);
    }
  } else {
    if (pool_ == nullptr || pool_->num_threads() != configured) {
      pool_ = std::make_unique<ThreadPool>(configured);
    }
    std::atomic<size_t> next{0};
    size_t report_workers = 0;
    if (report) {
      // Concurrent ingest on the same pool, submitted FIRST so it holds workers for the
      // whole segment: frames decode and fold while the remaining workers probe, instead of
      // piling up in the transports until the barrier below. Store safety holds because the
      // fold lanes write disjoint store shards (partitioned collectors x pinger-affine
      // ingest shards), and every ingest task terminates unconditionally once all shards
      // finished — even if it somehow only got scheduled after them.
      const size_t collectors = collector_group_->num_collectors();
      const size_t lanes = collectors * collector_group_->ingest_shards_per_collector();
      // With enough workers, split ingest into one receiver (transports -> shard queues,
      // unbounded so a lossless transport stays lossless) plus drain tasks over disjoint
      // (collector, ingest shard) lanes; at least one worker must remain for probing.
      const size_t drainers =
          (lanes > 1 && configured >= 3) ? std::min(lanes, configured - 2) : 0;
      if (drainers == 0) {
        pool_->Submit([&] {
          while (shards_left.load(std::memory_order_acquire) > 0) {
            size_t folded = 0;
            for (size_t c = 0; c < collector_group_->num_collectors(); ++c) {
              folded += collector_group_->collector(c).PumpFrom(*report_transports_[c]);
            }
            if (folded == 0) {
              std::this_thread::yield();
            }
          }
        });
        report_workers = 1;
      } else {
        pool_->Submit([&, collectors] {
          std::vector<uint8_t> frame;
          while (shards_left.load(std::memory_order_acquire) > 0) {
            size_t moved = 0;
            for (size_t c = 0; c < collectors; ++c) {
              while (report_transports_[c]->Receive(frame)) {
                collector_group_->collector(c).OfferUnbounded(std::move(frame));
                frame.clear();
                ++moved;
              }
            }
            if (moved == 0) {
              std::this_thread::yield();
            }
          }
        });
        const size_t shards_per_collector = collector_group_->ingest_shards_per_collector();
        for (size_t d = 0; d < drainers; ++d) {
          pool_->Submit([&, d, drainers, shards_per_collector] {
            while (shards_left.load(std::memory_order_acquire) > 0) {
              size_t processed = 0;
              // Lane d, d + drainers, d + 2*drainers, ... — disjoint across drain tasks.
              for (size_t lane = d; lane < collector_group_->num_collectors() *
                                               shards_per_collector;
                   lane += drainers) {
                collector_group_->collector(lane / shards_per_collector)
                    .DrainShardRange(lane % shards_per_collector,
                                     lane % shards_per_collector + 1, 0, &processed);
              }
              if (processed == 0) {
                std::this_thread::yield();
              }
            }
          });
        }
        report_workers = 1 + drainers;
      }
    }
    // In report mode the ingest tasks hold report_workers workers; the shard loop tasks
    // share the rest (the drainer split above always leaves at least one).
    const size_t shard_workers = report ? configured - report_workers : configured;
    const size_t tasks = std::min(shard_workers, work.size());
    for (size_t t = 0; t < tasks; ++t) {
      pool_->Submit([&] {
        for (size_t i = next.fetch_add(1); i < work.size(); i = next.fetch_add(1)) {
          run_shard(i);
        }
      });
    }
    pool_->WaitAll();
  }
  if (report) {
    PumpReportBoundary();
    for (const ShardWork& shard_work : work) {
      report_seq_[shard_work.list->pinger] = shard_work.emitter->next_seq();
    }
  }
  for (const PingerTraffic& t : traffic) {
    result.probes_sent += t.probes_sent;
    result.bytes_sent += t.bytes_sent;
  }
}

void DetectorSystem::PumpReportBoundary() {
  if (!options_.report_pipeline) {
    // Ingest barrier: everything sent and not dropped folds before the segment closes,
    // which is what makes the lossless loopback bit-identical to direct mode — no report
    // straddles a diagnosis boundary or a churn-driven slot invalidation.
    for (size_t c = 0; c < collector_group_->num_collectors(); ++c) {
      report_transports_[c]->Flush();
      collector_group_->collector(c).PumpFrom(*report_transports_[c]);
    }
  } else {
    // Pipelined: fold what the budget allows and let the rest straddle the boundary —
    // epoch stamps make the late folds land exactly where on-time folds would have. The
    // staleness enforcer then folds whatever has aged report_pipeline_depth boundaries
    // regardless of budget, so max_fold_staleness <= depth is a guarantee, not a hope. The
    // window end (RunWindowImpl) still drains fully.
    const auto depth = static_cast<uint64_t>(options_.report_pipeline_depth);
    for (size_t c = 0; c < collector_group_->num_collectors(); ++c) {
      Collector& col = collector_group_->collector(c);
      col.PumpFrom(*report_transports_[c], options_.report_pump_budget);
      if (col.boundary() >= depth) {
        col.DrainStale(col.boundary() - depth + 1);
      }
    }
  }
}

// Sub-sharded segment execution (probe_subshards > 0): every pinglist's entry range is cut
// into up to probe_subshards contiguous ranges, each an independent pool task drawing
// per-entry RNG streams — so a giant pinglist spreads across workers instead of pinning the
// segment's tail to one. Tasks buffer their PathReports; a serial fold in (pinglist, entry)
// order then writes the store shards (or replays the report emitters), preserving the
// single-writer shard contract, the legacy record order, and — in report mode — the
// single-threaded per-pinger frame sequence the emitters require.
void DetectorSystem::RunSegmentSubsharded(const ProbeEngine& engine, double seconds,
                                          uint64_t window_seed, WindowResult& result) {
  ObservationStore& store = diagnoser_.store();
  const bool report = options_.report_plane;
  const size_t splits = static_cast<size_t>(std::max(1, options_.probe_subshards));

  // Serial phase: shards open in pinglist order (same creation — and intra-rack record —
  // order as the legacy path); one Pinger per list, shared const by its sub-shard tasks.
  struct ListWork {
    const Pinglist* list;
    ObservationStore::Shard* shard;
    Pinger pinger;
    size_t first_task = 0;
    size_t num_tasks = 0;
  };
  struct SubShard {
    size_t list_index;
    size_t begin;
    size_t end;
    std::vector<PathReport> reports;
    PingerTraffic traffic;
  };
  std::vector<ListWork> lists;
  std::vector<SubShard> tasks;
  for (const Pinglist& list : pinglists_) {
    if (list.entries.empty()) {
      continue;
    }
    ListWork list_work{&list, &store.OpenShard(list.pinger),
                       Pinger(list, options_.confirm_packets),
                       tasks.size(), 0};
    const size_t n = list.entries.size();
    const size_t pieces = std::min(splits, n);
    for (size_t p = 0; p < pieces; ++p) {
      tasks.push_back(SubShard{lists.size(), n * p / pieces, n * (p + 1) / pieces, {}, {}});
    }
    list_work.num_tasks = tasks.size() - list_work.first_task;
    lists.push_back(std::move(list_work));
  }

  // Parallel phase: sub-shards only read shared state (pinglist, engine, watchdog at a serial
  // point) and write their own buffers — any scheduling order yields the same counters.
  auto run_task = [&](size_t i) {
    SubShard& task = tasks[i];
    const ListWork& list_work = lists[task.list_index];
    task.reports.reserve(task.end - task.begin);
    task.traffic = list_work.pinger.RunEntryRange(engine, seconds, window_seed, task.begin,
                                                  task.end, task.reports, &watchdog_);
  };
  const size_t configured = options_.probe_threads != 0
                                ? options_.probe_threads
                                : std::max<size_t>(1, std::thread::hardware_concurrency());
  if (configured <= 1 || tasks.size() <= 1) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      run_task(i);
    }
  } else {
    if (pool_ == nullptr || pool_->num_threads() != configured) {
      pool_ = std::make_unique<ThreadPool>(configured);
    }
    std::atomic<size_t> next{0};
    const size_t workers = std::min(configured, tasks.size());
    for (size_t t = 0; t < workers; ++t) {
      pool_->Submit([&] {
        for (size_t i = next.fetch_add(1); i < tasks.size(); i = next.fetch_add(1)) {
          run_task(i);
        }
      });
    }
    pool_->WaitAll();
  }

  // Serial fold, in (pinglist, entry) order.
  for (const ListWork& list_work : lists) {
    std::unique_ptr<ReportEmitter> emitter;
    if (report) {
      Transport& transport = *report_transports_[static_cast<size_t>(
          collector_group_->RouteOf(list_work.list->pinger))];
      emitter = std::make_unique<ReportEmitter>(
          list_work.list->pinger, report_window_id_, report_seq_[list_work.list->pinger],
          store.slot_epochs(), transport, options_.report_batch_entries, options_.report_key);
    }
    for (size_t p = 0; p < list_work.num_tasks; ++p) {
      SubShard& task = tasks[list_work.first_task + p];
      result.probes_sent += task.traffic.probes_sent;
      result.bytes_sent += task.traffic.bytes_sent;
      for (const PathReport& r : task.reports) {
        if (r.path_id == PinglistEntry::kIntraRackPath) {
          if (emitter != nullptr) {
            emitter->OnIntraRack(r.target, r.sent, r.lost);
          } else {
            list_work.shard->RecordIntraRack(r.target, r.sent, r.lost);
          }
        } else if (r.path_id >= 0) {
          if (emitter != nullptr) {
            emitter->OnPath(r.path_id, r.target, r.sent, r.lost);
          } else {
            list_work.shard->RecordPath(r.path_id, r.target, r.sent, r.lost);
          }
        }
      }
    }
    if (emitter != nullptr) {
      emitter->Flush();
      report_seq_[list_work.list->pinger] = emitter->next_seq();
    }
  }
  if (report) {
    PumpReportBoundary();
  }
}

DetectorSystem::WindowResult DetectorSystem::RunWindow(const FailureScenario& scenario,
                                                       Rng& rng) {
  return RunWindowWithChurn(scenario, {}, rng);
}

DetectorSystem::WindowResult DetectorSystem::RunWindowWithChurn(
    const FailureScenario& scenario, std::span<const ChurnEvent> churn, Rng& rng) {
  return RunWindowImpl(scenario, churn, rng, /*streaming=*/false).window;
}

DetectorSystem::StreamingWindowResult DetectorSystem::RunWindowStreaming(
    const FailureScenario& scenario, std::span<const ChurnEvent> churn, Rng& rng) {
  return RunWindowImpl(scenario, churn, rng, /*streaming=*/true);
}

bool DetectorSystem::PrepareHistory() {
  if (options_.history_dir != applied_history_dir_) {
    applied_history_dir_ = options_.history_dir;
    history_log_.reset();
    if (!options_.history_dir.empty()) {
      WindowLogOptions log_options;
      log_options.max_records_per_segment = options_.history_segment_records;
      log_options.max_segments = options_.history_max_segments;
      log_options.key = options_.report_key;
      history_log_ = std::make_unique<WindowLogWriter>(options_.history_dir, log_options);
      // Appending after a reopened log continues its numbering — the on-disk indices stay
      // monotonic, which the query plane's episode logic relies on.
      if (history_log_->ok()) {
        const WindowLogReadResult existing =
            ReadWindowLog(options_.history_dir, options_.report_key);
        if (!existing.windows.empty()) {
          history_window_index_ = existing.windows.back().window_index + 1;
        }
      }
    }
  }
  return history_log_ != nullptr || history_sink_ != nullptr;
}

LocalizeResult DetectorSystem::DiagnoseBoundary() {
  switch (options_.streaming_view) {
    case StreamingViewMode::kSliding:
      return diagnoser_.DiagnoseTrailing(matrix_, watchdog_);
    case StreamingViewMode::kDecay:
      return diagnoser_.DiagnoseDecayed(matrix_, watchdog_);
    case StreamingViewMode::kCumulative:
      break;
  }
  return options_.incremental_diagnosis ? diagnoser_.DiagnoseRunning(matrix_, watchdog_)
                                        : diagnoser_.DiagnoseRunningFull(matrix_, watchdog_);
}

double DetectorSystem::StreamingWindowResult::FirstDetectionSeconds(LinkId link) const {
  for (const SegmentDiagnosis& d : timeline) {
    for (const SuspectLink& suspect : d.localization.links) {
      if (suspect.link == link) {
        return d.time_seconds;
      }
    }
  }
  return -1.0;
}

DetectorSystem::StreamingWindowResult DetectorSystem::RunWindowImpl(
    const FailureScenario& scenario, std::span<const ChurnEvent> churn, Rng& rng,
    bool streaming) {
  StreamingWindowResult out;
  WindowResult& result = out.window;
  const int segments = std::max(1, options_.segments_per_window);
  const int cadence = std::max(1, options_.diagnose_every_segments);
  const double window = options_.window_seconds;

  // Retention: when any sink is attached, the window is sealed at its close — each diagnosis
  // boundary cuts a sparse delta of the merged running totals, so the log carries exactly the
  // views the live diagnoses localized over (what makes QueryEngine replay bit-identical).
  const bool history = PrepareHistory();
  if (history) {
    history_sealer_.BeginWindow(history_window_index_);
  }
  if (options_.anomaly) {
    // Re-base the engine's per-slot totals at zero — the store cleared at the last window's
    // Diagnose — without touching the learned baselines or excursion runs.
    anomaly_engine_.BeginWindow();
  }

  if (options_.report_plane) {
    // Open the report-plane window: (re)shape the collector fabric and its partition map to
    // the current options and pinglists, and open a fresh window id that namespaces this
    // window's frame sequence numbers — a straggler from the previous window is recognized
    // as stale instead of folding into the wrong aggregation period.
    PrepareReportFabric();
    ++report_window_id_;
    report_seq_.clear();
    collector_group_->BeginWindow(report_window_id_);
  }

  // The window is sliced at segment boundaries and churn-event timestamps; every slice is one
  // RunSegment (own shard seed). With segments == 1 and no streaming this is exactly the
  // classic batch window — same slices, same RNG draws.
  size_t next_event = 0;
  double t = 0.0;
  for (int seg = 1; seg <= segments; ++seg) {
    const double boundary = seg == segments ? window : seg * (window / segments);
    while (next_event < churn.size() && churn[next_event].time_seconds < window &&
           churn[next_event].time_seconds < boundary) {
      const ChurnEvent& event = churn[next_event];
      if (event.time_seconds - t > 1e-9) {
        RunSpan(scenario, t, event.time_seconds, rng, result);
      }
      const ChurnApplyResult applied = ApplyTopologyDelta(event.delta);
      // Earlier slices may have reported on the vacated slots; repair can reuse them within
      // this window and the final matrix no longer carries the old paths, so those stale
      // reports must not reach Diagnose. (Redispatched paths keep their slots — and their
      // observations.)
      diagnoser_.DropReports(applied.slots_vacated);
      ++result.churn_events_applied;
      t = std::max(t, event.time_seconds);
      ++next_event;
    }
    if (boundary - t > 1e-9) {
      RunSpan(scenario, t, boundary, rng, result);
      t = boundary;
    }
    if (options_.report_plane && seg < segments) {
      // Stamp the segment boundary for staleness accounting: frames folding after this point
      // straddled it (pipelined mode; under the barriered default nothing is ever queued
      // here). The last pump of the segment already ran, so an on-time fold counts 0.
      collector_group_->AdvanceBoundary();
    }
    if (streaming && seg < segments) {
      // Every boundary advances the streaming views (cumulative dirty set, sliding ring,
      // decayed totals) — O(slots changed this segment) — whether or not it diagnoses.
      diagnoser_.AdvanceSegment(matrix_, watchdog_);
      if (seg % cadence == 0) {
        // Non-consuming diagnosis: the window keeps accumulating, and the final Diagnose
        // below sees exactly what a batch window would.
        SegmentDiagnosis diagnosis;
        diagnosis.segment = seg;
        diagnosis.time_seconds = boundary;
        diagnosis.localization = DiagnoseBoundary();
        diagnosis.server_link_alarms = diagnoser_.ServerLinkAlarms(watchdog_);
        if (options_.anomaly) {
          // The boundary diagnosis already folded pending records; RunningTotals here is the
          // same serial point it read, and the RTT sketches folded alongside it.
          ObservationStore& store = diagnoser_.store();
          const ObservationView totals = store.RunningTotals(matrix_.NumPaths(), watchdog_);
          diagnosis.anomalies =
              anomaly_engine_.Observe(matrix_, totals, store.RttRunningTotals());
        }
        if (history) {
          // RunningTotals here is idempotent — the boundary diagnosis already folded pending
          // records — so the cut sees the same serial point the diagnosis read.
          history_sealer_.CutBoundary(
              seg, boundary, diagnoser_.store().RunningTotals(matrix_.NumPaths(), watchdog_));
          history_sealer_.AttachDiagnosis(diagnosis.localization.links,
                                          diagnosis.server_link_alarms);
          history_sealer_.AttachAnomalies(diagnosis.anomalies);
        }
        out.timeline.push_back(std::move(diagnosis));
      }
    }
  }
  if (options_.report_plane && options_.report_pipeline) {
    // Pipelined mode defers folds, never past the window: drain everything before the final
    // diagnosis, so the window-end result over a lossless transport matches barriered mode.
    for (size_t c = 0; c < collector_group_->num_collectors(); ++c) {
      report_transports_[c]->Flush();
      collector_group_->collector(c).PumpFrom(*report_transports_[c]);
    }
  }
  result.server_link_alarms = diagnoser_.ServerLinkAlarms(watchdog_);
  if (options_.anomaly) {
    // Window-end anomaly boundary: observed before Diagnose() consumes the store, like the
    // history cut below. The merged RTT sketches are captured here too — the bit-identity
    // surface the thread-count and report-vs-direct gates compare.
    ObservationStore& store = diagnoser_.store();
    const ObservationView totals = store.RunningTotals(matrix_.NumPaths(), watchdog_);
    result.anomalies = anomaly_engine_.Observe(matrix_, totals, store.RttRunningTotals());
    const std::span<const RttSketch> rtt = store.RttRunningTotals();
    last_rtt_totals_.assign(rtt.begin(), rtt.end());
  } else {
    last_rtt_totals_.clear();
  }
  if (history) {
    // The window-end delta must be cut before Diagnose() — it consumes (clears) the store.
    // The window-end suspects attach right after it runs.
    history_sealer_.CutBoundary(segments, window,
                                diagnoser_.store().RunningTotals(matrix_.NumPaths(), watchdog_));
  }
  result.localization = diagnoser_.Diagnose(matrix_, watchdog_);
  // Detection and localization share the window's data: alarms are available one window after
  // the failure manifests, with no extra probing round.
  result.detection_latency_seconds = options_.window_seconds;
  if (streaming) {
    // The window-end diagnosis always happens, so the timeline always records it — whether or
    // not the last segment lands on the cadence. FirstDetectionSeconds therefore never misses
    // a failure the batch window would have caught.
    out.timeline.push_back(SegmentDiagnosis{segments, window, result.localization,
                                            result.server_link_alarms, result.anomalies});
  }
  if (history) {
    history_sealer_.AttachDiagnosis(result.localization.links, result.server_link_alarms);
    history_sealer_.AttachAnomalies(result.anomalies);
    const SealedWindow sealed = history_sealer_.Finish(
        matrix_.NumPaths(), result.churn_events_applied, overlay_.NumDeadLinks(),
        result.probes_sent, result.bytes_sent);
    if (history_log_ != nullptr) {
      history_log_->OnWindowSealed(sealed);
    }
    if (history_sink_ != nullptr) {
      history_sink_->OnWindowSealed(sealed);
    }
    ++history_window_index_;
  }
  return out;
}

}  // namespace detector
