// wwbench: the whole-window pipeline benchmark. It drives complete monitoring windows through
// DetectorSystem's public API at fixed scales — probe the PMC matrix, ingest the counters,
// localize with PLL at every boundary (paper §3.2) — and reports what a user of the monitor
// sees: set-up time, windows per second, per-window latency, CPU and memory, churn-apply
// latency, detection time and localization accuracy. It checks the outputs as it goes.
//
// Load is closed-loop from this one process: the next window starts when the previous call
// returns. Report-plane traffic crosses the in-process LoopbackTransport, not a real link.
//
//   wwbench --workload NAME --seed N --seconds S --trace 0|1
//           [--windows N] [--toy] [--inject none|log-flip|frame-drop]
//           [--scratch DIR] [--trace-out FILE] [--commit ID]
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 is the separate traced run:
// it records spans around the calls into each layer and runs the seed as lockstep pairs —
// untraced vs traced, then traced with vs without each layer, a difference being reported
// only when the pair's results are identical — and prints per-layer metrics. The last line of standard output is one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value": X, "unit": U}}}
// The exit code is 0 when every check passed, 3 when one failed, 1 on bad arguments.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/detector/pinger.h"
#include "src/detector/system.h"
#include "src/history/query.h"
#include "src/history/window_log.h"
#include "src/net/loopback.h"
#include "src/pmc/structured_fattree.h"
#include "src/report/codec.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/churn.h"
#include "src/sim/failure_model.h"
#include "src/sim/latency_model.h"
#include "src/sim/probe_engine.h"
#include "src/topo/fattree.h"
#include "wwbench/seams.h"
#include "wwbench/trace.h"

#ifndef WWBENCH_BUILD_TYPE
#define WWBENCH_BUILD_TYPE "unknown"
#endif

namespace wwbench {
namespace {

using namespace detector;

constexpr int kFailuresPerWindow = 2;
constexpr double kWindowSeconds = 30.0;  // DetectorSystemOptions::window_seconds default
constexpr int kSetupReps = 3;            // set-ups per untraced run; setup_s is their median

// ---- workloads -------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  int k;
  bool structured;  // structured fat-tree matrix (alpha=1, beta=2), fixed-matrix constructor
  bool streaming;   // RunWindowStreaming (diagnose every segment) instead of RunWindow
  int segments;
  bool multi_thread;  // probe_threads = min(4, nproc) instead of 1
  double pps;         // probe packets per second per pinger; 0 = controller default
  bool report;
  bool anomaly;
  bool history;
  double churn_links_per_min;  // 0 = no churn
  const char* why;
};

const WorkloadSpec kWorkloads[] = {
    {"probe_batch_k16", 16, false, false, 1, false, 1000.0, false, false, false, 0.0,
     "probe simulator dominates; single-thread baseline"},
    {"stream_k48_full", 48, true, true, 10, true, 0.0, false, true, true, 0.0,
     "boundary-heavy large state: anomaly + history at k=48, only multi-threaded workload"},
    {"report_churn_k16", 16, false, true, 10, false, 100.0, true, false, false, 20.0,
     "report plane + churn repair write beside reads; no anomaly/history"},
};

struct Layers {
  bool report = false;
  bool anomaly = false;
  bool history = false;
};

enum class Inject { kNone, kLogFlip, kFrameDrop };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int windows = 0;  // fixed timed-window count; 0 = run for --seconds
  bool toy = false;
  Inject inject = Inject::kNone;
  std::string scratch = ".wwbench-scratch";
  std::string trace_out;
  std::string commit = "unknown";
};

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Everything one pass needs to know about the run.
struct Context {
  const WorkloadSpec* spec = nullptr;
  Args args;
  int k = 0;
  size_t threads = 1;
  Layers layers;  // the workload's own layer set
};

// ---- small statistics --------------------------------------------------------------------

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  // Linear interpolation between order statistics; 0 when empty.
  double Quantile(double q) const {
    if (v_.empty()) {
      return 0.0;
    }
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double Sum() const {
    double total = 0.0;
    for (const double v : v_) {
      total += v;
    }
    return total;
  }
  double Mean() const { return v_.empty() ? 0.0 : Sum() / static_cast<double>(v_.size()); }

 private:
  std::vector<double> v_;
};

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Resident memory right now, from /proc/self/statm (0 where it cannot be read).
double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    return 0.0;
  }
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---- window fingerprints ------------------------------------------------------------------

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

uint64_t HashSuspects(uint64_t h, const std::vector<SuspectLink>& links) {
  h = HashCombine(h, links.size());
  for (const SuspectLink& l : links) {
    h = HashCombine(h, static_cast<uint64_t>(l.link));
    h = HashCombine(h, Bits(l.estimated_loss_rate));
    h = HashCombine(h, Bits(l.hit_ratio));
    h = HashCombine(h, static_cast<uint64_t>(l.explained_losses));
  }
  return h;
}

uint64_t HashAlarms(uint64_t h, const std::vector<ServerLinkAlarm>& alarms) {
  h = HashCombine(h, alarms.size());
  for (const ServerLinkAlarm& a : alarms) {
    h = HashCombine(h, static_cast<uint64_t>(a.pinger));
    h = HashCombine(h, static_cast<uint64_t>(a.target));
    h = HashCombine(h, Bits(a.loss_ratio));
  }
  return h;
}

uint64_t HashAnomalies(uint64_t h, const std::vector<LinkAnomaly>& anomalies) {
  h = HashCombine(h, anomalies.size());
  for (const LinkAnomaly& a : anomalies) {
    h = HashCombine(h, static_cast<uint64_t>(a.link));
    h = HashCombine(h, a.signal);
    h = HashCombine(h, Bits(a.score));
    h = HashCombine(h, static_cast<uint64_t>(a.sustained));
  }
  return h;
}

// Everything observable about a window except wall-clock: `loss` covers the loss suspects,
// server alarms and probe traffic at every boundary; `full` adds the anomaly alarms.
struct Fingerprint {
  uint64_t loss = 0;
  uint64_t full = 0;
};

Fingerprint FingerprintOf(const DetectorSystem::StreamingWindowResult& out) {
  uint64_t loss = 0x77777762656e6368ULL;
  uint64_t anomalies = 0;
  for (const DetectorSystem::SegmentDiagnosis& d : out.timeline) {
    loss = HashCombine(loss, static_cast<uint64_t>(d.segment));
    loss = HashSuspects(loss, d.localization.links);
    loss = HashAlarms(loss, d.server_link_alarms);
    anomalies = HashAnomalies(anomalies, d.anomalies);
  }
  const DetectorSystem::WindowResult& w = out.window;
  loss = HashSuspects(loss, w.localization.links);
  loss = HashAlarms(loss, w.server_link_alarms);
  loss = HashCombine(loss, static_cast<uint64_t>(w.probes_sent));
  loss = HashCombine(loss, static_cast<uint64_t>(w.bytes_sent));
  anomalies = HashAnomalies(anomalies, w.anomalies);
  return Fingerprint{loss, HashCombine(loss, anomalies)};
}

// ---- the system under test and its inputs --------------------------------------------------

// Owns the topology and the DetectorSystem built over it (the system keeps references into
// the topology and routing, so they live here, together).
class Rig {
 public:
  Rig(const Context& ctx, const Layers& layers, const std::string& history_dir)
      : ft_(std::make_unique<FatTree>(ctx.k)) {
    DetectorSystemOptions options;
    options.pmc.alpha = 1;
    options.pmc.beta = 1;
    if (ctx.spec->pps > 0.0) {
      options.controller.packets_per_second = ctx.spec->pps;
    }
    options.probe_threads = ctx.threads;
    options.segments_per_window = ctx.spec->segments;
    options.diagnose_every_segments = 1;
    options.report_plane = layers.report;
    options.anomaly = layers.anomaly;
    options.history_dir = history_dir;
    pll_ = options.pll;
    if (ctx.spec->structured) {
      system_ = std::make_unique<DetectorSystem>(
          ft_->topology(), StructuredFatTreeProbeMatrix(*ft_, /*alpha=*/1, /*beta=*/2),
          options);
    } else {
      routing_ = std::make_unique<FatTreeRouting>(*ft_);
      system_ = std::make_unique<DetectorSystem>(*routing_, options);
    }
  }

  DetectorSystem& system() { return *system_; }
  const Topology& topology() const { return ft_->topology(); }
  const PllOptions& pll() const { return pll_; }
  // Frees the system (and its memory) but keeps the topology for replay.
  void ReleaseSystem() { system_.reset(); }

 private:
  std::unique_ptr<FatTree> ft_;
  std::unique_ptr<FatTreeRouting> routing_;
  std::unique_ptr<DetectorSystem> system_;
  PllOptions pll_;
};

struct WindowInput {
  FailureScenario scenario;
  std::vector<TopologyDelta> deltas;  // churn due in this window, applied at its open
};

// The workload's input sequence, generated from the seed alone: per window a failure scenario
// (kFailuresPerWindow sampled link failures) and the churn deltas whose time falls in the
// window. The churn trace is sampled in blocks of windows; each block carries its own paired
// recoveries, so the overlay keeps returning to the full topology.
class InputStream {
 public:
  InputStream(const Topology& topo, const WorkloadSpec& spec, uint64_t seed)
      : model_(topo, FailureModelOptions{}),
        scenario_rng_(HashCombine(seed, 1)),
        churn_rng_(HashCombine(seed, 2)),
        window_rng_(HashCombine(seed, 3)) {
    if (spec.churn_links_per_min > 0.0) {
      ChurnOptions options;
      options.link_events_per_minute = spec.churn_links_per_min;
      options.node_events_per_minute = 0.0;
      churn_ = std::make_unique<ChurnGenerator>(topo, options);
    }
  }

  WindowInput Next() {
    WindowInput in;
    in.scenario = model_.SampleLinkFailures(kFailuresPerWindow, scenario_rng_);
    const double end = static_cast<double>(window_ + 1) * kWindowSeconds;
    if (churn_ != nullptr) {
      while (horizon_ < end) {
        constexpr double kBlockSeconds = 16 * kWindowSeconds;
        std::vector<ChurnEvent> block = churn_->Sample(kBlockSeconds, churn_rng_);
        for (ChurnEvent& e : block) {
          e.time_seconds += horizon_;
          pending_.push_back(std::move(e));
        }
        std::stable_sort(pending_.begin(), pending_.end(),
                         [](const ChurnEvent& a, const ChurnEvent& b) {
                           return a.time_seconds < b.time_seconds;
                         });
        horizon_ += kBlockSeconds;
      }
      size_t due = 0;
      while (due < pending_.size() && pending_[due].time_seconds < end) {
        in.deltas.push_back(std::move(pending_[due].delta));
        ++due;
      }
      pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(due));
    }
    ++window_;
    return in;
  }

  // The stream RunWindow draws window seeds from.
  Rng& window_rng() { return window_rng_; }

 private:
  FailureModel model_;
  std::unique_ptr<ChurnGenerator> churn_;
  Rng scenario_rng_;
  Rng churn_rng_;
  Rng window_rng_;
  std::vector<ChurnEvent> pending_;  // sampled, not yet due; sorted by absolute time
  double horizon_ = 0.0;             // churn is sampled up to here
  uint64_t window_ = 0;
};

// ---- one pass: set up, warm up, run timed windows, check -----------------------------------

struct PassConfig {
  const char* label = "main";
  Layers layers;
  bool traced = false;
  int setup_reps = 1;
  bool check_log = false;  // read the window log back and replay it (history on)
  bool sim_drive = false;  // time the probe simulator on the pass's scenarios (traced)
};

struct PassResult {
  const char* label = "";
  // End to end.
  Samples setup_s;
  Samples window_ms;
  Samples churn_ms;
  Samples detect_s;
  size_t windows = 0;  // timed windows
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  double rss_mb = 0.0;  // resident-memory growth over this lane's set-up and own windows
  int64_t injected = 0;
  int64_t named = 0;
  int64_t hits = 0;
  // Operations checked, and those that failed a check.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  // Fingerprints of every window run, warm-up first (the window-log index order).
  std::vector<Fingerprint> prints;
  // Localization and detector.
  Samples pll_ms;
  Samples pll_after_churn_ms;
  double pll_ms_total = 0.0;  // timed windows
  double diagnoses = 0.0;
  double suspects = 0.0;
  double alarms = 0.0;
  // Churn.
  Samples repair_ms;
  Samples dispatch_ms;
  double score_evaluations = 0.0;
  double touched_components = 0.0;
  double entries_changed = 0.0;
  // Report plane (timed windows).
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t observations_folded = 0;
  uint64_t frames_dropped_total = 0;  // collector + transport drop counters at pass end
  double send_us_per_frame = 0.0;
  double receive_us_per_frame = 0.0;
  double queue_wait_us_p50 = 0.0;
  double encode_us_per_frame = 0.0;
  double decode_us_per_frame = 0.0;
  // History.
  uint64_t sealed = 0;
  uint64_t log_bytes = 0;
  uint64_t log_boundaries = 0;
  uint64_t log_deltas = 0;
  double dirty_ratio_sum = 0.0;
  double append_ms_total = 0.0;
  double replay_ms_total = 0.0;
  size_t replayed_windows = 0;
  // Anomaly engine, driven directly (ms for one window's boundaries).
  double anomaly_observe_ms = 0.0;
  // Probe simulator, driven directly.
  Samples sim_ms;
  double sim_flows = 0.0;
  double sim_probes = 0.0;

  // Counts `count` failed operations and keeps the first few reasons for the log.
  void Fail(const std::string& what, uint64_t count = 1) {
    failed += count;
    if (failures.size() < 8) {
      failures.push_back(what);
    }
  }
};

struct NetSnapshot {
  uint64_t sent = 0;
  uint64_t bytes = 0;
  uint64_t folded = 0;
  uint64_t observations = 0;
  uint64_t dropped = 0;
};

NetSnapshot Snap(DetectorSystem& sys) {
  NetSnapshot s;
  const CollectorGroup* group = sys.collector_group();
  if (group == nullptr) {
    return s;
  }
  for (size_t i = 0; i < group->num_collectors(); ++i) {
    if (const Transport* t = sys.report_transport(i)) {
      const TransportStats ts = t->stats();
      s.sent += ts.frames_sent;
      s.bytes += ts.bytes_sent;
      s.dropped += ts.frames_dropped;
    }
  }
  const CollectorStats cs = group->stats();
  s.folded = cs.frames_folded;
  s.observations = cs.observations_folded;
  s.dropped += cs.duplicates_dropped + cs.decode_errors + cs.tampered_dropped +
               cs.stale_window_dropped + cs.queue_overflow_dropped + cs.unknown_slot_dropped +
               cs.wrong_partition_dropped;
  return s;
}

// One system under test fed its own copy of the workload's inputs. Lanes run in lockstep
// (RunLockstep) so that lanes compared with each other see the same machine state.
class Lane {
 public:
  Lane(const Context& ctx, const PassConfig& cfg, Tracer& tracer)
      : ctx_(ctx),
        cfg_(cfg),
        tracer_(tracer),
        log_dir_(ctx.args.scratch + "/" + cfg.label + "-log") {
    r_.label = cfg.label;
  }

  // Every set-up repetition; the last one's system stays for the timed windows.
  void SetUp() {
    const double rss0 = CurrentRssMb();
    for (int rep = 0; rep < std::max(1, cfg_.setup_reps); ++rep) {
      Setup(rep);
    }
    r_.rss_mb = CurrentRssMb() - rss0;
    if (cfg_.layers.report) {
      net_before_ = Snap(rig_->system());
    }
  }

  // One timed window, with the churn due at its open. Wall and CPU time are charged to this
  // lane only for its own step, so lanes can interleave.
  void Step() {
    const double rss0 = cfg_.traced ? CurrentRssMb() : 0.0;
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    RunOneWindow(/*timed=*/true);
    r_.wall_s += static_cast<double>(NowNs() - t0) * 1e-9;
    r_.cpu_s += CpuSeconds() - cpu0;
    if (cfg_.traced) {
      r_.rss_mb += CurrentRssMb() - rss0;
    }
  }

  // Closes the lane: traffic and log accounting, the simulator drive, then (with the system
  // freed) the log read-back and replay.
  PassResult Finish() {
    DetectorSystem& sys = rig_->system();
    r_.peak_rss_mb = PeakRssMb();
    if (cfg_.layers.report) {
      const NetSnapshot after = Snap(sys);
      r_.frames_sent = after.sent - net_before_.sent;
      r_.bytes_sent = after.bytes - net_before_.bytes;
      r_.observations_folded = after.observations - net_before_.observations;
      r_.frames_dropped_total = after.dropped;
      if (net_probe_ != nullptr) {
        SummarizeNet();
      }
    }
    if (cfg_.layers.history) {
      AccountLog();
    }
    if (cfg_.sim_drive) {
      SimDrive();
    }
    const bool check_log = cfg_.layers.history && cfg_.check_log;
    const ProbeMatrix matrix = check_log ? sys.probe_matrix() : ProbeMatrix{};
    std::vector<RttSketch> last_rtt;
    if (check_log && cfg_.sim_drive && cfg_.layers.anomaly) {
      const std::span<const RttSketch> rtt = sys.last_window_rtt_totals();
      last_rtt.assign(rtt.begin(), rtt.end());
    }
    rig_->ReleaseSystem();
    sink_.reset();  // closes the traced log writer before the log is read back
    if (check_log) {
      CheckLogAndReplay(matrix);
    }
    if (!last_rtt.empty() && !last_totals_.empty()) {
      AnomalyDrive(matrix, last_rtt);
    }
    std::filesystem::remove_all(log_dir_);
    return std::move(r_);
  }

 private:
  // One set-up: topology, probe matrix and system construction plus the untimed warm-up
  // window. Every repetition starts from nothing and must reproduce the first one's warm-up
  // window exactly.
  void Setup(int rep) {
    inputs_.reset();
    rig_.reset();
    sink_.reset();
    live_.clear();
    r_.prints.clear();
    malloc_trim(0);  // so one repetition's freed memory does not stack on the next one's peak
    std::filesystem::remove_all(log_dir_);
    const int64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer_, "setup");
      const bool traced_log = cfg_.traced && cfg_.layers.history;
      rig_ = std::make_unique<Rig>(ctx_, cfg_.layers,
                                   cfg_.layers.history && !traced_log ? log_dir_ : "");
      DetectorSystem& sys = rig_->system();
      if (traced_log) {
        sink_ = std::make_unique<TimedLogSink>(tracer_, log_dir_);
        sys.set_history_sink(sink_.get());
      }
      if (cfg_.layers.report && (cfg_.traced || ctx_.args.inject == Inject::kFrameDrop)) {
        InstallTransports(sys);
      }
      inputs_ = std::make_unique<InputStream>(rig_->topology(), *ctx_.spec, ctx_.args.seed);
      RunOneWindow(/*timed=*/false);
    }
    r_.setup_s.Add(static_cast<double>(NowNs() - t0) * 1e-9);
    if (rep == 0) {
      warmup_print_ = r_.prints.front();
    } else if (r_.prints.front().full != warmup_print_.full) {
      r_.Fail("set-up repetition " + std::to_string(rep) +
              ": warm-up window differs from the first set-up's on the same seed");
    }
  }

  void InstallTransports(DetectorSystem& sys) {
    LoopbackOptions loopback;
    if (ctx_.args.inject == Inject::kFrameDrop) {
      loopback.drop_rate = 0.02;
      loopback.seed = ctx_.args.seed;
    }
    if (cfg_.traced) {
      net_probe_ = std::make_unique<NetProbe>();
      NetProbe* probe = net_probe_.get();
      sys.SetReportTransportFactory([probe, loopback](size_t) -> std::unique_ptr<Transport> {
        return std::make_unique<TimedTransport>(*probe, loopback);
      });
    } else {
      sys.SetReportTransportFactory([loopback](size_t) -> std::unique_ptr<Transport> {
        return std::make_unique<LoopbackTransport>(loopback);
      });
    }
  }

  void RunOneWindow(bool timed) {
    DetectorSystem& sys = rig_->system();
    const WorkloadSpec& spec = *ctx_.spec;
    const int64_t w = static_cast<int64_t>(r_.prints.size());
    WindowInput in = inputs_->Next();

    bool churned = false;
    for (const TopologyDelta& delta : in.deltas) {
      const int64_t c0 = NowNs();
      DetectorSystem::ChurnApplyResult applied;
      {
        Tracer::Scope span(tracer_, "churn.apply", w);
        applied = sys.ApplyTopologyDelta(delta);
      }
      const double ms = static_cast<double>(NowNs() - c0) * 1e-6;
      churned = true;
      if (timed) {
        const double repair_ms = applied.repair.seconds * 1e3;
        r_.churn_ms.Add(ms);
        r_.repair_ms.Add(repair_ms);
        r_.dispatch_ms.Add(ms - repair_ms);
        r_.score_evaluations += static_cast<double>(applied.repair.score_evaluations);
        r_.touched_components += applied.repair.touched_components;
        r_.entries_changed +=
            static_cast<double>(applied.entries_removed + applied.entries_added);
      }
    }

    const NetSnapshot before = cfg_.layers.report ? Snap(sys) : NetSnapshot{};
    DetectorSystem::StreamingWindowResult out;
    const int64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer_, "window", w);
      if (spec.streaming) {
        out = sys.RunWindowStreaming(in.scenario, {}, inputs_->window_rng());
      } else {
        out.window = sys.RunWindow(in.scenario, inputs_->window_rng());
      }
    }
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;

    // Correctness of this window.
    ++r_.attempted;
    std::string problem;
    if (out.window.probes_sent <= 0) {
      problem = "no probes sent";
    }
    if (spec.streaming && (out.timeline.empty() || out.timeline.back().localization.links !=
                                                       out.window.localization.links)) {
      problem = "streaming timeline does not end at the window-end diagnosis";
    }
    if (cfg_.layers.report) {
      NetSnapshot after = Snap(sys);
      if (after.sent < before.sent || after.folded < before.folded) {
        after = NetSnapshot{};  // the fabric was rebuilt at window open: counters restarted
      }
      const uint64_t sent = after.sent - before.sent;
      const uint64_t folded = after.folded - before.folded;
      r_.attempted += sent;
      r_.failed += folded < sent ? sent - folded : 0;
      if (sent == 0 || folded != sent || after.dropped != before.dropped) {
        problem = "collector accounting: " + std::to_string(sent) + " frames sent, " +
                  std::to_string(folded) + " folded, " +
                  std::to_string(after.dropped - before.dropped) + " dropped";
      }
    }
    if (!problem.empty()) {
      r_.Fail("window " + std::to_string(w) + ": " + problem);
    }
    r_.prints.push_back(FingerprintOf(out));
    if (cfg_.layers.history) {
      std::vector<std::vector<SuspectLink>> boundaries;
      if (spec.streaming) {
        for (const DetectorSystem::SegmentDiagnosis& d : out.timeline) {
          boundaries.push_back(d.localization.links);
        }
      } else {
        boundaries.push_back(out.window.localization.links);
      }
      live_.push_back(std::move(boundaries));
    }
    if (!timed) {
      return;
    }

    ++r_.windows;
    r_.window_ms.Add(ms);
    if (cfg_.sim_drive && scenarios_.size() < 64) {
      scenarios_.push_back(in.scenario);
    }
    // Accuracy against the injected failures.
    const std::vector<LinkId> injected = in.scenario.FailedLinks();
    const std::vector<SuspectLink>& named = out.window.localization.links;
    r_.injected += static_cast<int64_t>(injected.size());
    r_.named += static_cast<int64_t>(named.size());
    for (const LinkId link : injected) {
      const bool hit = std::any_of(named.begin(), named.end(),
                                   [link](const SuspectLink& s) { return s.link == link; });
      r_.hits += hit ? 1 : 0;
      if (spec.streaming) {
        const double t = out.FirstDetectionSeconds(link);
        if (t >= 0.0) {
          r_.detect_s.Add(t);
        }
      } else if (hit) {
        r_.detect_s.Add(out.window.detection_latency_seconds);
      }
    }
    // Localization work.
    r_.suspects += static_cast<double>(named.size());
    if (spec.streaming) {
      for (size_t i = 0; i < out.timeline.size(); ++i) {
        const double pll = out.timeline[i].localization.seconds * 1e3;
        r_.pll_ms.Add(pll);
        r_.pll_ms_total += pll;
        if (churned && i == 0) {
          r_.pll_after_churn_ms.Add(pll);
        }
        r_.alarms += static_cast<double>(out.timeline[i].anomalies.size());
      }
      r_.diagnoses += static_cast<double>(out.timeline.size());
    } else {
      const double pll = out.window.localization.seconds * 1e3;
      r_.pll_ms.Add(pll);
      r_.pll_ms_total += pll;
      if (churned) {
        r_.pll_after_churn_ms.Add(pll);
      }
      r_.alarms += static_cast<double>(out.window.anomalies.size());
      r_.diagnoses += 1.0;
    }
  }

  void SummarizeNet() {
    const NetProbe& p = *net_probe_;
    r_.send_us_per_frame =
        p.sends() > 0 ? static_cast<double>(p.send_ns()) * 1e-3 / static_cast<double>(p.sends())
                      : 0.0;
    r_.receive_us_per_frame = p.receives() > 0 ? static_cast<double>(p.receive_ns()) * 1e-3 /
                                                     static_cast<double>(p.receives())
                                               : 0.0;
    Samples wait;
    for (const double us : p.wait_us()) {
      wait.Add(us);
    }
    r_.queue_wait_us_p50 = wait.Quantile(0.5);
    // Codec cost on the frames this pass actually sent: decode them all, then re-encode the
    // decoded frames, each for at least ~50 ms of work.
    const std::vector<std::vector<uint8_t>>& frames = p.captured();
    if (frames.empty()) {
      return;
    }
    std::vector<ReportFrame> decoded(frames.size());
    int64_t decode_ns = 0;
    size_t decodes = 0;
    do {
      const int64_t t0 = NowNs();
      for (size_t i = 0; i < frames.size(); ++i) {
        if (ReportCodec::Decode(frames[i], decoded[i]) != DecodeStatus::kOk) {
          r_.Fail("captured frame " + std::to_string(i) + " does not decode");
          return;
        }
      }
      decode_ns += NowNs() - t0;
      decodes += frames.size();
    } while (decode_ns < 50'000'000);
    std::vector<uint8_t> buf;
    int64_t encode_ns = 0;
    size_t encodes = 0;
    do {
      const int64_t t0 = NowNs();
      for (const ReportFrame& f : decoded) {
        ReportCodec::Encode(f, buf);
      }
      encode_ns += NowNs() - t0;
      encodes += decoded.size();
    } while (encode_ns < 50'000'000);
    r_.decode_us_per_frame = static_cast<double>(decode_ns) * 1e-3 / static_cast<double>(decodes);
    r_.encode_us_per_frame = static_cast<double>(encode_ns) * 1e-3 / static_cast<double>(encodes);
  }

  // Log appends: every sealed window must have been appended.
  void AccountLog() {
    DetectorSystem& sys = rig_->system();
    uint64_t appended = 0;
    if (sink_ != nullptr) {
      r_.sealed = sink_->sealed();
      appended = sink_->sealed() - sink_->refused();
      r_.log_bytes = sink_->writer().bytes_appended();
      r_.log_boundaries = sink_->boundaries();
      r_.log_deltas = sink_->deltas();
      r_.dirty_ratio_sum = sink_->dirty_ratio_sum();
      r_.append_ms_total = static_cast<double>(sink_->append_ns()) * 1e-6;
    } else {
      r_.sealed = sys.history_windows_sealed();
      if (const WindowLogWriter* log = sys.history_log()) {
        appended = log->records_appended();
        r_.log_bytes = log->bytes_appended();
      }
    }
    r_.attempted += r_.sealed;
    if (appended != r_.sealed) {
      r_.Fail("window log refused " + std::to_string(r_.sealed - appended) + " of " +
                  std::to_string(r_.sealed) + " appends",
              r_.sealed - appended);
    }
  }

  // Drives Pinger::RunEntryRange over the system's pinglists under the pass's scenarios —
  // the probe simulator alone, at the pass's thread count.
  void SimDrive() {
    DetectorSystem& sys = rig_->system();
    const std::vector<Pinglist>& lists = sys.pinglists();
    LatencyModel latency{LatencyModelOptions{}};
    ThreadPool pool(ctx_.threads);
    const int64_t budget_ns = 2'000'000'000;
    const int64_t start = NowNs();
    for (size_t w = 0; w < scenarios_.size() && (w == 0 || NowNs() - start < budget_ns); ++w) {
      ProbeEngine engine(rig_->topology(), scenarios_[w], ProbeConfig{});
      if (cfg_.layers.anomaly) {
        engine.AttachRttObservation(&latency, {}, DetectorSystemOptions{}.rtt_samples_per_path);
      }
      const uint64_t window_seed = HashCombine(ctx_.args.seed, w);
      std::atomic<size_t> next{0};
      std::atomic<int64_t> flows{0};
      std::atomic<int64_t> probes{0};
      const int64_t t0 = NowNs();
      for (size_t t = 0; t < pool.num_threads(); ++t) {
        pool.Submit([&] {
          std::vector<PathReport> out;
          for (size_t i = next.fetch_add(1); i < lists.size(); i = next.fetch_add(1)) {
            out.clear();
            const Pinger pinger(lists[i]);
            const PingerTraffic traffic = pinger.RunEntryRange(
                engine, kWindowSeconds, window_seed, 0, lists[i].entries.size(), out);
            flows.fetch_add(static_cast<int64_t>(lists[i].entries.size()));
            probes.fetch_add(traffic.probes_sent);
          }
        });
      }
      pool.WaitAll();
      r_.sim_ms.Add(static_cast<double>(NowNs() - t0) * 1e-6);
      r_.sim_flows += static_cast<double>(flows.load());
      r_.sim_probes += static_cast<double>(probes.load());
    }
  }

  // Reads the window log back record by record (one decoded window in memory at a time) and
  // replays each through QueryEngine::Replay with the live PLL options. Every boundary must
  // reproduce the live suspect set exactly; a damaged or missing record fails its boundaries.
  void CheckLogAndReplay(const ProbeMatrix& matrix) {
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const fs::directory_entry& e : fs::directory_iterator(log_dir_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("wlog-", 0) == 0 && e.path().extension() == ".seg") {
        files.push_back(e.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    if (ctx_.args.inject == Inject::kLogFlip && !files.empty()) {
      FlipByte(files.front());
    }
    size_t live_boundaries = 0;
    for (const auto& w : live_) {
      live_boundaries += w.size();
    }
    r_.attempted += live_boundaries;
    size_t identical = 0;
    size_t next_window = 0;
    std::string damage;
    ReplayOptions options;
    options.pll = rig_->pll();
    for (const std::string& file : files) {
      std::ifstream in(file, std::ios::binary);
      const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>());
      if (bytes.size() < sizeof(kSegmentHeader) ||
          std::memcmp(bytes.data(), kSegmentHeader, sizeof(kSegmentHeader)) != 0) {
        damage = "bad segment header in " + file;
        continue;
      }
      size_t pos = sizeof(kSegmentHeader);
      while (pos < bytes.size()) {
        SealedWindow window;
        const WindowLogStatus status = DecodeWindowRecord(bytes, pos, ReportKey{}, window);
        if (status != WindowLogStatus::kOk) {
          damage = std::string(WindowLogStatusName(status)) + " at byte " +
                   std::to_string(pos) + " of " + file;
          break;
        }
        const size_t index = static_cast<size_t>(window.window_index);
        if (index != next_window || index >= live_.size()) {
          damage = "window " + std::to_string(index) + " out of order in " + file;
          break;
        }
        ++next_window;
        last_totals_.assign(static_cast<size_t>(window.num_slots), PathObservation{});
        for (const SealedBoundary& b : window.boundaries) {
          for (const SealedDelta& d : b.deltas) {
            if (d.slot >= 0 && static_cast<size_t>(d.slot) < last_totals_.size()) {
              last_totals_[static_cast<size_t>(d.slot)].sent += d.sent;
              last_totals_[static_cast<size_t>(d.slot)].lost += d.lost;
            }
          }
        }
        const int64_t t0 = NowNs();
        std::vector<SealedWindow> one;
        one.push_back(std::move(window));
        const QueryEngine engine(std::move(one));
        const std::vector<ReplayedWindow> replayed =
            engine.Replay(rig_->topology(), matrix, options);
        r_.replay_ms_total += static_cast<double>(NowNs() - t0) * 1e-6;
        ++r_.replayed_windows;
        const std::vector<std::vector<SuspectLink>>& live = live_[index];
        for (size_t b = 0; b < live.size(); ++b) {
          if (!replayed.empty() && b < replayed[0].boundaries.size() &&
              replayed[0].boundaries[b].localization.links == live[b]) {
            ++identical;
          }
        }
      }
    }
    if (!damage.empty()) {
      r_.Fail("window log read-back: " + damage, 0);
    }
    if (identical != live_boundaries) {
      r_.Fail("replay: " + std::to_string(live_boundaries - identical) + " of " +
                  std::to_string(live_boundaries) +
                  " boundaries missing or not identical to the live run",
              live_boundaries - identical);
    }
  }

  // Drives AnomalyEngine::Observe, the anomaly layer's boundary step, on inputs the size of
  // the last live window: its window-end loss totals and merged RTT sketches arrive as
  // `segments` equal increments, one Observe per boundary as in the live window.
  void AnomalyDrive(const ProbeMatrix& matrix, const std::vector<RttSketch>& rtt) {
    AnomalyEngine engine{AnomalyOptions{}};
    engine.BeginWindow();
    Observations totals(last_totals_.size());
    std::vector<RttSketch> rtt_totals(rtt.size());
    int64_t ns = 0;
    for (int b = 1; b <= ctx_.spec->segments; ++b) {
      for (size_t s = 0; s < totals.size(); ++s) {
        totals[s].sent += last_totals_[s].sent;
        totals[s].lost += last_totals_[s].lost;
      }
      for (size_t s = 0; s < rtt.size(); ++s) {
        rtt_totals[s].Merge(rtt[s]);
      }
      const int64_t t0 = NowNs();
      engine.Observe(matrix, totals, rtt_totals);
      ns += NowNs() - t0;
    }
    r_.anomaly_observe_ms = static_cast<double>(ns) * 1e-6;
  }

  static void FlipByte(const std::string& file) {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    const std::streamoff at = std::max<std::streamoff>(sizeof(kSegmentHeader) + 1, size / 2);
    if (at >= size) {
      return;
    }
    char c = 0;
    f.seekg(at);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(at);
    f.write(&c, 1);
  }

  const Context& ctx_;
  const PassConfig cfg_;
  Tracer& tracer_;
  const std::string log_dir_;
  std::unique_ptr<TimedLogSink> sink_;  // outlives the system it is installed on
  std::unique_ptr<NetProbe> net_probe_;  // outlives the transports that feed it
  std::unique_ptr<Rig> rig_;
  std::unique_ptr<InputStream> inputs_;
  std::vector<std::vector<std::vector<SuspectLink>>> live_;  // per window, per boundary
  std::vector<FailureScenario> scenarios_;                   // for the simulator drive
  Observations last_totals_;  // window-end loss totals of the last window read back
  Fingerprint warmup_print_;
  NetSnapshot net_before_;
  PassResult r_;
};

// Sets every lane up, then runs timed windows round-robin — lane 0's window w, lane 1's
// window w, ... — for `windows` rounds, or (windows == 0) until `seconds` have passed, at
// least one round. Lanes with cfg.traced record into `tracer`.
std::vector<PassResult> RunLockstep(const Context& ctx, const std::vector<PassConfig>& cfgs,
                                    Tracer& tracer, double seconds, int windows) {
  malloc_trim(0);  // hand earlier passes' freed memory back before these are measured
  Tracer off(false);
  std::vector<std::unique_ptr<Lane>> lanes;
  for (const PassConfig& cfg : cfgs) {
    lanes.push_back(std::make_unique<Lane>(ctx, cfg, cfg.traced ? tracer : off));
    lanes.back()->SetUp();
  }
  const int64_t t0 = NowNs();
  for (int round = 0; windows > 0 ? round < windows
                                  : (round == 0 || (NowNs() - t0) * 1e-9 < seconds);
       ++round) {
    for (auto& lane : lanes) {
      lane->Step();
    }
  }
  std::vector<PassResult> results;
  for (auto& lane : lanes) {
    results.push_back(lane->Finish());
    lane.reset();  // frees this lane's memory before the next one's log replay
  }
  return results;
}

// ---- output ---------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  std::printf("  %-36s %16s  %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g  %-6s %8zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
}

void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintFailures(const PassResult& r, const char* label) {
  for (const std::string& f : r.failures) {
    std::printf("CHECK FAILED [%s]: %s\n", label, f.c_str());
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

uint64_t Digest(const std::vector<Fingerprint>& prints, size_t limit) {
  uint64_t h = 0;
  for (size_t i = 0; i < prints.size() && i < limit; ++i) {
    h = HashCombine(h, prints[i].full);
  }
  return h;
}

// ---- the untraced run: end-to-end metrics ----------------------------------------------------

int RunEndToEnd(const Context& ctx) {
  Tracer off(false);
  PassConfig cfg;
  cfg.layers = ctx.layers;
  cfg.setup_reps = kSetupReps;
  cfg.check_log = true;
  const PassResult r = RunLockstep(ctx, {cfg}, off, ctx.args.seconds, ctx.args.windows)[0];

  const double op_fail_ratio =
      Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  const double n = static_cast<double>(r.windows);
  const std::vector<Metric> all = {
      {"setup_s", r.setup_s.Quantile(0.5), "s", r.setup_s.size()},
      {"windows_per_s", Ratio(n, r.wall_s), "1/s", r.windows},
      {"window_ms_p50", r.window_ms.Quantile(0.5), "ms", r.window_ms.size()},
      {"window_ms_p90", r.window_ms.Quantile(0.9), "ms", r.window_ms.size()},
      {"cpu_ms_per_window", Ratio(r.cpu_s * 1e3, n), "ms", r.windows},
      {"peak_rss_mb", r.peak_rss_mb, "MB", 1},
      {"churn_apply_ms_p50", r.churn_ms.Quantile(0.5), "ms", r.churn_ms.size()},
      {"churn_apply_ms_p90", r.churn_ms.Quantile(0.9), "ms", r.churn_ms.size()},
      {"detect_s_p50", r.detect_s.Quantile(0.5), "s", r.detect_s.size()},
      {"recall", Ratio(static_cast<double>(r.hits), static_cast<double>(r.injected)), "ratio",
       static_cast<size_t>(r.injected)},
      {"precision", Ratio(static_cast<double>(r.hits), static_cast<double>(r.named)), "ratio",
       static_cast<size_t>(r.named)},
      {"op_fail_ratio", op_fail_ratio, "ratio", static_cast<size_t>(r.attempted)},
  };
  PrintTable("end-to-end (untraced)", all);
  if (r.window_ms.size() < 100) {
    std::printf("  note: window_ms_p90 rests on %zu windows; fewer than 10 lie beyond it\n",
                r.window_ms.size());
  }
  std::printf("\nchecks: %llu operations, %llu failed (windows, report frames, log appends, "
              "replayed boundaries)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("digest: %016llx over %zu windows (warm-up included); first 16: %016llx\n",
              static_cast<unsigned long long>(Digest(r.prints, r.prints.size())),
              r.prints.size(), static_cast<unsigned long long>(Digest(r.prints, 16)));
  PrintFailures(r, r.label);

  // The result line carries the metrics that are defined, non-zero and steady from run to run
  // on every workload. Table only: churn latency (0 off the churn workload), detection time
  // (the constant window length in batch mode), op_fail_ratio (0 unless a check fails; it is
  // failed/attempted), and the window-time percentiles, which on a shared host jump with the
  // share of windows that met outside interference (see README.md).
  static const char* const kResultMetrics[] = {"setup_s",           "windows_per_s",
                                               "cpu_ms_per_window", "peak_rss_mb",
                                               "recall",            "precision"};
  std::vector<Metric> result;
  for (const char* name : kResultMetrics) {
    for (const Metric& m : all) {
      if (m.name == name) {
        result.push_back(m);
      }
    }
  }
  const bool correct = r.failed == 0 && r.failures.empty();
  PrintResultJson(correct, r.attempted, r.failed, result);
  return correct ? 0 : 3;
}

// ---- the traced run: per-layer metrics -------------------------------------------------------

int RunTraced(const Context& ctx) {
  Tracer tracer(true);
  const Layers& on = ctx.layers;
  // Comparisons run as lockstep pairs over the same seed: untraced vs traced (the tracing
  // overhead), then per layer the workload runs, traced with vs without it. The first pair
  // is timed against its share of --seconds; the others repeat its window count.
  const int pairs = 1 + (on.report ? 1 : 0) + (on.anomaly ? 1 : 0) + (on.history ? 1 : 0);
  const double share = 1.0 / (pairs + 0.5);

  PassConfig untraced;
  untraced.layers = on;
  untraced.label = "untraced";
  PassConfig traced = untraced;
  traced.label = "traced";
  traced.traced = true;
  traced.check_log = true;
  traced.sim_drive = true;
  std::vector<PassResult> first = RunLockstep(ctx, {untraced, traced}, tracer,
                                              ctx.args.seconds * share, ctx.args.windows);
  const PassResult& u = first[0];
  const PassResult& t = first[1];
  const int n = static_cast<int>(t.windows);

  uint64_t attempted = u.attempted + t.attempted;
  uint64_t failed = u.failed + t.failed;
  bool correct = u.failures.empty() && t.failures.empty();
  PrintFailures(u, "untraced");
  PrintFailures(t, "traced");

  // Identity: two lanes over the same seed must give identical windows. Where the system
  // promises the identity (tracing, the report plane, sealing), a mismatch is a failed check.
  // Where it does not, the mismatch only withholds the difference.
  auto identical = [&](const PassResult& a, const PassResult& b, bool loss_only, bool promised,
                       const char* what) {
    bool same = a.prints.size() == b.prints.size();
    for (size_t i = 0; same && i < a.prints.size(); ++i) {
      same = loss_only ? a.prints[i].loss == b.prints[i].loss
                       : a.prints[i].full == b.prints[i].full;
    }
    std::printf("identity %-34s %s (%zu windows)%s\n", what, same ? "ok" : "MISMATCH",
                a.prints.size(),
                same || promised ? "" : " -- not promised by the system; difference withheld");
    if (promised) {
      ++attempted;
      if (!same) {
        ++failed;
        correct = false;
      }
    }
    return same;
  };
  identical(u, t, false, true, "untraced == traced:");

  // One pair per layer the workload runs: traced with the layer vs traced without it. The
  // difference in mean window time (and in resident memory) is the layer's cost, reported
  // only when the two lanes' results are identical.
  struct Delta {
    double ms = 0.0;
    double rss_mb = 0.0;
    bool valid = false;
  };
  auto ablate = [&](const char* label, Layers layers, bool loss_only, bool promised,
                    const char* what) {
    PassConfig with = traced;
    with.label = "with";
    with.check_log = false;
    with.sim_drive = false;
    PassConfig without = with;
    without.label = label;
    without.layers = layers;
    const std::vector<PassResult> pair = RunLockstep(ctx, {with, without}, tracer, 0.0, n);
    Delta d;
    for (const PassResult& r : pair) {
      attempted += r.attempted;
      failed += r.failed;
      correct = correct && r.failures.empty();
      PrintFailures(r, r.label);
    }
    if (identical(pair[0], pair[1], loss_only, promised, what)) {
      d = Delta{pair[0].window_ms.Mean() - pair[1].window_ms.Mean(),
                pair[0].rss_mb - pair[1].rss_mb, true};
    }
    return d;
  };
  Delta anomaly;
  Delta history;
  Delta report;
  if (on.anomaly) {
    // The loss suspects would match only if RTT sampling left the loss draws alone; it draws
    // from the same per-pinger stream between paths, so the system promises no such identity
    // (DetectorSystem::set_anomaly: "the two modes are distinct trajectories").
    Layers l = on;
    l.anomaly = false;
    anomaly = ablate("no-anomaly", l, /*loss_only=*/true, /*promised=*/false,
                     "anomaly on == off (loss):");
  }
  if (on.history) {
    Layers l = on;
    l.history = false;
    history = ablate("no-history", l, false, true, "history on == off:");
  }
  if (on.report) {
    Layers l = on;
    l.report = false;
    report = ablate("no-report", l, false, true, "report plane == direct:");
  }

  const double windows = static_cast<double>(t.windows);
  const double sealed = static_cast<double>(t.sealed);
  const double sim_ms = t.sim_ms.Mean();
  const double pll_per_window = Ratio(t.pll_ms_total, windows);
  // The window's layer shares. While the anomaly difference is withheld, the direct drive of
  // the anomaly engine stands in for it; the rest of the window is the detector's own time.
  const double anomaly_share = anomaly.valid ? anomaly.ms : t.anomaly_observe_ms;
  const double window_mean = t.window_ms.Mean();
  const double self_ms =
      window_mean - sim_ms - anomaly_share - history.ms - report.ms - pll_per_window;
  const double deltas = static_cast<double>(t.churn_ms.size());
  const double untraced_p50 = u.window_ms.Quantile(0.5);
  const double traced_p50 = t.window_ms.Quantile(0.5);
  const std::vector<Metric> metrics = {
      {"sim.probe_ms_per_window", sim_ms, "ms", t.sim_ms.size()},
      {"sim.flows_per_window", Ratio(t.sim_flows, static_cast<double>(t.sim_ms.size())), "count",
       t.sim_ms.size()},
      {"sim.probes_per_window", Ratio(t.sim_probes, static_cast<double>(t.sim_ms.size())),
       "count", t.sim_ms.size()},
      {"sim.ns_per_flow", Ratio(t.sim_ms.Sum() * 1e6, t.sim_flows), "ns", t.sim_ms.size()},
      {"anomaly.cost_ms_per_window", anomaly.ms, "ms", anomaly.valid ? t.windows : 0},
      {"anomaly.rss_mb", anomaly.rss_mb, "MB", anomaly.valid ? 1u : 0u},
      {"anomaly.alarms_per_window", Ratio(t.alarms, windows), "count",
       on.anomaly ? t.windows : 0},
      {"anomaly.observe_ms_per_window", t.anomaly_observe_ms, "ms",
       t.anomaly_observe_ms > 0.0 ? 1u : 0u},
      {"history.cost_ms_per_window", history.ms, "ms", history.valid ? t.windows : 0},
      {"history.append_ms_per_window", Ratio(t.append_ms_total, sealed), "ms", t.sealed},
      {"history.bytes_per_window", Ratio(static_cast<double>(t.log_bytes), sealed), "bytes",
       t.sealed},
      {"history.deltas_per_boundary",
       Ratio(static_cast<double>(t.log_deltas), static_cast<double>(t.log_boundaries)), "count",
       t.log_boundaries},
      {"history.dirty_slot_ratio",
       Ratio(t.dirty_ratio_sum, static_cast<double>(t.log_boundaries)), "ratio",
       t.log_boundaries},
      {"history.replay_ms_per_window",
       Ratio(t.replay_ms_total, static_cast<double>(t.replayed_windows)), "ms",
       t.replayed_windows},
      {"report.cost_ms_per_window", report.ms, "ms", report.valid ? t.windows : 0},
      {"report.encode_us_per_frame", t.encode_us_per_frame, "us", on.report ? 1u : 0u},
      {"report.decode_us_per_frame", t.decode_us_per_frame, "us", on.report ? 1u : 0u},
      {"report.frames_dropped", static_cast<double>(t.frames_dropped_total), "count",
       on.report ? 1u : 0u},
      {"net.frames_per_window", Ratio(static_cast<double>(t.frames_sent), windows), "count",
       on.report ? t.windows : 0},
      {"net.bytes_per_window", Ratio(static_cast<double>(t.bytes_sent), windows), "bytes",
       on.report ? t.windows : 0},
      {"net.bytes_per_observation",
       Ratio(static_cast<double>(t.bytes_sent), static_cast<double>(t.observations_folded)),
       "bytes", static_cast<size_t>(t.observations_folded)},
      {"net.send_us_per_frame", t.send_us_per_frame, "us", static_cast<size_t>(t.frames_sent)},
      {"net.receive_us_per_frame", t.receive_us_per_frame, "us",
       static_cast<size_t>(t.frames_sent)},
      {"net.queue_wait_us_p50", t.queue_wait_us_p50, "us", static_cast<size_t>(t.frames_sent)},
      {"pmc.repair_ms_p50", t.repair_ms.Quantile(0.5), "ms", t.repair_ms.size()},
      {"pmc.score_evaluations_per_delta", Ratio(t.score_evaluations, deltas), "count",
       t.churn_ms.size()},
      {"pmc.touched_components_per_delta", Ratio(t.touched_components, deltas), "count",
       t.churn_ms.size()},
      {"detector.dispatch_ms_per_delta", t.dispatch_ms.Mean(), "ms", t.dispatch_ms.size()},
      {"detector.entries_changed_per_delta", Ratio(t.entries_changed, deltas), "count",
       t.churn_ms.size()},
      {"localize.pll_ms_p50", t.pll_ms.Quantile(0.5), "ms", t.pll_ms.size()},
      {"localize.pll_ms_after_churn_p50", t.pll_after_churn_ms.Quantile(0.5), "ms",
       t.pll_after_churn_ms.size()},
      {"localize.diagnoses_per_window", Ratio(t.diagnoses, windows), "count", t.windows},
      {"localize.suspects_per_window", Ratio(t.suspects, windows), "count", t.windows},
      {"detector.window_ms_p50", traced_p50, "ms", t.window_ms.size()},
      {"detector.self_ms_per_window", self_ms, "ms", t.windows},
      {"detector.cpu_util", Ratio(t.cpu_s, t.wall_s * static_cast<double>(ctx.threads)),
       "ratio", t.windows},
      {"detector.boundaries_per_window", Ratio(t.diagnoses, windows), "count", t.windows},
      {"trace.overhead_pct", Ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0, "%",
       t.windows},
  };
  PrintTable("per-layer (traced run)", metrics);

  // Self-time breakdown: spans first, then the window split into the layer shares above.
  std::printf("\nspans (all traced passes)\n  %-16s %8s %12s %12s\n", "span", "count",
              "total ms", "self ms");
  for (const auto& [name, totals] : tracer.Totals()) {
    std::printf("  %-16s %8zu %12.3f %12.3f\n", name.c_str(), totals.count, totals.total_ms,
                totals.self_ms);
  }
  std::printf("\nwindow breakdown (traced pass, mean ms per window of %.3f)\n", window_mean);
  const struct {
    const char* name;
    double ms;
  } shares[] = {{"sim (probe drive)", sim_ms},
                {anomaly.valid || !on.anomaly ? "anomaly (delta)" : "anomaly (observe drive)",
                 anomaly_share},
                {"history (delta)", history.ms},
                {"report (delta)", report.ms},
                {"localize (pll)", pll_per_window},
                {"detector self", self_ms}};
  for (const auto& s : shares) {
    std::printf("  %-24s %10.3f ms  %6.1f%%\n", s.name, s.ms,
                Ratio(s.ms, window_mean) * 100.0);
  }
  if (!ctx.args.trace_out.empty()) {
    if (tracer.WriteChromeTrace(ctx.args.trace_out, ctx.spec->name)) {
      std::printf("spans written to %s (%zu spans)\n", ctx.args.trace_out.c_str(),
                  tracer.spans().size());
    } else {
      std::printf("could not write spans to %s\n", ctx.args.trace_out.c_str());
    }
  }
  PrintResultJson(correct && failed == 0, attempted, failed, metrics);
  return correct && failed == 0 ? 0 : 3;
}

// ---- arguments --------------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", key.c_str());
      return false;
    }
    key = key.substr(2);
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "toy") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--%s needs a value\n", key.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      args.trace = value == "1";
    } else if (key == "windows") {
      args.windows = std::max(0, std::atoi(value.c_str()));
    } else if (key == "toy") {
      args.toy = true;
    } else if (key == "inject") {
      if (value == "none") {
        args.inject = Inject::kNone;
      } else if (value == "log-flip") {
        args.inject = Inject::kLogFlip;
      } else if (value == "frame-drop") {
        args.inject = Inject::kFrameDrop;
      } else {
        std::fprintf(stderr, "unknown --inject %s\n", value.c_str());
        return false;
      }
    } else if (key == "scratch") {
      args.scratch = value;
    } else if (key == "trace-out") {
      args.trace_out = value;
    } else if (key == "commit") {
      args.commit = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace wwbench

int main(int argc, char** argv) {
  using namespace wwbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    return 1;
  }
  Context ctx;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) {
      ctx.spec = &spec;
    }
  }
  if (ctx.spec == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'; one of:", args.workload.c_str());
    for (const WorkloadSpec& spec : kWorkloads) {
      std::fprintf(stderr, " %s", spec.name);
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  ctx.args = args;
  ctx.k = args.toy ? 4 : ctx.spec->k;
  const size_t nproc = Nproc();
  const size_t wide = std::min<size_t>(4, nproc);
  ctx.threads = ctx.spec->multi_thread ? wide : 1;
  ctx.layers = Layers{ctx.spec->report, ctx.spec->anomaly, ctx.spec->history};

  std::printf("# wwbench: whole-window pipeline benchmark\n");
  std::printf("# workload: %s (k=%d%s) — %s\n", ctx.spec->name, ctx.k,
              args.toy ? ", toy scale" : "", ctx.spec->why);
  std::printf("# seed: %llu  seconds: %g  trace: %d  windows: %s  inject: %s\n",
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.windows > 0 ? std::to_string(args.windows).c_str() : "time-bounded",
              args.inject == Inject::kNone       ? "none"
              : args.inject == Inject::kLogFlip ? "log-flip"
                                                : "frame-drop");
  std::printf("# nproc: %zu  threads:", nproc);
  for (const WorkloadSpec& spec : kWorkloads) {
    std::printf(" %s=%zu", spec.name, spec.multi_thread ? wide : size_t{1});
  }
  std::printf("\n# compiler: %s  build type: %s\n", __VERSION__, WWBENCH_BUILD_TYPE);
  std::printf("# commit: %s\n", args.commit.c_str());
  std::printf("# transport: loopback, not a real link (in-process LoopbackTransport)\n");
  std::printf("# load: closed loop from one process; a window starts when the last returns\n");
  std::fflush(stdout);

  // Scratch log directories live under --scratch and are removed on every exit path below.
  std::filesystem::create_directories(args.scratch);
  struct ScratchGuard {
    std::string dir;
    ~ScratchGuard() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } guard{args.scratch};

  return args.trace ? RunTraced(ctx) : RunEndToEnd(ctx);
}
