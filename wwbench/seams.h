// Instrumented stand-ins the traced run installs through the system's public seams:
//  - TimedTransport, via DetectorSystem::SetReportTransportFactory: a LoopbackTransport whose
//    Send/Receive are timed, whose frames are stamped at Send so the wait until Receive is
//    known, and whose first frames are captured for the codec timings;
//  - TimedLogSink, via DetectorSystem::set_history_sink: a WindowLogWriter whose Append is
//    timed (a "history.append" span) and whose sealed windows are counted.
// Both pass every call through unchanged, so a traced window is bit-identical to an untraced
// one (the traced run checks this).
#ifndef WWBENCH_SEAMS_H_
#define WWBENCH_SEAMS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/history/window_log.h"
#include "src/net/loopback.h"
#include "wwbench/trace.h"

namespace wwbench {

// Counters shared by every TimedTransport of one pass.
class NetProbe {
 public:
  static constexpr size_t kMaxCaptured = 4096;
  static constexpr size_t kMaxWaitSamples = 1 << 18;

  void AddSend(int64_t ns, std::span<const uint8_t> frame) {
    send_ns_.fetch_add(ns, std::memory_order_relaxed);
    sends_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (captured_.size() < kMaxCaptured) {
      captured_.emplace_back(frame.begin(), frame.end());
    }
  }
  void AddReceive(int64_t ns, bool got_frame) {
    receive_ns_.fetch_add(ns, std::memory_order_relaxed);
    if (got_frame) {
      receives_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void AddWait(int64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    if (wait_us_.size() < kMaxWaitSamples) {
      wait_us_.push_back(static_cast<double>(ns) * 1e-3);
    }
  }

  int64_t send_ns() const { return send_ns_.load(); }
  int64_t sends() const { return sends_.load(); }
  int64_t receive_ns() const { return receive_ns_.load(); }
  int64_t receives() const { return receives_.load(); }
  // Serial-point accessors (no sender or receiver running).
  const std::vector<std::vector<uint8_t>>& captured() const { return captured_; }
  const std::vector<double>& wait_us() const { return wait_us_; }

 private:
  std::atomic<int64_t> send_ns_{0};
  std::atomic<int64_t> sends_{0};
  std::atomic<int64_t> receive_ns_{0};
  std::atomic<int64_t> receives_{0};
  std::mutex mu_;  // guards captured_ and wait_us_
  std::vector<std::vector<uint8_t>> captured_;
  std::vector<double> wait_us_;
};

// Wait stamps pair each delivered frame with its Send in FIFO order, which holds for a
// loopback without reordering; a frame the loopback drops leaves no stamp.
class TimedTransport final : public detector::Transport {
 public:
  TimedTransport(NetProbe& probe, detector::LoopbackOptions options)
      : probe_(probe), inner_(options) {}

  bool Send(std::span<const uint8_t> frame) override {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t dropped_before = inner_.stats().frames_dropped;
    const int64_t t0 = NowNs();
    const bool ok = inner_.Send(frame);
    const int64_t t1 = NowNs();
    if (inner_.stats().frames_dropped == dropped_before) {
      stamps_.push_back(t0);
    }
    probe_.AddSend(t1 - t0, frame);
    return ok;
  }

  bool Receive(std::vector<uint8_t>& out) override {
    const int64_t t0 = NowNs();
    const bool ok = inner_.Receive(out);
    const int64_t t1 = NowNs();
    probe_.AddReceive(t1 - t0, ok);
    if (ok) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stamps_.empty()) {
        probe_.AddWait(t1 - stamps_.front());
        stamps_.pop_front();
      }
    }
    return ok;
  }

  void Flush() override { inner_.Flush(); }
  detector::TransportStats stats() const override { return inner_.stats(); }

 private:
  NetProbe& probe_;
  detector::LoopbackTransport inner_;
  std::mutex mu_;  // orders stamps_ with the inner queue
  std::deque<int64_t> stamps_;
};

class TimedLogSink final : public detector::WindowSink {
 public:
  TimedLogSink(Tracer& tracer, std::string dir) : tracer_(tracer), writer_(std::move(dir)) {}

  void OnWindowSealed(const detector::SealedWindow& window) override {
    ++sealed_;
    for (const detector::SealedBoundary& b : window.boundaries) {
      ++boundaries_;
      deltas_ += b.deltas.size();
      if (window.num_slots > 0) {
        dirty_ratio_sum_ +=
            static_cast<double>(b.deltas.size()) / static_cast<double>(window.num_slots);
      }
    }
    const int64_t t0 = NowNs();
    bool ok = false;
    {
      Tracer::Scope span(tracer_, "history.append", static_cast<int64_t>(window.window_index));
      ok = writer_.Append(window);
    }
    append_ns_ += NowNs() - t0;
    if (!ok) {
      ++refused_;
    }
  }

  const detector::WindowLogWriter& writer() const { return writer_; }
  uint64_t sealed() const { return sealed_; }
  uint64_t refused() const { return refused_; }
  uint64_t boundaries() const { return boundaries_; }
  uint64_t deltas() const { return deltas_; }
  double dirty_ratio_sum() const { return dirty_ratio_sum_; }
  int64_t append_ns() const { return append_ns_; }

 private:
  Tracer& tracer_;
  detector::WindowLogWriter writer_;
  uint64_t sealed_ = 0;
  uint64_t refused_ = 0;
  uint64_t boundaries_ = 0;
  uint64_t deltas_ = 0;
  double dirty_ratio_sum_ = 0.0;
  int64_t append_ns_ = 0;
};

}  // namespace wwbench

#endif  // WWBENCH_SEAMS_H_
