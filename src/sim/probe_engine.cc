#include "src/sim/probe_engine.h"

#include <algorithm>

namespace detector {

ProbeEngine::ProbeEngine(const Topology& topo, const FailureScenario& scenario,
                         ProbeConfig config)
    : topo_(topo), config_(config), failure_of_link_(topo.NumLinks(), -1) {
  for (const LinkFailure& failure : scenario.failures) {
    CHECK(failure.link >= 0 && static_cast<size_t>(failure.link) < topo.NumLinks());
    // Last failure wins if a scenario lists a link twice (e.g. switch-down overlapping a link
    // failure); semantically they overlap anyway.
    if (failure_of_link_[static_cast<size_t>(failure.link)] < 0) {
      failure_of_link_[static_cast<size_t>(failure.link)] =
          static_cast<int32_t>(failures_.size());
      failures_.push_back(failure);
      if (failure.type == FailureType::kLatencyInflation && failure.added_delay_us > 0.0) {
        if (inflation_us_.empty()) {
          inflation_us_.assign(topo.NumLinks(), 0.0);
        }
        inflation_us_[static_cast<size_t>(failure.link)] = failure.added_delay_us;
      }
    }
  }
}

double ProbeEngine::LinkDropProbability(LinkId link, const FlowKey& flow) const {
  double drop = config_.base_loss_rate;
  if (failures_active_) {
    const int32_t f = failure_of_link_[static_cast<size_t>(link)];
    if (f >= 0) {
      const double failure_drop = failures_[static_cast<size_t>(f)].DropProbability(flow);
      drop = 1.0 - (1.0 - drop) * (1.0 - failure_drop);
    }
  }
  return drop;
}

double ProbeEngine::FlowSuccessProbability(std::span<const LinkId> links,
                                           const FlowKey& flow) const {
  const FlowKey reply = ReverseFlow(flow);
  double success = 1.0;
  for (LinkId link : links) {
    success *= (1.0 - LinkDropProbability(link, flow));
    success *= (1.0 - LinkDropProbability(link, reply));
  }
  return success;
}

void ProbeEngine::AttachLatencyModel(const LatencyModel* model,
                                     std::span<const double> link_load_mbps,
                                     double timeout_rtt_us) {
  CHECK(model != nullptr);
  CHECK_EQ(link_load_mbps.size(), topo_.NumLinks());
  latency_model_ = model;
  link_load_mbps_.assign(link_load_mbps.begin(), link_load_mbps.end());
  timeout_rtt_us_ = timeout_rtt_us;
}

void ProbeEngine::AttachRttObservation(const LatencyModel* model,
                                       std::span<const double> link_load_mbps,
                                       int samples_per_path, int sketch_bins) {
  CHECK(model != nullptr);
  CHECK(samples_per_path > 0);
  CHECK(link_load_mbps.empty() || link_load_mbps.size() == topo_.NumLinks());
  rtt_model_ = model;
  if (link_load_mbps.empty()) {
    rtt_link_load_mbps_.assign(topo_.NumLinks(), 0.0);
  } else {
    rtt_link_load_mbps_.assign(link_load_mbps.begin(), link_load_mbps.end());
  }
  rtt_samples_per_path_ = samples_per_path;
  rtt_sketch_bins_ = sketch_bins;
}

double ProbeEngine::OneWaySuccessProbability(std::span<const LinkId> links,
                                             const FlowKey& flow) const {
  double success = 1.0;
  for (LinkId link : links) {
    success *= (1.0 - LinkDropProbability(link, flow));
  }
  return success;
}

PathObservation ProbeEngine::SimulateFlow(std::span<const LinkId> links, const FlowKey& flow,
                                          int packets, Rng& rng) const {
  PathObservation obs;
  obs.sent = packets;
  if (packets > 0) {
    obs.lost = rng.NextBinomial(packets, 1.0 - FlowSuccessProbability(links, flow));
  }
  return obs;
}

PathObservation ProbeEngine::SimulatePath(std::span<const LinkId> links, NodeId src, NodeId dst,
                                          int packets, Rng& rng, RttSketch* rtt) const {
  PathObservation obs;
  obs.sent = packets;
  if (packets <= 0) {
    return obs;
  }
  const int ports = std::max(1, config_.port_count);
  const int base = packets / ports;
  const int remainder = packets % ports;
  for (int p = 0; p < ports; ++p) {
    const int n = base + (p < remainder ? 1 : 0);
    if (n == 0) {
      continue;
    }
    FlowKey flow;
    flow.src = src;
    flow.dst = dst;
    flow.src_port = static_cast<uint16_t>(config_.src_port_base + p);
    flow.dst_port = config_.dst_port;
    obs.lost += SimulateFlow(links, flow, n, rng).lost;
  }
  if (latency_model_ != nullptr && obs.lost < obs.sent) {
    // Survivors whose RTT exceeds the timeout also count as lost (§1's latency-as-loss rule).
    const int64_t survivors = obs.sent - obs.lost;
    int64_t timeouts = 0;
    for (int64_t i = 0; i < survivors; ++i) {
      if (latency_model_->SampleRttUs(links, link_load_mbps_, rng) > timeout_rtt_us_) {
        ++timeouts;
      }
    }
    obs.lost += timeouts;
  }
  if (rtt_model_ != nullptr && rtt != nullptr && obs.lost < obs.sent) {
    // RTT samples draw from the same stream after this path's loss draws: its counters are
    // unaffected, but the draws advance the stream for every later path.
    double inflation = 0.0;
    if (failures_active_ && !inflation_us_.empty()) {
      for (LinkId link : links) {
        // Round trip: the link's extra delay is paid in both directions.
        inflation += 2.0 * inflation_us_[static_cast<size_t>(link)];
      }
    }
    const int64_t survivors = obs.sent - obs.lost;
    const int64_t samples = std::min<int64_t>(survivors, rtt_samples_per_path_);
    for (int64_t i = 0; i < samples; ++i) {
      const double sample = rtt_model_->SampleRttUs(links, rtt_link_load_mbps_, rng) + inflation;
      rtt->Record(static_cast<int64_t>(sample));
    }
  }
  return obs;
}

bool ProbeEngine::SimulatePacket(std::span<const LinkId> links, const FlowKey& flow, Rng& rng,
                                 LinkId* dropped_link) const {
  // Request leg...
  for (LinkId link : links) {
    if (rng.NextBernoulli(LinkDropProbability(link, flow))) {
      if (dropped_link != nullptr) {
        *dropped_link = link;
      }
      return false;
    }
  }
  // ...then the reply leg in reverse with the reply flow.
  const FlowKey reply = ReverseFlow(flow);
  for (size_t i = links.size(); i-- > 0;) {
    if (rng.NextBernoulli(LinkDropProbability(links[i], reply))) {
      if (dropped_link != nullptr) {
        *dropped_link = links[i];
      }
      return false;
    }
  }
  if (dropped_link != nullptr) {
    *dropped_link = kInvalidLink;
  }
  return true;
}

}  // namespace detector
