#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "client/ramcloud_client.hpp"
#include "obs/slo_tracker.hpp"
#include "sim/token_bucket.hpp"
#include "ycsb/op_engine.hpp"
#include "ycsb/workload.hpp"

namespace rc::ycsb {

/// Closed-loop pacing on top of the per-op settings (OpParams).
struct YcsbClientParams : OpParams {
  /// Ops to issue; 0 = run until stop().
  std::uint64_t opsTarget = 0;

  /// Client-side per-op processing cost (YCSB's Java-side work: key
  /// generation, marshalling, stats). Bounds the per-client rate exactly
  /// as in the paper, where 30 clients saturate around ~1 Mop/s (Fig. 1a).
  sim::Duration clientOverheadPerOp = sim::usec(26);

  /// Relative jitter on the overhead (uniform in [1-j, 1+j]); breaks the
  /// phase-lock a deterministic closed loop would otherwise exhibit.
  double clientOverheadJitter = 0.25;

  /// Fig. 13's client-level throttle; <= 0 disables.
  double throttleOpsPerSec = 0;
};

/// A closed-loop YCSB client instance (one per client node, as the paper
/// runs exactly one YCSB process per machine). It owns only the pacing —
/// throttle, jittered client overhead, load surges, the ops target; every
/// per-op decision is the shared OpEngine's.
class YcsbClient : private OpPacer {
 public:
  YcsbClient(sim::Simulation& sim, client::RamCloudClient& client,
             std::uint64_t tableId, WorkloadSpec spec, YcsbClientParams params,
             sim::Rng rng);

  void start();
  void stop();

  bool running() const { return running_; }
  bool done() const {
    return params_.opsTarget > 0 &&
           engine_.stats().opsCompleted >= params_.opsTarget;
  }

  /// Latency histograms run from issue (after any throttle wait).
  const YcsbStats& stats() const { return engine_.stats(); }

  /// Attach the cluster's SLO tracker (OpEngine::setSloTracker). SLO
  /// latency is measured from op *intent* (before any token-bucket
  /// throttle wait), so an over-admitted throttled tenant visibly burns
  /// its budget.
  void setSloTracker(obs::SloTracker* slo) { engine_.setSloTracker(slo); }

  /// Called on every completed op (for latency timelines): (now, latency).
  std::function<void(sim::SimTime, sim::Duration, bool isRead)> onOpComplete;

  /// Called after every transfer attempt with both account keys and the
  /// commit outcome (kOk = committed, kTxConflict = aborted, other =
  /// unknown). The chaos harness's atomicity checker hangs off this.
  std::function<void(std::uint64_t keyA, std::uint64_t keyB, net::Status)>
      onTransferComplete;

  /// Called once when opsTarget is reached.
  std::function<void()> onDone;

  /// Fault hook (FaultPlan kLoadSurge): multiply this client's arrival
  /// rate by `factor` until `d` from now, by dividing the closed loop's
  /// per-op client overhead. Overlapping surges keep the larger factor
  /// and the later deadline.
  void applyLoadSurge(double factor, sim::Duration d) {
    surgeFactor_ = std::max(surgeFactor_, factor);
    surgeUntil_ = std::max(surgeUntil_, sim_.now() + d);
  }
  bool surging() const {
    return surgeFactor_ > 1.0 && sim_.now() < surgeUntil_;
  }

 private:
  void issueNext();
  void opFinished(sim::Duration latency, bool isRead) override;
  void transferFinished(std::uint64_t a, std::uint64_t b,
                        net::Status s) override {
    if (onTransferComplete) onTransferComplete(a, b, s);
  }

  sim::Simulation& sim_;
  YcsbClientParams params_;
  OpEngine engine_;
  sim::TokenBucket bucket_;

  bool running_ = false;
  double surgeFactor_ = 1.0;     ///< kLoadSurge arrival-rate multiplier
  sim::SimTime surgeUntil_ = 0;  ///< surge window end (absolute)
};

}  // namespace rc::ycsb
