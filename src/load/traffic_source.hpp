#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "client/ramcloud_client.hpp"
#include "load/arrival.hpp"
#include "obs/slo_tracker.hpp"
#include "sim/simulation.hpp"
#include "ycsb/op_engine.hpp"
#include "ycsb/workload.hpp"

namespace rc::load {

struct TrafficSourceParams {
  TrafficShape shape;

  /// Generator batching (docs/WORKLOADS.md): arrival *issue* times are
  /// rounded up to this quantum, so one wakeup event issues every arrival
  /// in the quantum — the per-request heap cost is amortized to
  /// ~1/(rate*quantum) events. Intent timestamps keep the exact drawn
  /// arrival times, so the sub-quantum issue delay is charged as honest
  /// open-loop queueing in the SLO numbers. <= 0 paces per arrival.
  sim::Duration batchQuantum = sim::usec(100);

  /// How far past the cursor one drawRun may generate. Bounds how stale a
  /// pre-drawn arrival can be relative to a runtime rate change (surge).
  sim::Duration maxHorizon = sim::msec(1);
  std::size_t maxBatch = 4096;  ///< arrivals per drawRun

  /// Open-loop safety valve: arrivals beyond this many outstanding ops are
  /// dropped at the source (counted in sourceDropped()) instead of growing
  /// client state without bound during a collapse.
  std::uint64_t maxInFlight = 200'000;

  /// First key id this source's *inserts* use (workload D); the cluster
  /// assigns disjoint bases per source.
  std::uint64_t insertKeyBase = 1ULL << 40;

  /// Tenant name for SLO attribution and RPC tagging ("" = untracked);
  /// same class naming as the closed-loop client (docs/SLO.md).
  std::string tenant;
};

/// An open-loop population load generator: one simulated object standing in
/// for shape.users modeled users. Arrivals are drawn in batches from the
/// ArrivalProcess and issued through the shared ycsb::OpEngine with no
/// regard for completions — latency is measured from arrival *intent*, so
/// queueing during overload is visible (no coordinated omission). It owns
/// only the pacing: arrival draws, quantum batching, hot-key shifts and the
/// maxInFlight valve. It runs no transactions.
class TrafficSource : private ycsb::OpPacer {
 public:
  TrafficSource(sim::Simulation& sim, client::RamCloudClient& client,
                std::uint64_t tableId, ycsb::WorkloadSpec spec,
                TrafficSourceParams params, sim::Rng rng);

  void start();
  void stop();
  bool running() const { return running_; }

  /// Completed/failed op counts and *intent-time* latency histograms
  /// (the closed loop measures its histograms from issue).
  const ycsb::YcsbStats& stats() const { return engine_.stats(); }

  void setSloTracker(obs::SloTracker* slo) { engine_.setSloTracker(slo); }

  /// Fault hook (FaultPlan kLoadSurge): superpose a flash crowd of
  /// `factor` x the current rate for `d` from now.
  void applyLoadSurge(double factor, sim::Duration d) {
    process_.addCrowd({sim_.now(), d, factor});
  }

  double offeredRate() const { return process_.rateAt(sim_.now()); }

  // Generator accounting (the o(1)-events-per-request evidence).
  std::uint64_t arrivalsGenerated() const { return arrivalsGenerated_; }
  std::uint64_t wakeups() const { return wakeups_; }
  std::uint64_t sourceDropped() const { return sourceDropped_; }
  std::uint64_t hotShiftsApplied() const { return hotShiftsApplied_; }
  std::uint64_t inFlight() const { return inFlight_; }

 private:
  void onWake();
  void scheduleWake();
  void refill();
  void issueOp(sim::SimTime intent);
  void opFinished(sim::Duration, bool) override {
    if (inFlight_ > 0) --inFlight_;
  }

  sim::Simulation& sim_;
  TrafficSourceParams params_;
  ycsb::OpEngine engine_;   ///< keys fork(1) of the source's stream...
  ArrivalProcess process_;  ///< ...before arrivals fork(2)

  bool running_ = false;
  std::deque<sim::SimTime> pending_;  ///< drawn arrivals not yet issued
  std::vector<sim::SimTime> runBuf_;
  sim::SimTime cursor_ = 0;     ///< generation frontier (arrivals drawn <=)
  std::size_t nextShift_ = 0;   ///< next shape.hotKeyShifts entry to apply

  std::uint64_t inFlight_ = 0;
  std::uint64_t arrivalsGenerated_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t sourceDropped_ = 0;
  std::uint64_t hotShiftsApplied_ = 0;
};

}  // namespace rc::load
