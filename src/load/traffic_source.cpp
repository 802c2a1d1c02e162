#include "load/traffic_source.hpp"

#include <algorithm>
#include <utility>

namespace rc::load {
namespace {

/// The open loop's per-op settings: no key predicate and no transactions
/// (the tx variant stays closed-loop, docs/TRANSACTIONS.md).
ycsb::OpParams opParams(const TrafficSourceParams& p) {
  ycsb::OpParams o;
  o.insertKeyBase = p.insertKeyBase;
  o.tenant = p.tenant;
  return o;
}

}  // namespace

TrafficSource::TrafficSource(sim::Simulation& sim,
                             client::RamCloudClient& client,
                             std::uint64_t tableId, ycsb::WorkloadSpec spec,
                             TrafficSourceParams params, sim::Rng rng)
    : sim_(sim),
      params_(std::move(params)),
      engine_(sim, client, tableId, std::move(spec), opParams(params_), rng,
              *this),
      process_(params_.shape, engine_.rng().fork(2)) {}

void TrafficSource::start() {
  if (running_) return;
  running_ = true;
  engine_.invalidate();
  cursor_ = sim_.now();
  pending_.clear();
  scheduleWake();
}

void TrafficSource::stop() {
  running_ = false;
  engine_.invalidate();
  pending_.clear();
}

void TrafficSource::refill() {
  // Draw whole inter-arrival runs until something lands in the buffer; the
  // guard bounds how many empty horizons (zero-rate stretches, diurnal
  // valleys) one wakeup scans before yielding back to the event loop.
  for (int guard = 0; pending_.empty() && guard < 64; ++guard) {
    runBuf_.clear();
    cursor_ = process_.drawRun(cursor_, params_.maxHorizon, params_.maxBatch,
                               runBuf_);
    arrivalsGenerated_ += runBuf_.size();
    for (sim::SimTime t : runBuf_) pending_.push_back(t);
  }
}

void TrafficSource::scheduleWake() {
  if (!running_) return;
  refill();
  const std::uint64_t gen = engine_.generation();
  sim::SimTime tw;
  if (pending_.empty()) {
    tw = cursor_;  // long quiet stretch: re-poll at the generation frontier
  } else {
    tw = pending_.front();
    const sim::Duration q = params_.batchQuantum;
    if (q > 0) tw = (tw + q - 1) / q * q;  // batch the quantum's arrivals
  }
  sim_.scheduleAt(tw, [this, gen] {
    if (engine_.generation() != gen) return;
    onWake();
  });
}

void TrafficSource::onWake() {
  if (!running_) return;
  ++wakeups_;
  const sim::SimTime now = sim_.now();
  const auto& shifts = params_.shape.hotKeyShifts;
  while (!pending_.empty() && pending_.front() <= now) {
    const sim::SimTime intent = pending_.front();
    pending_.pop_front();
    // Hot-key shifts fire between arrivals, keyed on intent time, so the
    // drawn sequence is independent of issue batching.
    while (nextShift_ < shifts.size() && shifts[nextShift_].at <= intent) {
      engine_.keys().shiftHotKeys(shifts[nextShift_].shiftSeed);
      ++nextShift_;
      ++hotShiftsApplied_;
    }
    issueOp(intent);
  }
  scheduleWake();
}

void TrafficSource::issueOp(sim::SimTime intent) {
  if (inFlight_ >= params_.maxInFlight) {
    ++sourceDropped_;
    return;
  }
  ++inFlight_;
  // Intent-to-completion latency: the open-loop tail metric. Includes any
  // batching-quantum issue delay and all queueing/retries — exactly what a
  // real user behind this source sees.
  engine_.issue(intent, intent);
}

}  // namespace rc::load
