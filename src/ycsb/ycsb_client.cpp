#include "ycsb/ycsb_client.hpp"

#include <utility>

namespace rc::ycsb {

YcsbClient::YcsbClient(sim::Simulation& sim, client::RamCloudClient& client,
                       std::uint64_t tableId, WorkloadSpec spec,
                       YcsbClientParams params, sim::Rng rng)
    : sim_(sim),
      params_(std::move(params)),
      engine_(sim, client, tableId, std::move(spec), params_, rng, *this),
      bucket_(params_.throttleOpsPerSec) {}

void YcsbClient::start() {
  if (running_) return;
  running_ = true;
  engine_.invalidate();
  issueNext();
}

void YcsbClient::stop() {
  running_ = false;
  engine_.invalidate();
}

void YcsbClient::issueNext() {
  if (!running_ || done()) return;
  const std::uint64_t gen = engine_.generation();

  // SLO latency runs from here — the moment the op *wants* to go — so a
  // token-bucket throttle wait counts against the tenant's budget.
  const sim::SimTime intent = sim_.now();
  const sim::Duration wait = bucket_.reserve(sim_.now());
  auto fire = [this, gen, intent] {
    if (engine_.generation() != gen || !running_) return;
    engine_.issue(intent, sim_.now());
  };
  if (wait > 0) {
    sim_.schedule(wait, std::move(fire));
  } else {
    fire();
  }
}

void YcsbClient::opFinished(sim::Duration latency, bool isRead) {
  if (onOpComplete) onOpComplete(sim_.now(), latency, isRead);
  if (done()) {
    running_ = false;
    if (onDone) onDone();
    return;
  }
  // Client-side processing before the next op in the closed loop. An
  // active load surge (FaultPlan kLoadSurge) divides the overhead, so this
  // client offers surgeFactor × its normal rate for the window.
  const double j = params_.clientOverheadJitter;
  double factor =
      j > 0 ? 1.0 - j + 2.0 * j * engine_.rng().uniformDouble() : 1.0;
  if (surging()) factor /= surgeFactor_;
  const auto overhead = static_cast<sim::Duration>(
      static_cast<double>(params_.clientOverheadPerOp) * factor);
  const std::uint64_t gen = engine_.generation();
  sim_.schedule(overhead, [this, gen] {
    if (engine_.generation() == gen) issueNext();
  });
}

}  // namespace rc::ycsb
