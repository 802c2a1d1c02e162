#include "ycsb/op_engine.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace rc::ycsb {

OpEngine::OpEngine(sim::Simulation& sim, client::RamCloudClient& client,
                   std::uint64_t tableId, WorkloadSpec spec, OpParams params,
                   sim::Rng rng, OpPacer& pacer)
    : sim_(sim),
      client_(client),
      tableId_(tableId),
      spec_(std::move(spec)),
      params_(std::move(params)),
      rng_(rng),
      keys_(spec_, rng_.fork(1)),
      pacer_(pacer) {}

void OpEngine::setSloTracker(obs::SloTracker* slo) {
  slo_ = slo;
  readClass_ = updateClass_ = -1;
  if (slo_ == nullptr || params_.tenant.empty()) return;
  readClass_ = slo_->classId(params_.tenant + "/read");
  updateClass_ = slo_->classId(params_.tenant + "/update");
  // Tag outgoing RPCs so server-side flight stamps attribute to us. 0 is
  // reserved for "untagged"; shift the dense class id by one.
  const int base = readClass_ >= 0 ? readClass_ : updateClass_;
  if (base >= 0) client_.setTenant(static_cast<std::uint16_t>(base + 1));
}

OpEngine::OpKind OpEngine::pickOp() {
  // Transfers are drawn independently of the workload mix so enabling them
  // does not change the relative read/update/insert proportions.
  if (params_.transferProportion > 0 &&
      rng_.uniformDouble() < params_.transferProportion) {
    return OpKind::kTransfer;
  }
  double r = rng_.uniformDouble();
  if (r < spec_.readProportion) return OpKind::kRead;
  r -= spec_.readProportion;
  if (r < spec_.updateProportion) return OpKind::kUpdate;
  r -= spec_.updateProportion;
  if (r < spec_.insertProportion) return OpKind::kInsert;
  return OpKind::kReadModifyWrite;
}

std::uint64_t OpEngine::pickKey() {
  // The chooser draws an index into the (possibly grown) keyspace; indices
  // past the preloaded records map onto this generator's insert range.
  auto resolve = [this](std::uint64_t idx) {
    return idx < spec_.recordCount
               ? idx
               : params_.insertKeyBase + (idx - spec_.recordCount);
  };
  std::uint64_t k = resolve(keys_.next(keyspaceSize()));
  if (params_.keyPredicate) {
    // Rejection sampling; give up after a bounded number of draws so a
    // pathological predicate cannot wedge the simulation.
    for (int tries = 0; tries < 10'000 && !params_.keyPredicate(k); ++tries) {
      k = resolve(keys_.next(keyspaceSize()));
    }
  }
  return k;
}

void OpEngine::issue(sim::SimTime intent, sim::SimTime origin) {
  const OpKind op = pickOp();
  // Per-op tenant tag: reads and updates land in their own SLO class, so
  // server-side energy charges split by op class too (docs/ENERGY.md).
  // RPCs snapshot the tag at issue, so flipping it per op is safe with any
  // number of ops in flight.
  if (slo_ != nullptr) {
    const int cls = classOf(op == OpKind::kRead);
    if (cls >= 0) client_.setTenant(static_cast<std::uint16_t>(cls + 1));
  }
  const Done done{this, generation_, intent, origin, op};
  switch (op) {
    case OpKind::kRead:
      client_.read(tableId_, pickKey(), done);
      break;
    case OpKind::kUpdate:
      client_.write(tableId_, pickKey(), spec_.valueBytes, done);
      break;
    case OpKind::kInsert:
      // Every issued insert gets a fresh key, so a failed or abandoned
      // insert never hands its key to a later one.
      client_.write(tableId_, params_.insertKeyBase + insertsIssued_++,
                    spec_.valueBytes, done);
      break;
    case OpKind::kReadModifyWrite:
      readModifyWrite(pickKey(), done);
      break;
    case OpKind::kTransfer:
      transfer(done);
      break;
  }
}

void OpEngine::readModifyWrite(std::uint64_t key, const Done& done) {
  if (params_.transactionalRmw) {
    // Conditioned RMW as a single-key minitransaction: the prepare round
    // re-validates the read version, so a concurrent writer aborts us
    // instead of being silently overwritten.
    const std::uint64_t txId = client_.txBegin();
    client_.txRead(txId, tableId_, key,
                   [this, txId, key, done](net::Status, std::uint64_t,
                                           sim::Duration) {
                     if (generation_ != done.gen) return;
                     client_.txWrite(txId, tableId_, key, spec_.valueBytes);
                     client_.txCommit(txId, done);
                   });
    return;
  }
  // Read then write the same key; one logical op, combined latency.
  client_.read(tableId_, key,
               [this, key, done](net::Status s, sim::Duration) {
                 if (generation_ != done.gen) return;
                 if (s != net::Status::kOk) {
                   done(s);
                   return;
                 }
                 client_.write(tableId_, key, spec_.valueBytes, done);
               });
}

void OpEngine::transfer(const Done& done) {
  // Atomic two-key transfer between distinct accounts: read both (joining
  // the optimistic read set), rewrite both, commit. Either both keys
  // advance together or neither does — the chaos harness's atomicity
  // checker verifies exactly that via the pacer's transferFinished.
  const std::uint64_t n = std::max<std::uint64_t>(2, params_.transferAccounts);
  const std::uint64_t a = params_.transferKeyBase + rng_.uniformInt(n);
  std::uint64_t b = params_.transferKeyBase + rng_.uniformInt(n - 1);
  if (b >= a) ++b;
  const std::uint64_t txId = client_.txBegin();
  auto pendingReads = std::make_shared<int>(2);
  auto readDone = [this, txId, a, b, done, pendingReads](
                      net::Status, std::uint64_t, sim::Duration) {
    // A failed read just leaves that side unconditioned (blind write);
    // atomicity still holds, only conflict detection weakens.
    if (--*pendingReads > 0) return;
    if (generation_ != done.gen) return;
    client_.txWrite(txId, tableId_, a, spec_.valueBytes);
    client_.txWrite(txId, tableId_, b, spec_.valueBytes);
    client_.txCommit(txId, [this, a, b, done](net::Status s, sim::Duration) {
      // The checker must see every outcome, even if the generator was
      // stopped while the commit was in flight.
      pacer_.transferFinished(a, b, s);
      done(s);
    });
  };
  client_.txRead(txId, tableId_, a, readDone);
  client_.txRead(txId, tableId_, b, std::move(readDone));
}

void OpEngine::finish(const Done& done, net::Status status) {
  if (generation_ != done.gen) return;
  const sim::SimTime now = sim_.now();
  const sim::Duration latency = now - done.origin;
  const bool isRead = done.op == OpKind::kRead;
  const bool isTx = done.op == OpKind::kTransfer ||
                    (done.op == OpKind::kReadModifyWrite &&
                     params_.transactionalRmw);
  if (status == net::Status::kOk) {
    const int cls = slo_ != nullptr ? classOf(isRead) : -1;
    if (cls >= 0) {
      // Stage decomposition of the op's final RPC attempt, when the trace
      // captured one (timeouts leave lastOp invalid).
      const auto& last = client_.lastOp();
      slo_->record(cls, last.valid ? last.node : -1, last.valid ? last.span : 0,
                   now - done.intent, last.valid ? &last.detail : nullptr);
    }
    // Per-kind counters, in OpKind order.
    static constexpr std::uint64_t YcsbStats::*kCounter[] = {
        &YcsbStats::reads, &YcsbStats::updates, &YcsbStats::inserts,
        &YcsbStats::readModifyWrites, &YcsbStats::transfers};
    ++stats_.opsCompleted;
    ++(stats_.*kCounter[static_cast<std::size_t>(done.op)]);
    if (done.op == OpKind::kInsert) ++inserted_;
    (isRead ? stats_.readLatency : stats_.updateLatency).add(latency);
  } else if (isTx && status == net::Status::kTxConflict) {
    // A definite abort is a clean concurrency outcome, not a failure; the
    // op simply doesn't count toward a target (retry in spirit).
    ++stats_.txAborted;
  } else if (isTx) {
    // Commit outcome unknown to this client (e.g. a participant crashed
    // mid-commit); orphan resolution settles it server-side.
    ++stats_.txUnknown;
  } else {
    ++stats_.failures;
  }
  stats_.lastCompletionAt = now;
  pacer_.opFinished(latency, isRead);
}

}  // namespace rc::ycsb
