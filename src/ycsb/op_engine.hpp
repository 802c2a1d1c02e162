#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "client/ramcloud_client.hpp"
#include "obs/slo_tracker.hpp"
#include "sim/stats.hpp"
#include "ycsb/workload.hpp"

namespace rc::ycsb {

/// What one YCSB operation is: how its key is chosen, which tenant it is
/// charged to and which op variants run. Both load generators take these;
/// YcsbClientParams adds closed-loop pacing, and the open loop's
/// TrafficSource sets only the insert base and the tenant.
struct OpParams {
  /// First key id this generator's *inserts* use (workload D). Each
  /// generator must get a disjoint base; the Cluster assigns them.
  std::uint64_t insertKeyBase = 1ULL << 40;

  /// Keep only keys satisfying this predicate (rejection-sampled). Used by
  /// Fig. 10's "client 1 requests exclusively the killed server's data" /
  /// "client 2 requests the rest". Null = accept all keys.
  std::function<bool(std::uint64_t)> keyPredicate;

  /// Tenant name for SLO attribution ("" = untracked). Ops record into the
  /// tracker's "<tenant>/read" and "<tenant>/update" classes; the generator
  /// also tags its RPCs with the tenant's dense id + 1 (docs/SLO.md).
  std::string tenant;

  // ----- transactional variant (docs/TRANSACTIONS.md); closed loop only

  /// Run read-modify-write ops as single-key minitransactions (txRead +
  /// txWrite + txCommit) instead of an unconditioned read-then-write.
  bool transactionalRmw = false;

  /// Proportion of ops (drawn independently of the workload mix) issued as
  /// two-key transactional transfers between distinct "account" keys.
  /// <= 0 disables.
  double transferProportion = 0;

  /// Account keyspace for transfers: keys [transferKeyBase,
  /// transferKeyBase + transferAccounts). Place it outside the workload's
  /// key range when an external checker models the account state (regular
  /// YCSB writes to account keys would look like torn transfers).
  std::uint64_t transferKeyBase = 0;
  std::uint64_t transferAccounts = 16;
};

struct YcsbStats {
  std::uint64_t opsCompleted = 0;
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  std::uint64_t inserts = 0;
  std::uint64_t readModifyWrites = 0;
  std::uint64_t transfers = 0;      ///< committed two-key transfers
  std::uint64_t txAborted = 0;      ///< definite aborts (clean outcome)
  std::uint64_t txUnknown = 0;      ///< outcomes left to orphan resolution
  std::uint64_t failures = 0;
  sim::Histogram readLatency;
  sim::Histogram updateLatency;  ///< updates, inserts, RMWs and transfers
  sim::SimTime lastCompletionAt = 0;
};

/// The pacing half of a load generator: it decides *when* ops go, and the
/// OpEngine tells it when each one is over.
class OpPacer {
 public:
  /// Once per op of the current generation that finished, after the
  /// engine's accounting. `latency` runs from the op's histogram origin.
  virtual void opFinished(sim::Duration latency, bool isRead) = 0;

  /// Every transfer outcome (kOk = committed, kTxConflict = aborted, other
  /// = unknown), also of an op whose generation has ended.
  virtual void transferFinished(std::uint64_t, std::uint64_t, net::Status) {}

 protected:
  ~OpPacer() = default;
};

/// The YCSB op engine both load generators share (docs/WORKLOADS.md): the
/// op-mix draw, key choice and keyspace growth, the per-op tenant tag, the
/// RamCloudClient calls of each op kind, and completion accounting (SLO
/// record, YcsbStats, the tx abort/unknown split). The closed-loop
/// YcsbClient and the open-loop TrafficSource keep only their pacing.
///
/// Random streams: the mix (and transfer accounts) draw from `rng`, keys
/// from `rng.fork(1)`, forked at construction.
class OpEngine {
 public:
  OpEngine(sim::Simulation& sim, client::RamCloudClient& client,
           std::uint64_t tableId, WorkloadSpec spec, OpParams params,
           sim::Rng rng, OpPacer& pacer);
  /// In-flight callbacks hold the engine's address.
  OpEngine(const OpEngine&) = delete;
  OpEngine& operator=(const OpEngine&) = delete;

  /// Draws one op from the mix and issues it. SLO latency runs from
  /// `intent` (when the op wanted to go); the histograms and the pacer's
  /// latency run from `origin`, which is the pacer's choice: the closed
  /// loop passes the issue time, the open loop the intent time.
  void issue(sim::SimTime intent, sim::SimTime origin);

  /// Resolves the tenant's classes ("<tenant>/read", "<tenant>/update") to
  /// dense ids once, so the per-op record path is id-indexed. The classes
  /// must already be declared; an empty tenant stays untracked.
  void setSloTracker(obs::SloTracker* slo);

  /// Starts a new generation: ops issued before it are dropped when they
  /// complete (not counted, not reported to the pacer). Pacers tag their
  /// own scheduled events with generation() the same way.
  void invalidate() { ++generation_; }
  std::uint64_t generation() const { return generation_; }

  const YcsbStats& stats() const { return stats_; }

  /// The mix stream. The closed loop draws its overhead jitter from it and
  /// the open loop forks its arrival stream from it.
  sim::Rng& rng() { return rng_; }
  KeyChooser& keys() { return keys_; }

 private:
  enum class OpKind : std::uint8_t {
    kRead,
    kUpdate,
    kInsert,
    kReadModifyWrite,
    kTransfer
  };

  /// One op's completion: what the accounting needs, small enough to copy
  /// into each stage of a multi-RPC op.
  struct Done {
    OpEngine* engine;
    std::uint64_t gen;
    sim::SimTime intent;
    sim::SimTime origin;
    OpKind op;
    void operator()(net::Status status, sim::Duration = 0) const {
      engine->finish(*this, status);
    }
  };

  OpKind pickOp();
  std::uint64_t pickKey();
  std::uint64_t keyspaceSize() const { return spec_.recordCount + inserted_; }
  int classOf(bool isRead) const { return isRead ? readClass_ : updateClass_; }
  void readModifyWrite(std::uint64_t key, const Done& done);
  void transfer(const Done& done);
  void finish(const Done& done, net::Status status);

  sim::Simulation& sim_;
  client::RamCloudClient& client_;
  std::uint64_t tableId_;
  WorkloadSpec spec_;
  OpParams params_;
  sim::Rng rng_;
  KeyChooser keys_;
  OpPacer& pacer_;

  std::uint64_t generation_ = 0;
  std::uint64_t inserted_ = 0;       ///< completed inserts (keyspace growth)
  std::uint64_t insertsIssued_ = 0;  ///< issued inserts (unique key ids)
  YcsbStats stats_;
  obs::SloTracker* slo_ = nullptr;
  int readClass_ = -1;
  int updateClass_ = -1;
};

}  // namespace rc::ycsb
