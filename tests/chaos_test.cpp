// Seeded chaos harness: a declarative fault matrix (crashes, a backup death
// mid-recovery, network loss/latency, disk stall/degradation, a gray CPU
// failure, corrupt replica frames) driven against a live cluster under
// write-heavy YCSB load. The invariants (docs/FAULTS.md):
//
//   1. No acked write is lost while concurrent process crashes <= rf - 1.
//   2. Every triggered recovery converges and succeeds.
//   3. The replication-factor deficit returns to zero (background repair).
//   4. The event journal stays well-formed (no dangling open spans; every
//      re-replication span closed with bytes attached).
//   5. Same seed + same plan => bit-identical metrics.jsonl / events.jsonl.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "obs/metrics_exporter.hpp"
#include "server/master_service.hpp"
#include "test_dirs.hpp"

namespace rc {
namespace {

using sim::msec;
using sim::seconds;
using sim::usec;

constexpr std::uint64_t kRecords = 8'000;
constexpr int kServers = 8;
constexpr int kRf = 3;
constexpr int kTableSpan = 6;  // servers 6 and 7 stay tablet-less (pure
                               // backups), so crashing them mid-recovery
                               // attacks durability, not availability

// Transactional-YCSB account pool, outside every other key range (YCSB
// zipfian keys < kRecords, probe keys scan up from kRecords + 1, inserts
// start at kRecords + 2^32). Only transfers ever write these keys, so each
// key's version is an exact count of the transfers applied to it.
constexpr std::uint64_t kTxPoolBase = kRecords * 4;
constexpr std::uint64_t kTxPoolAccounts = 12;

// The standing fault matrix. Two crashes total (== rf - 1): the tablet
// owner at t=2s — timed so it lands *between* a write's durable apply and
// its reply (the RIFL worst case) — then a pure backup 50 ms into the
// ensuing recovery. A window of pure reply loss plus a client stall long
// enough to expire its lease exercise the exactly-once layer; the
// surrounding loss/latency/disk/CPU/corruption faults make every hardened
// path fire on the same run.
fault::FaultPlan chaosPlan() {
  fault::FaultPlan plan;
  plan.networkLoss(seconds(1), 0.02, seconds(1));
  plan.latencySpike(msec(1500), usec(200), seconds(1));
  plan.diskDegrade(seconds(1), /*serverIdx=*/4, /*factor=*/2.0, seconds(2));
  plan.cpuThrottle(seconds(1), /*serverIdx=*/5, /*fraction=*/0.34,
                   seconds(2));
  // Before the 2% loss window opens, so the probe chain on server 1 is
  // guaranteed to have a write in flight when replies start vanishing.
  plan.replyDrop(msec(500), /*serverIdx=*/1, /*probability=*/1.0, msec(400));
  plan.corruptFrames(msec(1800), /*serverIdx=*/2, /*count=*/2);
  plan.crashBeforeReply(seconds(2), /*serverIdx=*/0);
  plan.crashOnRecovery(/*ordinal=*/1, msec(50), /*serverIdx=*/7);
  plan.diskStall(msec(2500), /*serverIdx=*/3, msec(300));
  plan.clientStall(msec(2500), /*clientIdx=*/1, msec(2500));
  return plan;
}

struct ChaosResult {
  bool converged = false;
  std::size_t recoveries = 0;
  bool allRecoveriesSucceeded = false;
  bool allKeysPresent = false;
  double rfDeficitMetric = -1;
  std::size_t openSpans = 0;
  std::size_t rereplicationSpans = 0;
  std::size_t rereplicationWithBytes = 0;
  std::size_t faultEvents = 0;
  std::size_t crashBeforeReplyEvents = 0;
  std::size_t replyDropEvents = 0;
  std::size_t clientStallEvents = 0;
  int crashesInjected = 0;
  std::size_t activeNetworkRules = 0;
  std::uint64_t opsCompleted = 0;
  bool backupCrashLandedMidRecovery = false;
  double duplicatesSuppressed = 0;
  std::uint64_t leasesExpired = 0;
  // Read-your-write checker outcome per client (see RywChecker).
  std::array<std::uint64_t, 2> rywRounds{};
  std::array<std::uint64_t, 2> rywMismatches{};
  bool rywViolation = false;
  // Client 0's write-only probe on the reply-drop server.
  std::uint64_t probeRounds = 0;
  std::uint64_t probeMismatches = 0;
  // Transactional atomicity (docs/TRANSACTIONS.md): account-pool transfer
  // outcomes, the cross-server pair checker, the deliberately orphaned
  // commit, and the end-of-run lock census.
  std::uint64_t txTransfersCommitted = 0;
  std::uint64_t txTransfersAborted = 0;
  std::uint64_t txTransfersUnknown = 0;
  bool txPoolSnapshotOk = false;
  std::uint64_t txPairCommitted = 0;
  std::uint64_t txPairSnapshots = 0;
  std::uint64_t txPairCuts = 0;
  bool txTornRead = false;
  bool txPairPresent = false;
  bool txStragglerSettled = false;
  bool txStragglerCommitted = false;
  std::uint64_t txLocksAtQuiesce = ~0ull;
  double txOrphansResolved = -1;
  double txResolutionsStarted = -1;
};

/// A checker's self-rescheduling step. The step closure reaches itself
/// through `again`, so the loop is a reference cycle; halt() empties the
/// closure to break it (events already scheduled then find nothing to run).
struct StepLoop {
  std::shared_ptr<std::function<void()>> step =
      std::make_shared<std::function<void()>>();

  /// Runs the step again after `d`.
  std::function<void(sim::Duration)> again(core::Cluster& c) const {
    return [&c, step = step](sim::Duration d) {
      c.sim().schedule(d, [step] {
        if (*step) (*step)();
      });
    };
  }
  void halt() const { *step = nullptr; }
};

/// Per-client exactly-once probe on a private key nobody else writes: a
/// chain of conditional writes, each expecting the last version this client
/// itself produced, each followed by a read-your-write verification. If a
/// retried write ever applied twice, the next conditional write (or the
/// read) sees a version this client never acked — under a valid lease
/// that is an exactly-once violation. After an indeterminate terminal
/// failure (retry budget, recovery deadline) or a kVersionMismatch (legal
/// only once the lease expired and the tracking state was reclaimed) the
/// checker resyncs from a read and keeps going.
struct RywChecker {
  struct State {
    std::uint64_t confirmedVersion = 0;
    std::uint64_t rounds = 0;
    std::uint64_t mismatches = 0;
    bool violation = false;
    bool stop = false;
    StepLoop loop;

    void halt() {
      stop = true;
      loop.halt();
    }
  };

  /// `readBack` false runs a write-only chain (duplicate application still
  /// trips the conditional check as a mismatch); true verifies each acked
  /// write with a read before the next round.
  static std::shared_ptr<State> start(core::Cluster& c, std::uint64_t table,
                                      int clientIdx, std::uint64_t key,
                                      bool readBack = true) {
    auto st = std::make_shared<State>();
    auto& rc = *c.clientHost(clientIdx).rc;
    const auto step = st->loop.step;
    const auto again = st->loop.again(c);
    auto resync = [&c, &rc, table, key, st, again] {
      rc.readV(table, key,
               [st, again](net::Status s, std::uint64_t v, sim::Duration) {
                 if (st->stop) return;
                 if (s == net::Status::kOk && v != 0) {
                   st->confirmedVersion = v;
                 }
                 again(msec(50));
               });
    };
    *step = [&c, &rc, table, key, st, again, resync, readBack] {
      if (st->stop) return;
      rc.writeV(
          table, key, 64, st->confirmedVersion,
          [&rc, table, key, st, again, resync, readBack](
              net::Status s, std::uint64_t v, sim::Duration) {
            if (st->stop) return;
            if (s == net::Status::kOk) {
              if (!readBack) {
                st->confirmedVersion = v;
                ++st->rounds;
                again(msec(5));
                return;
              }
              rc.readV(table, key,
                       [st, again, v](net::Status rs, std::uint64_t rv,
                                      sim::Duration) {
                         if (st->stop) return;
                         if (rs == net::Status::kOk) {
                           if (rv != v) st->violation = true;
                           st->confirmedVersion = v;
                           ++st->rounds;
                         }
                         again(msec(20));
                       });
              return;
            }
            if (s == net::Status::kVersionMismatch) ++st->mismatches;
            resync();
          });
    };
    (*step)();
    return st;
  }
};

/// Atomicity checker on one fixed cross-server key pair. A serial writer
/// runs conditioned two-key transfers (txRead both, txWrite both, commit)
/// while a snapshot reader on the *other* client runs read-only
/// transactions over the same pair. Versions are per-master monotonic (not
/// per-object counters), so the oracle is the *pairing*, not arithmetic:
/// the writer is the only mutator and every committed transfer rewrites
/// both keys in one transaction, so a given version of keyA coexists with
/// exactly one version of keyB. Every validated transaction — a committed
/// transfer validates its read-set, a read-only snapshot validates both
/// reads — certifies one such consistent cut; two cuts that disagree on
/// the mapping prove a torn (non-atomic) state was observable. Commit
/// outcomes keep tallying after stop() so the end-of-run accounting is
/// complete.
struct TxPairChecker {
  struct State {
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t unknown = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t cuts = 0;
    bool tornRead = false;
    bool writerInFlight = false;
    bool stop = false;
    StepLoop writer;
    StepLoop reader;
    std::map<std::uint64_t, std::uint64_t> aToB;
    std::map<std::uint64_t, std::uint64_t> bToA;

    /// Record a validated consistent cut (vA, vB); flag a torn read if it
    /// contradicts a previously certified cut in either direction.
    void certify(std::uint64_t vA, std::uint64_t vB) {
      ++cuts;
      const auto a = aToB.emplace(vA, vB);
      if (!a.second && a.first->second != vB) tornRead = true;
      const auto b = bToA.emplace(vB, vA);
      if (!b.second && b.first->second != vA) tornRead = true;
    }

    void halt() {
      stop = true;
      writer.halt();
      reader.halt();
    }
  };

  static std::shared_ptr<State> start(core::Cluster& c, std::uint64_t table,
                                      int writerClient, int readerClient,
                                      std::uint64_t keyA, std::uint64_t keyB) {
    auto st = std::make_shared<State>();
    startWriter(c, *c.clientHost(writerClient).rc, table, keyA, keyB, st);
    startReader(c, *c.clientHost(readerClient).rc, table, keyA, keyB, st);
    return st;
  }

 private:
  static void startWriter(core::Cluster& c, client::RamCloudClient& rc,
                          std::uint64_t table, std::uint64_t keyA,
                          std::uint64_t keyB, std::shared_ptr<State> st) {
    const auto step = st->writer.step;
    const auto again = st->writer.again(c);
    *step = [&rc, table, keyA, keyB, st, again] {
      if (st->stop) return;
      st->writerInFlight = true;
      const std::uint64_t tx = rc.txBegin();
      using Obs = std::pair<net::Status, std::uint64_t>;
      auto vA = std::make_shared<Obs>(net::Status::kTimeout, 0);
      auto vB = std::make_shared<Obs>(net::Status::kTimeout, 0);
      auto pending = std::make_shared<int>(2);
      auto readDone = [&rc, table, tx, keyA, keyB, st, again, vA, vB,
                       pending] {
        // A failed read leaves that side unconditioned; still proceed —
        // atomicity holds regardless, only conflict detection weakens.
        if (--*pending > 0) return;
        rc.txWrite(tx, table, keyA, 64);
        rc.txWrite(tx, table, keyB, 64);
        rc.txCommit(tx, [st, again, vA, vB](net::Status s, sim::Duration) {
          // Outcomes count even after stop: end-of-run accounting needs
          // them.
          if (s == net::Status::kOk) {
            ++st->committed;
            // The prepare round re-validated both read versions, so the
            // pre-state this transfer read was a consistent cut.
            if (vA->first == net::Status::kOk &&
                vB->first == net::Status::kOk) {
              st->certify(vA->second, vB->second);
            }
          } else if (s == net::Status::kTxConflict) {
            ++st->aborted;
          } else {
            ++st->unknown;
          }
          st->writerInFlight = false;
          if (!st->stop) again(msec(25));
        });
      };
      rc.txRead(tx, table, keyA,
                [vA, readDone](net::Status s, std::uint64_t v,
                               sim::Duration) mutable {
                  *vA = {s, v};
                  readDone();
                });
      rc.txRead(tx, table, keyB,
                [vB, readDone](net::Status s, std::uint64_t v,
                               sim::Duration) mutable {
                  *vB = {s, v};
                  readDone();
                });
    };
    (*step)();
  }

  static void startReader(core::Cluster& c, client::RamCloudClient& rc,
                          std::uint64_t table, std::uint64_t keyA,
                          std::uint64_t keyB, std::shared_ptr<State> st) {
    const auto step = st->reader.step;
    const auto again = st->reader.again(c);
    *step = [&rc, table, keyA, keyB, st, again] {
      if (st->stop) return;
      const std::uint64_t tx = rc.txBegin();
      using Obs = std::pair<net::Status, std::uint64_t>;
      auto vA = std::make_shared<Obs>(net::Status::kTimeout, 0);
      auto vB = std::make_shared<Obs>(net::Status::kTimeout, 0);
      auto pending = std::make_shared<int>(2);
      auto maybeCommit = [&rc, tx, st, again, vA, vB, pending] {
        if (--*pending > 0) return;
        rc.txCommit(tx, [st, again, vA, vB](net::Status s, sim::Duration) {
          if (st->stop) return;
          if (s == net::Status::kOk && vA->first == net::Status::kOk &&
              vB->first == net::Status::kOk) {
            ++st->snapshots;
            st->certify(vA->second, vB->second);
          }
          again(msec(40));
        });
      };
      rc.txRead(tx, table, keyA,
                [vA, maybeCommit](net::Status s, std::uint64_t v,
                                  sim::Duration) mutable {
                  *vA = {s, v};
                  maybeCommit();
                });
      rc.txRead(tx, table, keyB,
                [vB, maybeCommit](net::Status s, std::uint64_t v,
                                  sim::Duration) mutable {
                  *vB = {s, v};
                  maybeCommit();
                });
    };
    (*step)();
  }
};

ChaosResult runChaos(std::uint64_t seed, const std::string& exportDir = "") {
  core::ClusterParams p;
  p.servers = kServers;
  p.clients = 2;
  p.seed = seed;
  p.replicationFactor = kRf;
  // Short lease so client 1's 2.5 s stall runs out the clock: the sweep
  // expires it, masters reclaim its tracking state, and the client has to
  // reopen on resume.
  p.coordinator.leaseTerm = seconds(2);
  core::Cluster c(p);
  const auto table = c.createTable("chaos", kTableSpan);
  c.bulkLoad(table, kRecords, 256);

  // Write-heavy closed-loop load for the whole fault window, with the
  // transactional variant on: RMWs run as single-key minitransactions and
  // ~5% of ops are two-key transfers inside a private account pool.
  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::A(kRecords);
  spec.valueBytes = 256;
  ycsb::YcsbClientParams ycsbParams;
  ycsbParams.transactionalRmw = true;
  ycsbParams.transferProportion = 0.05;
  ycsbParams.transferKeyBase = kTxPoolBase;
  ycsbParams.transferAccounts = kTxPoolAccounts;
  c.configureYcsb(table, spec, ycsbParams);

  // Account-pool transfer ledger: definite commits, definite aborts, and
  // outcomes the client couldn't learn (settled by orphan resolution).
  struct TxPoolLedger {
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t unknown = 0;
  };
  auto pool = std::make_shared<TxPoolLedger>();
  for (int i = 0; i < c.clientCount(); ++i) {
    c.clientHost(i).ycsb->onTransferComplete =
        [pool](std::uint64_t, std::uint64_t, net::Status s) {
          if (s == net::Status::kOk) {
            ++pool->committed;
          } else if (s == net::Status::kTxConflict) {
            ++pool->aborted;
          } else {
            ++pool->unknown;
          }
        };
  }
  c.startYcsb();

  // Exactly-once probes on keys outside the YCSB range. The write-only
  // probe runs on client 0 (which never stalls, so its lease never lapses)
  // against a key owned by server 1 — the reply-drop target — so the drop
  // window is guaranteed to catch a tracked write and force a suppressed
  // duplicate. The two read-your-write checkers live away from the drop.
  auto keyOwnedBy = [&c, table](int serverIdx, std::uint64_t from) {
    std::uint64_t k = from;
    while (c.ownerOfKey(table, k) != c.serverNodeId(serverIdx)) ++k;
    return k;
  };
  const std::uint64_t probeKey = keyOwnedBy(1, kRecords + 1);
  const std::uint64_t key0 = keyOwnedBy(2, probeKey + 1);
  const std::uint64_t key1 = keyOwnedBy(3, key0 + 1);
  auto probe =
      RywChecker::start(c, table, 0, probeKey, /*readBack=*/false);
  std::array<std::shared_ptr<RywChecker::State>, 2> ryw = {
      RywChecker::start(c, table, 0, key0),
      RywChecker::start(c, table, 1, key1),
  };

  // Transactional pair checker: keyA on server 0 (the crash-before-reply
  // target, so commits straddle its recovery) and keyB on server 5 (the
  // CPU-throttled one). Pre-seeded so both keys exist before the first
  // snapshot (absence would validate as version 0).
  const std::uint64_t pairA = keyOwnedBy(0, key1 + 1);
  const std::uint64_t pairB = keyOwnedBy(5, pairA + 1);
  {
    int seeded = 0;
    auto& rc0 = *c.clientHost(0).rc;
    rc0.write(table, pairA, 64,
              [&seeded](net::Status, sim::Duration) { ++seeded; });
    rc0.write(table, pairB, 64,
              [&seeded](net::Status, sim::Duration) { ++seeded; });
    while (seeded < 2) c.sim().runFor(msec(10));
  }
  auto pair = TxPairChecker::start(c, table, /*writerClient=*/0,
                                   /*readerClient=*/1, pairA, pairB);

  fault::FaultInjector injector(c, chaosPlan(),
                                c.sim().rng().fork(0xFA171));
  injector.arm();

  c.sim().runFor(seconds(6));
  c.stopYcsb();

  auto rfDeficit = [&c] {
    double d = 0;
    for (int i = 0; i < c.serverCount(); ++i) {
      if (c.serverAlive(i)) {
        d += static_cast<double>(
            c.server(i).master->replicaManager().rfDeficit());
      }
    }
    return d;
  };

  // Healthy map: every tablet served by a live server. A recovery master
  // dying just after its partition completes leaves tablets pointed at a
  // corpse until its own failure detection fires — wait the cascade out.
  auto mapHealthy = [&c] {
    for (const auto& e : c.coord().tabletMap().entries()) {
      if (e.state != coordinator::TabletMap::TabletState::kUp) return false;
      bool alive = false;
      for (int i = 0; i < c.serverCount(); ++i) {
        alive |= c.serverAlive(i) && c.serverNodeId(i) == e.tablet.owner;
      }
      if (!alive) return false;
    }
    return true;
  };

  // Converge: recoveries done, background repair drained the RF deficit.
  const sim::SimTime deadline = c.sim().now() + seconds(300);
  while (c.sim().now() < deadline &&
         (c.coord().recoveryInProgress() || c.coord().recoveryLog().empty() ||
          rfDeficit() > 0 || !mapHealthy())) {
    c.sim().runFor(msec(100));
  }
  probe->halt();
  for (auto& st : ryw) st->halt();
  pair->halt();
  c.sim().runFor(seconds(2));  // let trailing RPCs and spans settle

  // Drain the pair writer's in-flight commit (if any) so the straggler
  // below cannot lose its votes to a leftover lock.
  const sim::SimTime drainDeadline = c.sim().now() + seconds(30);
  while (c.sim().now() < drainDeadline && pair->writerInFlight) {
    c.sim().runFor(msec(50));
  }

  // Deterministic orphan: commit a transfer on the pair, then stall the
  // client past its lease before the decision round can leave the client.
  // The prepares hold locks on two masters, the lease runs out, the sweep
  // hands the orphan to the coordinator, and recovery-driven resolution
  // must commit it (both participants voted yes). The client's own
  // decisions go out when the stall lifts, find the locks already
  // resolved, and get durable acks — it must still report commit.
  auto stragglerStatus = std::make_shared<net::Status>(net::Status::kTimeout);
  auto stragglerDone = std::make_shared<bool>(false);
  {
    auto& rc0 = *c.clientHost(0).rc;
    const std::uint64_t tx = rc0.txBegin();
    rc0.txWrite(tx, table, pairA, 64);
    rc0.txWrite(tx, table, pairB, 64);
    rc0.txCommit(tx, [stragglerStatus, stragglerDone](net::Status s,
                                                      sim::Duration) {
      *stragglerStatus = s;
      *stragglerDone = true;
    });
  }
  for (int i = 0; i < c.clientCount(); ++i) {
    c.clientHost(i).rc->stallFor(seconds(6));
  }

  // Quiesce: every lock drained, no resolution active, every commit
  // outcome reported. A lock still held past the deadline would be a
  // prepared-but-undecided transaction that survived recovery plus lease
  // expiry — exactly the state the transaction layer forbids.
  auto locksHeld = [&c] {
    std::uint64_t n = 0;
    for (int i = 0; i < c.serverCount(); ++i) {
      if (c.serverAlive(i)) {
        n += c.server(i).master->txLockTable().locksHeld();
      }
    }
    return n;
  };
  const sim::SimTime txDeadline = c.sim().now() + seconds(60);
  while (c.sim().now() < txDeadline &&
         (locksHeld() != 0 || c.coord().txResolutionInProgress() ||
          !*stragglerDone || pair->writerInFlight)) {
    c.sim().runFor(msec(100));
  }
  c.sim().runFor(seconds(3));  // stall lifted; retried decisions drain

  // Final pair state over plain reads (all transactions are settled). The
  // readback is certified against the cut history: if the straggler's
  // resolved commit had applied to only one key, the final state would
  // contradict a previously certified mapping.
  std::map<std::uint64_t, std::uint64_t> finalVersions;
  {
    auto& rc0 = *c.clientHost(0).rc;
    int pendingReads = 0;
    auto readKey = [&rc0, table, &finalVersions,
                    &pendingReads](std::uint64_t k) {
      ++pendingReads;
      rc0.readV(table, k,
                [&finalVersions, &pendingReads, k](
                    net::Status s, std::uint64_t v, sim::Duration) {
                  if (s == net::Status::kOk) finalVersions[k] = v;
                  --pendingReads;
                });
    };
    readKey(pairA);
    readKey(pairB);
    const sim::SimTime readDeadline = c.sim().now() + seconds(30);
    while (c.sim().now() < readDeadline && pendingReads > 0) {
      c.sim().runFor(msec(20));
    }
  }

  // At quiesce a read-only transaction across the whole account pool must
  // validate: nothing is concurrent anymore, so the only way it can abort
  // is a lock that never drained or phantom version churn.
  bool poolSnapshotOk = false;
  {
    auto& rc0 = *c.clientHost(0).rc;
    const std::uint64_t tx = rc0.txBegin();
    auto pendingReads =
        std::make_shared<int>(static_cast<int>(kTxPoolAccounts));
    bool snapDone = false;
    for (std::uint64_t i = 0; i < kTxPoolAccounts; ++i) {
      rc0.txRead(tx, table, kTxPoolBase + i,
                 [&rc0, tx, pendingReads, &poolSnapshotOk, &snapDone](
                     net::Status, std::uint64_t, sim::Duration) {
                   if (--*pendingReads > 0) return;
                   rc0.txCommit(tx, [&poolSnapshotOk, &snapDone](
                                        net::Status s, sim::Duration) {
                     poolSnapshotOk = s == net::Status::kOk;
                     snapDone = true;
                   });
                 });
    }
    const sim::SimTime snapDeadline = c.sim().now() + seconds(20);
    while (c.sim().now() < snapDeadline && !snapDone) {
      c.sim().runFor(msec(20));
    }
  }

  ChaosResult r;
  r.converged = !c.coord().recoveryInProgress() &&
                !c.coord().recoveryLog().empty() && rfDeficit() == 0 &&
                mapHealthy();
  r.recoveries = c.coord().recoveryLog().size();
  r.allRecoveriesSucceeded = true;
  for (const auto& rec : c.coord().recoveryLog()) {
    r.allRecoveriesSucceeded = r.allRecoveriesSucceeded && rec.succeeded;
  }
  r.allKeysPresent = c.verifyAllKeysPresent(table, kRecords);
  r.rfDeficitMetric = c.metrics().value("cluster.rf_deficit");
  r.openSpans = c.journal().openSpans();
  for (const auto* s : c.journal().spansNamed("rereplication")) {
    ++r.rereplicationSpans;
    if (!s->open && !s->abandoned && s->bytes > 0) {
      ++r.rereplicationWithBytes;
    }
  }
  r.faultEvents = c.journal().spansNamed("fault_crash_server").size();
  r.crashBeforeReplyEvents =
      c.journal().spansNamed("fault_crash_before_reply").size();
  r.replyDropEvents = c.journal().spansNamed("fault_reply_drop").size();
  r.clientStallEvents = c.journal().spansNamed("fault_client_stall").size();
  r.crashesInjected = injector.crashesInjected();
  r.activeNetworkRules = injector.activeNetworkRules();
  for (int i = 0; i < c.clientCount(); ++i) {
    r.opsCompleted += c.clientHost(i).ycsb->stats().opsCompleted;
  }
  r.duplicatesSuppressed =
      c.metrics().value("cluster.linearize.duplicates_suppressed");
  r.leasesExpired = c.coord().leasesExpired();
  for (std::size_t i = 0; i < ryw.size(); ++i) {
    r.rywRounds[i] = ryw[i]->rounds;
    r.rywMismatches[i] = ryw[i]->mismatches;
    r.rywViolation = r.rywViolation || ryw[i]->violation;
  }
  r.probeRounds = probe->rounds;
  r.probeMismatches = probe->mismatches;
  r.txTransfersCommitted = pool->committed;
  r.txTransfersAborted = pool->aborted;
  r.txTransfersUnknown = pool->unknown;
  r.txPoolSnapshotOk = poolSnapshotOk;
  r.txPairCommitted = pair->committed;
  r.txPairSnapshots = pair->snapshots;
  r.txStragglerSettled = *stragglerDone;
  r.txStragglerCommitted = *stragglerStatus == net::Status::kOk;
  const auto itA = finalVersions.find(pairA);
  const auto itB = finalVersions.find(pairB);
  r.txPairPresent = itA != finalVersions.end() && itB != finalVersions.end();
  if (r.txPairPresent) pair->certify(itA->second, itB->second);
  r.txPairCuts = pair->cuts;
  r.txTornRead = pair->tornRead;
  r.txLocksAtQuiesce = locksHeld();
  r.txOrphansResolved = c.metrics().value("cluster.tx.orphans_resolved");
  r.txResolutionsStarted =
      c.metrics().value("coordinator.tx.resolutions_started");
  // The conditional crash must actually land inside the first recovery's
  // window — otherwise the mid-recovery failover paths went unexercised.
  for (const auto& inj : injector.injections()) {
    if (inj.kind != fault::FaultKind::kCrashServer || inj.server != 7) {
      continue;
    }
    for (const auto& rec : c.coord().recoveryLog()) {
      if (rec.crashed == c.serverNodeId(0) && inj.at >= rec.detectedAt &&
          inj.at <= rec.finishedAt) {
        r.backupCrashLandedMidRecovery = true;
      }
    }
  }
  if (!exportDir.empty()) {
    EXPECT_TRUE(c.exportMetrics(exportDir));
  }
  if (std::getenv("CHAOS_DEBUG") != nullptr) {
    for (int i = 0; i < c.serverCount(); ++i) {
      if (!c.serverAlive(i)) { std::printf("srv%d dead\n", i); continue; }
      const auto& u = c.server(i).master->unackedRpcResults();
      std::printf("srv%d suppressed=%llu completions=%llu recovered=%llu\n",
                  i, (unsigned long long)u.duplicatesSuppressed(),
                  (unsigned long long)u.completionsRecorded(),
                  (unsigned long long)u.recordsRecovered());
    }
    for (int i = 0; i < c.clientCount(); ++i) {
      std::printf("cli%d retries(write)=%llu retries(read)=%llu lease=%llu "
                  "expiries=%llu\n",
                  i,
                  (unsigned long long)c.clientHost(i).rc->retriesForOpcode(
                      net::Opcode::kWrite),
                  (unsigned long long)c.clientHost(i).rc->retriesForOpcode(
                      net::Opcode::kRead),
                  (unsigned long long)c.clientHost(i).rc->clientId(),
                  (unsigned long long)c.clientHost(i).rc->stats().leaseExpiries);
    }
    for (std::size_t i = 0; i < ryw.size(); ++i) {
      std::printf("ryw%zu rounds=%llu mismatches=%llu key=%llu\n", i,
                  (unsigned long long)ryw[i]->rounds,
                  (unsigned long long)ryw[i]->mismatches,
                  (unsigned long long)(i == 0 ? key0 : key1));
    }
  }
  return r;
}

void expectInvariants(const ChaosResult& r) {
  EXPECT_TRUE(r.converged);
  // The tablet owner's crash must recover; the pure backup's crash may or
  // may not produce its own (empty) recovery record.
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_TRUE(r.allRecoveriesSucceeded);
  EXPECT_TRUE(r.allKeysPresent);
  EXPECT_EQ(r.rfDeficitMetric, 0.0);
  EXPECT_EQ(r.openSpans, 0u);
  // Losing a backup under rf=3 forces re-replication, and it must carry
  // payload bytes.
  EXPECT_GT(r.rereplicationSpans, 0u);
  EXPECT_GT(r.rereplicationWithBytes, 0u);
  // Server 0 dies via the crash-before-reply hook, server 7 via a plain
  // crash: one journal span of each kind, two crashes total (== rf - 1).
  EXPECT_EQ(r.faultEvents, 1u);
  EXPECT_EQ(r.crashBeforeReplyEvents, 1u);
  EXPECT_EQ(r.replyDropEvents, 1u);
  EXPECT_EQ(r.clientStallEvents, 1u);
  EXPECT_EQ(r.crashesInjected, 2);
  EXPECT_EQ(r.activeNetworkRules, 0u);  // every network fault healed
  EXPECT_GT(r.opsCompleted, 0u);
  EXPECT_TRUE(r.backupCrashLandedMidRecovery);
  // Exactly-once layer under fire: lost replies forced retries that were
  // answered from completion records, not re-executed...
  EXPECT_GE(r.duplicatesSuppressed, 1.0);
  // ...the stalled client's lease ran out and was reclaimed...
  EXPECT_GE(r.leasesExpired, 1u);
  // ...and every acked conditional write applied exactly once. Client 0
  // held its lease throughout, so it may never observe a version it did
  // not produce; client 1's mismatches (if any) are the documented
  // post-expiry loss of the guarantee.
  EXPECT_FALSE(r.rywViolation);
  EXPECT_EQ(r.rywMismatches[0], 0u);
  EXPECT_GT(r.rywRounds[0], 0u);
  EXPECT_GT(r.rywRounds[1], 0u);
  // The write-only probe holds a valid lease throughout: a version mismatch
  // there would mean a retried write applied twice.
  EXPECT_EQ(r.probeMismatches, 0u);
  EXPECT_GT(r.probeRounds, 0u);
  // Transactions under the same fault matrix (docs/TRANSACTIONS.md): the
  // account pool saw real transfer traffic and validated as a consistent
  // whole once quiesced...
  EXPECT_GT(r.txTransfersCommitted, 0u);
  EXPECT_TRUE(r.txPoolSnapshotOk);
  // ...every consistent cut certified on the cross-server pair — committed
  // transfers' validated read-sets, validated read-only snapshots, and the
  // final readback — agrees on the version pairing (no torn state was
  // ever observable)...
  EXPECT_GT(r.txPairCommitted, 0u);
  EXPECT_GT(r.txPairSnapshots, 0u);
  EXPECT_GT(r.txPairCuts, 0u);
  EXPECT_FALSE(r.txTornRead);
  EXPECT_TRUE(r.txPairPresent);
  // ...the deliberately orphaned commit was resolved server-side (and the
  // stalled client, once resumed, agreed it committed)...
  EXPECT_TRUE(r.txStragglerSettled);
  EXPECT_TRUE(r.txStragglerCommitted);
  EXPECT_GE(r.txOrphansResolved, 1.0);
  EXPECT_GE(r.txResolutionsStarted, 1.0);
  // ...and no lock survived recovery + lease expiry + quiesce.
  EXPECT_EQ(r.txLocksAtQuiesce, 0u);
}

class ChaosSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeed, InvariantsHoldUnderFaultMatrix) {
  expectInvariants(runChaos(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Matrix, ChaosSeed,
                         ::testing::Values(101ull, 202ull, 303ull));

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Final value of a counter or gauge in an exported metrics.jsonl, read back
/// through the exporter's own parser; NaN when the metric is absent.
double exportedValue(const std::string& metricsPath, const std::string& name) {
  for (const auto& rec : obs::MetricsExporter::readJsonl(metricsPath)) {
    if (rec.name == name && (rec.type == "counter" || rec.type == "gauge")) {
      return rec.value;
    }
  }
  return std::nan("");
}

// A participant crashes mid-commit *during orphan resolution*: the client
// fires txCommit and immediately stalls past its lease, so the prepares
// hold locks on two masters but the decision round never leaves the
// client. The lease sweep hands the orphan to the coordinator; the
// resolution's commit decision lands on server 0, applies durably, and the
// armed hook kills the server before the reply. Recovery must replay the
// decision (not resurrect the lock), the surviving participant's counter
// must show the resolution, and both keys must advance together.
TEST(ChaosTx, ParticipantCrashMidCommitResolvesOrphan) {
  core::ClusterParams p;
  p.servers = 6;
  p.clients = 1;
  p.seed = 7;
  p.replicationFactor = kRf;
  p.coordinator.leaseTerm = seconds(2);
  core::Cluster c(p);
  const auto table = c.createTable("txchaos", 4);
  c.bulkLoad(table, 1'000, 128);

  auto keyOwnedBy = [&c, table](int serverIdx, std::uint64_t from) {
    std::uint64_t k = from;
    while (c.ownerOfKey(table, k) != c.serverNodeId(serverIdx)) ++k;
    return k;
  };
  const std::uint64_t keyA = keyOwnedBy(0, 2'000);
  const std::uint64_t keyB = keyOwnedBy(1, keyA + 1);

  // Seed both accounts, capturing the versions the masters assigned
  // (versions are per-master monotonic, not per-object counters).
  auto& rc = *c.clientHost(0).rc;
  int seeded = 0;
  std::uint64_t seedA = 0;
  std::uint64_t seedB = 0;
  rc.writeV(table, keyA, 64, 0,
            [&seeded, &seedA](net::Status, std::uint64_t v, sim::Duration) {
              seedA = v;
              ++seeded;
            });
  rc.writeV(table, keyB, 64, 0,
            [&seeded, &seedB](net::Status, std::uint64_t v, sim::Duration) {
              seedB = v;
              ++seeded;
            });
  while (seeded < 2) c.sim().runFor(msec(10));

  // No other traffic targets server 0, so the next hooked apply there is
  // the resolution's commit decision.
  c.server(0).master->armCrashBeforeReply([&c] { c.crashServer(0); });

  auto status = std::make_shared<net::Status>(net::Status::kTimeout);
  auto done = std::make_shared<bool>(false);
  const std::uint64_t tx = rc.txBegin();
  rc.txWrite(tx, table, keyA, 64);
  rc.txWrite(tx, table, keyB, 64);
  rc.txCommit(tx, [status, done](net::Status s, sim::Duration) {
    *status = s;
    *done = true;
  });
  rc.stallFor(seconds(8));  // prepares are already out; decisions are not

  auto locksHeld = [&c] {
    std::uint64_t n = 0;
    for (int i = 0; i < c.serverCount(); ++i) {
      if (c.serverAlive(i)) {
        n += c.server(i).master->txLockTable().locksHeld();
      }
    }
    return n;
  };
  const sim::SimTime deadline = c.sim().now() + seconds(120);
  while (c.sim().now() < deadline &&
         (!*done || c.coord().recoveryInProgress() ||
          c.coord().recoveryLog().empty() ||
          c.coord().txResolutionInProgress() || locksHeld() != 0)) {
    c.sim().runFor(msec(100));
  }
  c.sim().runFor(seconds(2));

  EXPECT_TRUE(*done);
  EXPECT_EQ(*status, net::Status::kOk);
  EXPECT_FALSE(c.coord().txResolutionInProgress());
  EXPECT_GE(c.coord().txResolutionsStarted(), 1u);
  EXPECT_GE(c.coord().txResolutionsCommitted(), 1u);
  EXPECT_EQ(locksHeld(), 0u);
  EXPECT_GE(c.metrics().value("cluster.tx.orphans_resolved"), 1.0);
  ASSERT_GE(c.coord().recoveryLog().size(), 1u);
  for (const auto& rec : c.coord().recoveryLog()) {
    EXPECT_TRUE(rec.succeeded);
  }

  // All-or-nothing: the pair's only transaction was resolved to commit, so
  // *both* accounts must have advanced past their seeded versions. (A
  // participant losing the decision would leave its key at the seed —
  // a partial commit.)
  std::uint64_t vA = 0;
  std::uint64_t vB = 0;
  int got = 0;
  rc.readV(table, keyA,
           [&vA, &got](net::Status s, std::uint64_t v, sim::Duration) {
             if (s == net::Status::kOk) vA = v;
             ++got;
           });
  rc.readV(table, keyB,
           [&vB, &got](net::Status s, std::uint64_t v, sim::Duration) {
             if (s == net::Status::kOk) vB = v;
             ++got;
           });
  const sim::SimTime readDeadline = c.sim().now() + seconds(10);
  while (c.sim().now() < readDeadline && got < 2) c.sim().runFor(msec(10));
  EXPECT_EQ(got, 2);
  EXPECT_GT(seedA, 0u);
  EXPECT_GT(seedB, 0u);
  EXPECT_GT(vA, seedA);
  EXPECT_GT(vB, seedB);

  // The export must show the resolution: the orphan resolved and committed
  // by the coordinator, and not one lock left after quiesce.
  const std::string dir = test::tempPath("chaos_tx");
  ASSERT_TRUE(c.exportMetrics(dir));
  const std::string metrics = dir + "/metrics.jsonl";
  EXPECT_GE(exportedValue(metrics, "cluster.tx.orphans_resolved"), 1.0);
  EXPECT_GE(exportedValue(metrics, "coordinator.tx.resolutions_committed"),
            1.0);
  EXPECT_EQ(exportedValue(metrics, "cluster.tx.locks_held"), 0.0);
}

TEST(Chaos, SameSeedSamePlanIsBitIdentical) {
  const std::string dirA = test::tempPath("chaos_replay_a");
  const std::string dirB = test::tempPath("chaos_replay_b");
  const auto a = runChaos(777, dirA);
  const auto b = runChaos(777, dirB);
  expectInvariants(a);
  expectInvariants(b);

  const std::string metricsA = slurp(dirA + "/metrics.jsonl");
  const std::string metricsB = slurp(dirB + "/metrics.jsonl");
  ASSERT_FALSE(metricsA.empty());
  EXPECT_EQ(metricsA, metricsB);
  // The reply-drop plan exercised exactly-once: duplicates were suppressed
  // and the stalled client's lease expired.
  EXPECT_GE(exportedValue(dirA + "/metrics.jsonl",
                          "cluster.linearize.duplicates_suppressed"),
            1.0);
  EXPECT_GE(exportedValue(dirA + "/metrics.jsonl",
                          "coordinator.linearize.leases_expired"),
            1.0);

  const std::string eventsA = slurp(dirA + "/events.jsonl");
  const std::string eventsB = slurp(dirB + "/events.jsonl");
  ASSERT_FALSE(eventsA.empty());
  EXPECT_EQ(eventsA, eventsB);
}

}  // namespace
}  // namespace rc
