// Tests for the master/backup services, dispatch and replication manager,
// exercised through a small simulated cluster.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/cluster.hpp"
#include "server/backup_service.hpp"
#include "server/dispatch.hpp"
#include "server/master_service.hpp"

namespace rc::server {
namespace {

using sim::msec;
using sim::seconds;
using sim::usec;

core::ClusterParams smallCluster(int servers, int rf) {
  core::ClusterParams p;
  p.servers = servers;
  p.clients = 1;
  p.replicationFactor = rf;
  return p;
}

net::RpcResponse callSync(core::Cluster& c, node::NodeId to,
                          net::RpcRequest req,
                          sim::Duration timeout = seconds(2)) {
  net::RpcResponse out;
  bool done = false;
  c.rpc().call(c.clientNodeId(0), to, net::kMasterPort, req, timeout,
               [&](const net::RpcResponse& r) {
                 out = r;
                 done = true;
               });
  while (!done) c.sim().runFor(msec(10));
  return out;
}

net::RpcRequest writeReq(std::uint64_t table, std::uint64_t key,
                         std::uint64_t bytes = 1000) {
  net::RpcRequest r;
  r.op = net::Opcode::kWrite;
  r.a = table;
  r.b = key;
  r.payloadBytes = bytes;
  return r;
}

net::RpcRequest readReq(std::uint64_t table, std::uint64_t key) {
  net::RpcRequest r;
  r.op = net::Opcode::kRead;
  r.a = table;
  r.b = key;
  return r;
}

TEST(Dispatch, SerialisesItems) {
  sim::Simulation sim;
  DispatchParams p;
  p.perItem = usec(1);
  Dispatch d(sim, p);
  std::vector<sim::SimTime> at;
  for (int i = 0; i < 5; ++i) {
    d.enqueue([&] { at.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(at.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(at[static_cast<size_t>(i)], usec(i + 1));
}

TEST(Dispatch, ExtraCostDelaysFollowers) {
  sim::Simulation sim;
  DispatchParams p;
  p.perItem = usec(1);
  Dispatch d(sim, p);
  sim::SimTime second = 0;
  d.enqueue([] {}, usec(99));  // a backup write hogging the dispatch core
  d.enqueue([&] { second = sim.now(); });
  sim.run();
  EXPECT_EQ(second, usec(101));
}

TEST(Dispatch, CrashDropsQueued) {
  sim::Simulation sim;
  Dispatch d(sim, DispatchParams{});
  bool ran = false;
  d.enqueue([&] { ran = true; });
  d.crash();
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Dispatch, BacklogGrowsMonotonicallyUnderOverload) {
  sim::Simulation sim;
  DispatchParams p;
  p.perItem = usec(10);
  Dispatch d(sim, p);
  // Offer items faster than the dispatch core can hand them off (one per
  // 10 us service time, arriving instantaneously): the backlog and queue
  // depth must grow monotonically, never reset or wrap.
  sim::Duration prevBacklog = 0;
  std::uint64_t prevDepth = 0;
  for (int i = 0; i < 50; ++i) {
    d.enqueue([] {});
    EXPECT_GE(d.backlogDelay(), prevBacklog);
    EXPECT_GE(d.queueDepth(), prevDepth);
    prevBacklog = d.backlogDelay();
    prevDepth = d.queueDepth();
  }
  EXPECT_EQ(d.queueDepth(), 50u);
  EXPECT_EQ(d.maxQueueDepth(), 50u);
  EXPECT_EQ(d.backlogDelay(), usec(500));
  EXPECT_EQ(d.nextFreeAt(), usec(500));
  sim.run();
  // Everything drained: depth returns to zero, high-water mark sticks.
  EXPECT_EQ(d.queueDepth(), 0u);
  EXPECT_EQ(d.maxQueueDepth(), 50u);
  EXPECT_EQ(d.itemsDispatched(), 50u);
}

TEST(Dispatch, QueueMetricsExposed) {
  sim::Simulation sim;
  DispatchParams p;
  p.perItem = usec(10);
  Dispatch d(sim, p);
  obs::MetricRegistry reg;
  d.registerMetrics(reg, "node1.master.dispatch");
  for (int i = 0; i < 8; ++i) d.enqueue([] {});
  EXPECT_DOUBLE_EQ(reg.value("node1.master.dispatch.queue_depth"), 8.0);
  EXPECT_DOUBLE_EQ(reg.value("node1.master.dispatch.backlog_us"), 80.0);
  sim.run();
  EXPECT_DOUBLE_EQ(reg.value("node1.master.dispatch.queue_depth"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("node1.master.dispatch.items"), 8.0);
}

TEST(MasterService, WriteThenReadRoundTrip) {
  core::Cluster c(smallCluster(2, 0));
  const auto table = c.createTable("t");
  auto w = callSync(c, c.ownerOfKey(table, 5), writeReq(table, 5));
  EXPECT_EQ(w.status, net::Status::kOk);
  auto r = callSync(c, c.ownerOfKey(table, 5), readReq(table, 5));
  EXPECT_EQ(r.status, net::Status::kOk);
  EXPECT_EQ(r.a, 1u);  // found
  EXPECT_EQ(r.payloadBytes, 1100u);  // 1000 B value + 100 B log metadata
}

TEST(MasterService, ReadMissingKeyReportsAbsent) {
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  auto r = callSync(c, c.serverNodeId(0), readReq(table, 12345));
  EXPECT_EQ(r.status, net::Status::kOk);
  EXPECT_EQ(r.a, 0u);
}

TEST(MasterService, WrongOwnerReturnsUnknownTablet) {
  core::Cluster c(smallCluster(2, 0));
  const auto table = c.createTable("t");
  const auto owner = c.ownerOfKey(table, 5);
  const auto other = owner == c.serverNodeId(0) ? c.serverNodeId(1)
                                                : c.serverNodeId(0);
  auto r = callSync(c, other, readReq(table, 5));
  EXPECT_EQ(r.status, net::Status::kUnknownTablet);
}

TEST(MasterService, VersionsIncreaseAcrossOverwrites) {
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  callSync(c, c.serverNodeId(0), writeReq(table, 1));
  callSync(c, c.serverNodeId(0), writeReq(table, 1));
  auto r = callSync(c, c.serverNodeId(0), readReq(table, 1));
  EXPECT_GE(r.b, 2u);
  // The overwritten entry is dead in the log.
  const auto& master = *c.server(0).master;
  EXPECT_LT(master.log().liveBytes(), master.log().appendedBytes());
}

TEST(MasterService, RemoveDeletesAndWritesTombstone) {
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  callSync(c, c.serverNodeId(0), writeReq(table, 9));
  net::RpcRequest rm;
  rm.op = net::Opcode::kRemove;
  rm.a = table;
  rm.b = 9;
  auto resp = callSync(c, c.serverNodeId(0), rm);
  EXPECT_EQ(resp.status, net::Status::kOk);
  EXPECT_EQ(resp.a, 1u);
  auto r = callSync(c, c.serverNodeId(0), readReq(table, 9));
  EXPECT_EQ(r.a, 0u);  // gone
  EXPECT_EQ(c.server(0).master->objectMap().get(hash::Key{table, 9}),
            nullptr);
}

net::RpcRequest removeReq(std::uint64_t table, std::uint64_t key) {
  net::RpcRequest r;
  r.op = net::Opcode::kRemove;
  r.a = table;
  r.b = key;
  return r;
}

net::RpcRequest multiWriteReq(std::uint64_t table,
                              std::vector<std::uint64_t> keys) {
  net::RpcRequest r;
  r.op = net::Opcode::kMultiWrite;
  r.a = table;
  r.b = 100;  // value bytes per key
  r.c = keys.size();
  r.keys = std::make_shared<const std::vector<std::uint64_t>>(std::move(keys));
  return r;
}

// Removes pass the same per-key admission, counters and stage stamps as
// writes (docs/LINEARIZABILITY.md, "One mutation path on the master").
TEST(MasterService, RemoveOfAbsentKeyCountsMissingKey) {
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  auto resp = callSync(c, c.serverNodeId(0), removeReq(table, 5000));
  EXPECT_EQ(resp.status, net::Status::kOk);
  EXPECT_EQ(resp.a, 0u);  // not found
  EXPECT_EQ(c.server(0).master->stats().missingKeys, 1u);
  EXPECT_EQ(c.server(0).master->stats().removes, 1u);
}

TEST(MasterService, RemoveCountsTabletHeat) {
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  const auto tablets = c.coord().tabletMap().tabletsOwnedBy(c.serverNodeId(0));
  ASSERT_EQ(tablets.size(), 1u);
  char name[96];
  std::snprintf(name, sizeof(name),
                "node%d.master.tablet.heat.t%llu.h%llx.writes",
                static_cast<int>(c.serverNodeId(0)),
                static_cast<unsigned long long>(table),
                static_cast<unsigned long long>(tablets[0].startHash));
  callSync(c, c.serverNodeId(0), writeReq(table, 9));
  ASSERT_TRUE(c.metrics().has(name));
  const double before = c.metrics().value(name);
  callSync(c, c.serverNodeId(0), removeReq(table, 9));
  EXPECT_EQ(c.metrics().value(name), before + 1);
}

TEST(MasterService, RemoveStampsServerStages) {
  using Stage = obs::TimeTrace::Stage;
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  callSync(c, c.serverNodeId(0), writeReq(table, 9));
  const auto& tt = c.timeTrace();
  const auto dispatchWait = tt.stageHistogram(Stage::kDispatchWait).count();
  const auto workerService = tt.stageHistogram(Stage::kWorkerService).count();
  const auto replicationWait =
      tt.stageHistogram(Stage::kReplicationWait).count();
  bool done = false;
  c.clientHost(0).rc->remove(table, 9, [&done](net::Status s, sim::Duration) {
    EXPECT_EQ(s, net::Status::kOk);
    done = true;
  });
  while (!done) c.sim().runFor(msec(10));
  // The server-side time of the remove is split into its stages instead of
  // being charged to network_reply.
  EXPECT_EQ(tt.stageHistogram(Stage::kDispatchWait).count(), dispatchWait + 1);
  EXPECT_EQ(tt.stageHistogram(Stage::kWorkerService).count(),
            workerService + 1);
  EXPECT_EQ(tt.stageHistogram(Stage::kReplicationWait).count(),
            replicationWait + 1);
}

// Client removes of every third bulk-loaded key: the indexes shrink by
// exactly the removed keys, a removed key fails verification, and every
// other key still reads back at its loaded version.
TEST(MasterService, RemovesAfterBulkLoadKeepOtherKeysAndVersions) {
  constexpr std::uint64_t kRecords = 20'000;
  core::Cluster c(smallCluster(4, 0));
  const auto table = c.createTable("t");
  c.bulkLoad(table, kRecords, 100);
  auto masterOf = [&](std::uint64_t key) -> const MasterService& {
    const ServerId owner = c.ownerOfKey(table, key);
    for (int i = 0; i < c.serverCount(); ++i) {
      if (c.serverNodeId(i) == owner) return *c.server(i).master;
    }
    throw std::logic_error("key without owner");
  };
  std::vector<std::uint64_t> loaded(kRecords);
  for (std::uint64_t k = 0; k < kRecords; ++k) {
    loaded[k] = masterOf(k).objectMap().get(hash::Key{table, k})->version;
  }

  // Issue the client ops in waves so no dispatch queue gets deep.
  auto& rc = *c.clientHost(0).rc;
  auto inWaves = [&](std::uint64_t first, std::uint64_t step, auto issue) {
    std::uint64_t done = 0;
    std::uint64_t issued = 0;
    for (std::uint64_t k = first; k < kRecords; k += step) {
      issue(k, done);
      if (++issued % 256 == 0) {
        while (done < issued) c.sim().runFor(msec(1));
      }
    }
    while (done < issued) c.sim().runFor(msec(1));
    return issued;
  };
  const std::uint64_t removed =
      inWaves(0, 3, [&](std::uint64_t k, std::uint64_t& done) {
        rc.remove(table, k, [&done](net::Status s, sim::Duration) {
          EXPECT_EQ(s, net::Status::kOk);
          ++done;
        });
      });
  EXPECT_EQ(removed, (kRecords + 2) / 3);

  std::uint64_t firstMissing = kRecords;
  EXPECT_FALSE(c.verifyAllKeysPresent(table, kRecords, &firstMissing));
  EXPECT_EQ(firstMissing, 0u);
  std::size_t indexed = 0;
  for (int i = 0; i < c.serverCount(); ++i) {
    indexed += c.server(i).master->objectMap().size();
  }
  EXPECT_EQ(indexed, kRecords - removed);

  for (std::uint64_t first : {1, 2}) {
    inWaves(first, 3, [&](std::uint64_t k, std::uint64_t& done) {
      rc.readV(table, k,
               [&done, &loaded, k](net::Status s, std::uint64_t v,
                                   sim::Duration) {
                 EXPECT_EQ(s, net::Status::kOk) << k;
                 EXPECT_EQ(v, loaded[k]) << k;
                 ++done;
               });
    });
  }
  for (std::uint64_t k = 0; k < kRecords; k += 3) {
    EXPECT_EQ(masterOf(k).objectMap().get(hash::Key{table, k}), nullptr);
  }
}

// Multi-writes pass the single-key admission and tx-lock check per key: a
// refused key is neither applied nor acknowledged as served.
TEST(MasterService, MultiWriteUnderHeldTxLockLeavesVersionUnchanged) {
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  callSync(c, c.serverNodeId(0), writeReq(table, 3));
  auto& master = *c.server(0).master;
  const std::uint64_t before =
      master.objectMap().get(hash::Key{table, 3})->version;
  TxLockTable::Lock lock;
  lock.txId = 77;
  lock.tableId = table;
  lock.keyId = 3;
  lock.expectedVersion = before;
  ASSERT_TRUE(master.txLockTable().acquire(lock));

  auto r = callSync(c, c.serverNodeId(0), multiWriteReq(table, {3, 4}));
  EXPECT_EQ(r.status, net::Status::kOk);
  EXPECT_EQ(r.a, 1u);  // key 4 served
  EXPECT_EQ(r.b, 1u);  // key 3 refused
  EXPECT_EQ(master.objectMap().get(hash::Key{table, 3})->version, before);
}

TEST(MasterService, MultiWriteIntoMigratingRangeIsNotAcknowledged) {
  core::Cluster c(smallCluster(2, 0));
  const auto table = c.createTable("t");
  c.bulkLoad(table, 9'000, 1000);
  const auto src = c.serverNodeId(0);
  const auto tablets = c.coord().tabletMap().tabletsOwnedBy(src);
  ASSERT_EQ(tablets.size(), 1u);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < 8; ++k) {
    if (c.ownerOfKey(table, k) == src) keys.push_back(k);
  }
  auto& master = *c.server(0).master;
  bool migrated = false;
  c.migrateTablet(tablets[0], 1, [&migrated](bool ok) { migrated = ok; });
  for (int i = 0; i < 100'000 && master.activeMigrations() == 0; ++i) {
    c.sim().runFor(usec(10));
  }
  ASSERT_TRUE(master.isMigratingRange(
      table, hash::keyHash(hash::Key{table, keys[0]})));

  auto r = callSync(c, src, multiWriteReq(table, keys), seconds(2));
  EXPECT_EQ(r.status, net::Status::kOk);
  EXPECT_EQ(r.a, 0u);
  EXPECT_EQ(r.b, keys.size());
  for (int i = 0; i < 200 && !migrated; ++i) c.sim().runFor(msec(100));
  EXPECT_TRUE(migrated);
}

TEST(MasterService, UnreplicatedWriteSlowerThanRead) {
  // The paper's Finding 2: updates cost far more than reads even at RF=0.
  core::Cluster c(smallCluster(1, 0));
  const auto table = c.createTable("t");
  callSync(c, c.serverNodeId(0), writeReq(table, 1));
  const auto& st = c.server(0).master->stats();
  ASSERT_EQ(st.writes, 1u);
  EXPECT_GT(st.writeServiceLatency.mean(), 4 * st.readServiceLatency.mean() +
                                               static_cast<double>(usec(50)));
}

TEST(Replication, AckedWriteIsDurableOnRfBackups) {
  for (int rf : {1, 2, 3}) {
    core::Cluster c(smallCluster(5, rf));
    const auto table = c.createTable("t");
    const auto owner = c.ownerOfKey(table, 77);
    auto w = callSync(c, owner, writeReq(table, 77));
    ASSERT_EQ(w.status, net::Status::kOk);

    auto& master = *c.server(owner - 1).master;
    const auto* loc = master.objectMap().get(hash::Key{table, 77});
    ASSERT_NE(loc, nullptr);
    const auto* placement =
        master.replicaManager().placementOf(loc->ref.segment);
    ASSERT_NE(placement, nullptr);
    ASSERT_EQ(placement->size(), static_cast<std::size_t>(rf));
    for (node::NodeId b : *placement) {
      EXPECT_NE(b, owner);  // never self
      auto frames = c.directory().backupOn(b)->framesForMaster(owner);
      ASSERT_EQ(frames.size(), 1u);
      EXPECT_GE(frames[0].bytes, 1100u);  // the write is within watermark
    }
  }
}

TEST(Replication, DistinctBackupsPerSegment) {
  core::Cluster c(smallCluster(6, 3));
  const auto table = c.createTable("t");
  const auto owner = c.ownerOfKey(table, 1);
  callSync(c, owner, writeReq(table, 1));
  auto& master = *c.server(owner - 1).master;
  const auto* loc = master.objectMap().get(hash::Key{table, 1});
  const auto* placement = master.replicaManager().placementOf(loc->ref.segment);
  ASSERT_NE(placement, nullptr);
  std::set<node::NodeId> uniq(placement->begin(), placement->end());
  EXPECT_EQ(uniq.size(), placement->size());
}

TEST(Replication, WriteLatencyGrowsWithRf) {
  double lastLatency = 0;
  for (int rf : {0, 1, 2, 4}) {
    core::Cluster c(smallCluster(6, rf));
    const auto table = c.createTable("t");
    const auto owner = c.ownerOfKey(table, 3);
    callSync(c, owner, writeReq(table, 3));
    const double lat =
        c.server(owner - 1).master->stats().writeServiceLatency.mean();
    if (rf >= 2) EXPECT_GT(lat, lastLatency);
    lastLatency = lat;
  }
}

TEST(Replication, BackupCrashTriggersReplacement) {
  core::Cluster c(smallCluster(5, 2));
  const auto table = c.createTable("t");
  const auto owner = c.ownerOfKey(table, 42);
  callSync(c, owner, writeReq(table, 42));

  auto& master = *c.server(owner - 1).master;
  const auto* loc = master.objectMap().get(hash::Key{table, 42});
  const auto* placement = master.replicaManager().placementOf(loc->ref.segment);
  ASSERT_NE(placement, nullptr);
  const node::NodeId victim = placement->front();
  c.coord().stopFailureDetector();  // isolate: no recovery, just replication
  c.crashServer(victim - 1);

  // A second write to the same master (any key it owns) must still be
  // acknowledged: the manager replaces the dead backup.
  std::uint64_t key2 = 43;
  while (c.ownerOfKey(table, key2) != owner) ++key2;
  auto w = callSync(c, owner, writeReq(table, key2), seconds(5));
  EXPECT_EQ(w.status, net::Status::kOk);
  EXPECT_GE(master.replicaManager().replacementsMade(), 1u);
  const auto* now = master.replicaManager().placementOf(loc->ref.segment);
  ASSERT_NE(now, nullptr);
  for (node::NodeId b : *now) EXPECT_NE(b, victim);
}

TEST(Replication, ConsistencyAblationSkipsAckWait) {
  // SS IX-B: fire-and-forget replication must be much faster than synced.
  double synced = 0, relaxed = 0;
  for (bool wait : {true, false}) {
    core::ClusterParams p = smallCluster(5, 3);
    p.master.replication.waitForAcks = wait;
    core::Cluster c(p);
    const auto table = c.createTable("t");
    const auto owner = c.ownerOfKey(table, 5);
    callSync(c, owner, writeReq(table, 5));
    const double lat =
        c.server(owner - 1).master->stats().writeServiceLatency.mean();
    (wait ? synced : relaxed) = lat;
  }
  EXPECT_LT(relaxed * 2, synced);
}

TEST(BackupService, SealedSegmentFlushesToDisk) {
  core::ClusterParams p = smallCluster(3, 1);
  p.master.log.segmentBytes = 64 * 1024;  // seal quickly
  core::Cluster c(p);
  const auto table = c.createTable("t", 1);
  const auto owner = c.ownerOfKey(table, 0);
  // ~60 writes of 1.1 KB fill a 64 KB segment.
  for (int i = 0; i < 120; ++i) {
    callSync(c, owner, writeReq(table, static_cast<std::uint64_t>(i)));
  }
  c.sim().runFor(seconds(2));  // let flushes drain
  std::uint64_t flushed = 0;
  for (int i = 0; i < c.serverCount(); ++i) {
    for (const auto& f :
         c.server(i).backup->framesForMaster(owner)) {
      if (f.onDisk) ++flushed;
    }
  }
  EXPECT_GE(flushed, 1u);
}

TEST(BackupService, FreesFramesOnRequest) {
  core::Cluster c(smallCluster(3, 2));
  const auto table = c.createTable("t");
  const auto owner = c.ownerOfKey(table, 8);
  callSync(c, owner, writeReq(table, 8));
  auto& master = *c.server(owner - 1).master;
  const auto* loc = master.objectMap().get(hash::Key{table, 8});
  master.replicaManager().freeSegment(loc->ref.segment);
  c.sim().runFor(msec(100));
  for (int i = 0; i < c.serverCount(); ++i) {
    EXPECT_TRUE(c.server(i).backup->framesForMaster(owner).empty());
  }
}

TEST(MasterService, CleanerReclaimsUnderChurn) {
  core::ClusterParams p = smallCluster(1, 0);
  p.master.log.segmentBytes = 32 * 1024;
  p.master.log.capacityBytes = 256 * 1024;  // 8 segments
  p.master.log.cleanerThreshold = 0.5;
  core::Cluster c(p);
  const auto table = c.createTable("t");
  // Overwrite 20 keys repeatedly: appended >> live, cleaner must run.
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t k = 0; k < 20; ++k) {
      auto w = callSync(c, c.serverNodeId(0), writeReq(table, k));
      ASSERT_EQ(w.status, net::Status::kOk);
    }
  }
  c.sim().runFor(seconds(2));
  const auto& master = *c.server(0).master;
  EXPECT_GT(master.stats().cleanerRuns, 0u);
  EXPECT_LE(master.log().memoryInUse(), p.master.log.capacityBytes);
  // All 20 keys still readable with latest data.
  for (std::uint64_t k = 0; k < 20; ++k) {
    auto r = callSync(c, c.serverNodeId(0), readReq(table, k));
    EXPECT_EQ(r.a, 1u) << "key " << k;
  }
}

TEST(Backoff, GrowsExponentiallyWithJitterInsideTarget) {
  Backoff b{msec(1), msec(100)};
  for (int attempt = 0; attempt < 20; ++attempt) {
    sim::Duration target = msec(1) << std::min(attempt, 30);
    if (target > msec(100) || target <= 0) target = msec(100);
    const sim::Duration d = b.delay(attempt, /*salt=*/42);
    EXPECT_GE(d, target / 2) << "attempt " << attempt;
    EXPECT_LT(d, target) << "attempt " << attempt;
  }
  // Capped: far-out attempts never exceed the cap.
  EXPECT_LT(b.delay(1000, 7), msec(100));
}

TEST(Backoff, JitterIsDeterministicPerSaltAndSpreadsAcrossSalts) {
  Backoff b{msec(2), msec(200)};
  // Same (attempt, salt) -> bit-identical delay (replayable schedules).
  EXPECT_EQ(b.delay(3, 1234), b.delay(3, 1234));
  // Different salts decorrelate retry loops (no synchronized hammering).
  std::set<sim::Duration> seen;
  for (std::uint64_t salt = 0; salt < 16; ++salt) {
    seen.insert(b.delay(3, salt));
  }
  EXPECT_GT(seen.size(), 8u);
}

TEST(MasterService, CrashedMasterStopsResponding) {
  core::Cluster c(smallCluster(2, 0));
  const auto table = c.createTable("t");
  c.coord().stopFailureDetector();
  c.crashServer(0);
  auto r = callSync(c, c.serverNodeId(0), readReq(table, 1), msec(300));
  EXPECT_EQ(r.status, net::Status::kTimeout);
}

}  // namespace
}  // namespace rc::server
