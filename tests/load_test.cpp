// Open-loop traffic engine tests (docs/WORKLOADS.md):
//
//   1. Arrival-process statistics under a fixed seed: Poisson mean and
//      index of dispersion ~ 1, on/off self-similar traffic measurably
//      burstier at the same mean, diurnal modulation integrating to the
//      curve's analytic mean, flash-crowd edges exact.
//   2. Hot-key shifts: the shifted key stream is exactly the cached affine
//      remap of the unshifted one (golden sequence pinned).
//   3. The TrafficSource's batched generation: o(1) heap events per
//      request, offered rate delivered, intent-time SLO accounting.
//   4. Per-tenant QoS at dispatch: a surging tenant is policed at its
//      bucket rate while the other tenant's p999 stays put.
//   5. Determinism: same seed + same schedule => bit-identical
//      metrics.jsonl / slo.jsonl across runs (seeds 101/202/303).
//   6. Workloads D and F through the open loop: inserts grow the stored
//      keyspace, and an RMW is one read plus one write at the server.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/openloop.hpp"
#include "fault/fault_injector.hpp"
#include "load/arrival.hpp"
#include "load/traffic_source.hpp"
#include "obs/metrics_exporter.hpp"
#include "sim/token_bucket.hpp"
#include "ycsb/workload.hpp"

namespace rc {
namespace {

using sim::msec;
using sim::seconds;
using sim::usec;

// ------------------------------------------------ arrival-process statistics

// Bin a drawn arrival stream and return {meanRate, indexOfDispersion}.
// Dispersion (variance/mean of per-bin counts) is 1 for Poisson and > 1
// for bursty processes — the standard burstiness probe.
struct BinStats {
  double ratePerSec = 0;
  double dispersion = 0;
  std::uint64_t count = 0;
};

BinStats binArrivals(load::ArrivalProcess& p, sim::Duration horizon,
                     sim::Duration bin) {
  std::vector<sim::SimTime> out;
  sim::SimTime cursor = 0;
  while (cursor < horizon) {
    cursor = p.drawRun(cursor, msec(5), 100000, out);
  }
  const auto bins = static_cast<std::size_t>(horizon / bin);
  std::vector<double> counts(bins, 0);
  for (sim::SimTime t : out) {
    if (t >= horizon) break;
    counts[static_cast<std::size_t>(t / bin)] += 1;
  }
  double mean = 0;
  for (double c : counts) mean += c;
  mean /= static_cast<double>(bins);
  double var = 0;
  for (double c : counts) var += (c - mean) * (c - mean);
  var /= static_cast<double>(bins);
  BinStats s;
  s.count = out.size();
  s.ratePerSec = static_cast<double>(out.size()) / sim::toSeconds(horizon);
  s.dispersion = mean > 0 ? var / mean : 0;
  return s;
}

TEST(Arrival, PoissonMeanAndDispersion) {
  load::TrafficShape shape;
  shape.process = load::TrafficShape::Process::kPoisson;
  shape.users = 50'000;
  shape.opsPerUserPerSec = 1.0;
  load::ArrivalProcess p(shape, sim::Rng(101, 1));
  const BinStats s = binArrivals(p, seconds(2), msec(10));
  // 100k expected arrivals: mean within 2%, dispersion ~ 1.
  EXPECT_NEAR(s.ratePerSec, 50'000.0, 1'000.0);
  EXPECT_GT(s.dispersion, 0.8);
  EXPECT_LT(s.dispersion, 1.25);
}

TEST(Arrival, OnOffIsBurstierThanPoissonAtSameMean) {
  load::TrafficShape shape;
  shape.process = load::TrafficShape::Process::kOnOff;
  shape.users = 50'000;
  shape.opsPerUserPerSec = 1.0;
  shape.onOffSources = 8;
  shape.onFraction = 0.25;
  shape.onMean = msec(50);
  shape.paretoShape = 1.5;
  load::ArrivalProcess p(shape, sim::Rng(101, 1));
  const BinStats s = binArrivals(p, seconds(5), msec(10));
  // Long-run mean converges to users * opsPerUser (generous tolerance: the
  // heavy-tailed off periods make convergence slow by construction).
  EXPECT_NEAR(s.ratePerSec, 50'000.0, 17'500.0);
  // The whole point of the Willinger construction: visibly over-dispersed.
  EXPECT_GT(s.dispersion, 1.5);
}

TEST(Arrival, DiurnalCurveMeanIsExactIntegral) {
  load::DiurnalCurve c;
  c.period = seconds(4);
  // Triangle wave 0.5 -> 1.5 -> 0.5: mean exactly 1.0.
  c.points = {{0.0, 0.5}, {0.5, 1.5}};
  EXPECT_FALSE(c.flat());
  EXPECT_NEAR(c.mean(), 1.0, 1e-9);
  EXPECT_NEAR(c.at(0), 0.5, 1e-9);
  EXPECT_NEAR(c.at(seconds(2)), 1.5, 1e-9);
  EXPECT_NEAR(c.at(seconds(1)), 1.0, 1e-9);  // halfway up
  EXPECT_NEAR(c.at(seconds(3)), 1.0, 1e-9);  // halfway down (wrap side)
  EXPECT_NEAR(c.at(seconds(4)), 0.5, 1e-9);  // periodic
}

TEST(Arrival, DiurnalModulatedCountMatchesCurveMean) {
  load::TrafficShape shape;
  shape.users = 20'000;
  shape.diurnal.period = seconds(1);
  shape.diurnal.points = {{0.0, 0.2}, {0.5, 1.8}};  // mean 1.0
  load::ArrivalProcess p(shape, sim::Rng(202, 1));
  // Whole number of periods, so the integral applies exactly.
  const BinStats s = binArrivals(p, seconds(4), msec(10));
  EXPECT_NEAR(s.ratePerSec, 20'000.0 * shape.diurnal.mean(), 1'500.0);
  // Valley rate ~0.2x, peak ~1.8x: strongly over-dispersed in 10 ms bins.
  EXPECT_GT(s.dispersion, 2.0);
}

TEST(Arrival, FlashCrowdMultipliesRateExactlyInWindow) {
  load::TrafficShape shape;
  shape.users = 10'000;
  shape.flashCrowds = {{seconds(1), msec(500), 5.0}};
  load::ArrivalProcess p(shape, sim::Rng(303, 1));
  EXPECT_NEAR(p.rateAt(msec(500)), 10'000.0, 1e-6);
  EXPECT_NEAR(p.rateAt(seconds(1)), 50'000.0, 1e-6);
  EXPECT_NEAR(p.rateAt(msec(1499)), 50'000.0, 1e-6);
  EXPECT_NEAR(p.rateAt(msec(1500)), 10'000.0, 1e-6);

  std::vector<sim::SimTime> out;
  sim::SimTime cursor = 0;
  while (cursor < seconds(2)) cursor = p.drawRun(cursor, msec(5), 100000, out);
  std::uint64_t inCrowd = 0;
  std::uint64_t before = 0;
  for (sim::SimTime t : out) {
    if (t < seconds(1)) ++before;
    else if (t < msec(1500)) ++inCrowd;
  }
  const double baseRate = static_cast<double>(before) / 1.0;
  const double crowdRate = static_cast<double>(inCrowd) / 0.5;
  EXPECT_NEAR(crowdRate / baseRate, 5.0, 0.5);
}

TEST(Arrival, SameSeedDrawsIdenticalRuns) {
  load::TrafficShape shape;
  shape.users = 5'000;
  shape.flashCrowds = {{msec(200), msec(100), 3.0}};
  load::ArrivalProcess a(shape, sim::Rng(101, 7));
  load::ArrivalProcess b(shape, sim::Rng(101, 7));
  std::vector<sim::SimTime> outA;
  std::vector<sim::SimTime> outB;
  sim::SimTime ca = 0;
  sim::SimTime cb = 0;
  for (int i = 0; i < 200; ++i) {
    ca = a.drawRun(ca, msec(1), 4096, outA);
    cb = b.drawRun(cb, msec(1), 4096, outB);
  }
  EXPECT_EQ(ca, cb);
  ASSERT_EQ(outA.size(), outB.size());
  EXPECT_TRUE(outA == outB);
}

// ------------------------------------------------------------ hot-key shift

TEST(HotKeyShift, ShiftedStreamIsAffineImageOfUnshifted) {
  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::B(10'000);
  ycsb::KeyChooser plain(spec, sim::Rng(42, 1));
  ycsb::KeyChooser shifted(spec, sim::Rng(42, 1));
  shifted.shiftHotKeys(0xBEEF);
  EXPECT_EQ(shifted.shiftCount(), 1u);
  bool moved = false;
  for (int i = 0; i < 5'000; ++i) {
    const std::uint64_t u = plain.next();
    const std::uint64_t s = shifted.next();
    ASSERT_EQ(s, shifted.remap(u));
    ASSERT_LT(s, spec.recordCount);
    if (s != u) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(HotKeyShift, RemapIsABijection) {
  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::B(4'096);
  ycsb::KeyChooser k(spec, sim::Rng(1, 1));
  k.shiftHotKeys(7);
  k.shiftHotKeys(1234567);  // composed shifts stay bijective
  std::vector<char> seen(4'096, 0);
  for (std::uint64_t i = 0; i < 4'096; ++i) {
    const std::uint64_t m = k.remap(i);
    ASSERT_LT(m, 4'096u);
    ASSERT_FALSE(seen[m]) << "collision at " << i;
    seen[m] = 1;
  }
  // Inserted keys (beyond the preloaded range) are never remapped.
  EXPECT_EQ(k.remap(5'000), 5'000u);
}

TEST(HotKeyShift, GoldenSequencePinned) {
  // Deterministic regression anchor: seed 42, zipfian B over 10k records,
  // one shift. If the permutation derivation or the zipfian stream change,
  // this fails loudly and the golden values must be re-derived consciously.
  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::B(10'000);
  ycsb::KeyChooser k(spec, sim::Rng(42, 1));
  k.shiftHotKeys(0xBEEF);
  std::vector<std::uint64_t> got;
  for (int i = 0; i < 8; ++i) got.push_back(k.next());
  const std::vector<std::uint64_t> golden = {2421, 2606, 7343, 4767,
                                             5895, 837,  890,  7687};
  EXPECT_EQ(got, golden) << "golden zipfian-shift sequence drifted";
}

// --------------------------------------------------------- sim token bucket

TEST(TokenBucket, TryAcquireNeverGoesIntoDebt) {
  sim::TokenBucket tb(1'000.0, 2.0);  // 1k/s, depth 2
  EXPECT_TRUE(tb.tryAcquire(0));
  EXPECT_TRUE(tb.tryAcquire(0));
  EXPECT_FALSE(tb.tryAcquire(0));  // empty: policing refuses, no debt
  // 1 ms refills exactly one token.
  EXPECT_TRUE(tb.tryAcquire(msec(1)));
  EXPECT_FALSE(tb.tryAcquire(msec(1)));
}

TEST(TokenBucket, TimeToTokenIsNonConsumingHint) {
  sim::TokenBucket tb(1'000.0, 1.0);
  EXPECT_TRUE(tb.tryAcquire(0));
  const sim::Duration wait = tb.timeToToken(0);
  EXPECT_GT(wait, 0);
  EXPECT_LE(wait, msec(1));
  EXPECT_EQ(wait, tb.timeToToken(0));  // hint does not consume
  EXPECT_TRUE(tb.tryAcquire(wait));
}

TEST(TokenBucket, ReserveStillPacesWithDebt) {
  // The client-side contract (retry budgets) is unchanged by the move to
  // sim/: reserve() commits and returns the wait.
  sim::TokenBucket tb(100.0, 1.0);
  EXPECT_EQ(tb.reserve(0), 0);
  EXPECT_GT(tb.reserve(0), 0);  // debt: caller must wait
}

// ------------------------------------------------- open-loop traffic engine

core::OpenLoopConfig smallConfig() {
  core::OpenLoopConfig cfg;
  cfg.servers = 4;
  cfg.workload = ycsb::WorkloadSpec::B(20'000);
  cfg.warmup = msec(500);
  cfg.measure = seconds(2);
  cfg.seed = 42;
  core::OpenLoopTenantConfig t;
  t.name = "web";
  t.sources = 2;
  t.shape.users = 1'000;  // 2 sources x 1k users x 1 op/s = 2k ops/s
  t.readSlo = {msec(4), msec(20)};
  t.updateSlo = {msec(8), msec(40)};
  cfg.tenants = {t};
  return cfg;
}

TEST(OpenLoop, DeliversOfferedRateWhenUncongested) {
  const core::OpenLoopConfig cfg = smallConfig();
  const core::OpenLoopResult r = core::runOpenLoopExperiment(cfg);
  EXPECT_EQ(r.modeledUsers, 2'000u);
  EXPECT_NEAR(r.offeredRatePerSec, 2'000.0, 1e-6);
  // Open loop at ~2% of capacity: delivered == offered (within noise).
  EXPECT_NEAR(r.deliveredOpsPerSec, r.offeredRatePerSec,
              0.1 * r.offeredRatePerSec);
  EXPECT_EQ(r.opFailures, 0u);
  EXPECT_EQ(r.sourceDropped, 0u);
  EXPECT_GT(r.sloWindows.size(), 0u);
}

TEST(OpenLoop, BatchedGenerationAmortizesHeapEvents) {
  core::OpenLoopConfig cfg = smallConfig();
  cfg.tenants[0].sources = 1;
  cfg.tenants[0].shape.users = 200'000;  // 200k ops/s through one source
  cfg.warmup = msec(100);
  cfg.measure = msec(500);
  const core::OpenLoopResult batched = core::runOpenLoopExperiment(cfg);
  ASSERT_GT(batched.generatorWakeups, 0u);
  const double perWake =
      static_cast<double>(batched.arrivalsGenerated) /
      static_cast<double>(batched.generatorWakeups);
  // 200k/s x 100 us quantum = ~20 arrivals per wakeup event.
  EXPECT_GT(perWake, 5.0);

  cfg.batchQuantum = 0;  // pace per arrival: ~one wakeup each
  const core::OpenLoopResult paced = core::runOpenLoopExperiment(cfg);
  ASSERT_GT(paced.arrivalsGenerated, 0u);
  // Slightly under 1:1 only when two drawn arrivals share a timestamp.
  EXPECT_GE(static_cast<double>(paced.generatorWakeups),
            0.95 * static_cast<double>(paced.arrivalsGenerated));
}

TEST(OpenLoop, SourceDropGuardsCollapse) {
  // Offered far beyond capacity with a tiny in-flight cap: the source
  // sheds at the generator instead of growing client state unboundedly.
  core::OpenLoopConfig cfg = smallConfig();
  cfg.servers = 2;
  cfg.tenants[0].sources = 1;
  cfg.tenants[0].shape.users = 500'000;
  cfg.warmup = msec(100);
  cfg.measure = msec(500);
  core::OpenLoopResult r;
  {
    core::OpenLoopConfig c = cfg;
    c.clusterHook = [](core::Cluster&) {};
    r = core::runOpenLoopExperiment(c);
  }
  EXPECT_GT(r.sourceDropped + r.shedRequests, 0u);
}

TEST(OpenLoop, LoadSurgeFaultRaisesOpenLoopRate) {
  // The kLoadSurge fault lands on TrafficSources as a flash-crowd overlay
  // (the closed-loop-only hook it subsumes).
  core::ClusterParams cp;
  cp.servers = 3;
  cp.clients = 1;
  cp.seed = 7;
  core::Cluster cluster(cp);
  const std::uint64_t table = cluster.createTable("usertable");
  ycsb::WorkloadSpec spec = ycsb::WorkloadSpec::C(10'000);
  cluster.bulkLoad(table, spec.recordCount, spec.valueBytes);

  load::TrafficSourceParams p;
  p.shape.users = 2'000;
  cluster.configureOpenLoop(table, spec, {p});
  cluster.startTraffic();

  fault::FaultPlan plan;
  plan.loadSurge(seconds(1), /*clientIdx=*/-1, /*factor=*/4.0, seconds(1));
  fault::FaultInjector injector(cluster, plan, cluster.sim().rng().fork(9));
  injector.arm();

  cluster.sim().runFor(msec(900));
  const std::uint64_t before = cluster.totalArrivalsGenerated();
  EXPECT_NEAR(cluster.clientHost(0).traffic->offeredRate(), 2'000.0, 1e-6);
  cluster.sim().runFor(msec(600));  // inside the surge window
  const std::uint64_t during = cluster.totalArrivalsGenerated() - before;
  EXPECT_NEAR(cluster.clientHost(0).traffic->offeredRate(), 8'000.0, 1e-6);
  cluster.sim().runFor(seconds(1));  // past it
  EXPECT_NEAR(cluster.clientHost(0).traffic->offeredRate(), 2'000.0, 1e-6);
  cluster.stopTraffic();
  // ~0.9 s at 2k/s vs 0.6 s at 8k/s: the surge window generated more.
  EXPECT_GT(during, before);
}

// The open loop's insert and read-modify-write paths, mirroring the
// closed-loop YcsbClient tests in tests/ycsb_test.cpp: both generators
// issue ops through the same ycsb::OpEngine.

/// A 2-server cluster with one source at 1k ops/s run for `run`, then
/// stepped to an instant with no op in flight, so every op the servers
/// applied is also counted in the source's stats.
const load::TrafficSource& runOneSourceUntilIdle(core::Cluster& c,
                                                 std::uint64_t table,
                                                 const ycsb::WorkloadSpec& spec,
                                                 sim::Duration run) {
  c.bulkLoad(table, spec.recordCount, spec.valueBytes);
  load::TrafficSourceParams p;
  p.shape.users = 1'000;
  c.configureOpenLoop(table, spec, {p});
  c.startTraffic();
  c.sim().runFor(run);
  const load::TrafficSource& src = *c.clientHost(0).traffic;
  for (int step = 0; step < 100'000 && src.inFlight() > 0; ++step) {
    c.sim().runFor(usec(1));
  }
  EXPECT_EQ(src.inFlight(), 0u);
  return src;
}

core::ClusterParams twoServers() {
  core::ClusterParams p;
  p.servers = 2;
  p.clients = 1;
  return p;
}

TEST(OpenLoop, WorkloadDInsertsGrowKeyspace) {
  core::Cluster c(twoServers());
  const auto table = c.createTable("t");
  const auto& st =
      runOneSourceUntilIdle(c, table, ycsb::WorkloadSpec::D(2'000), seconds(3))
          .stats();
  ASSERT_GT(st.opsCompleted, 2'000u);
  EXPECT_NEAR(static_cast<double>(st.inserts) /
                  static_cast<double>(st.opsCompleted),
              0.05, 0.02);
  EXPECT_EQ(st.failures, 0u);
  // Inserted keys are really stored (beyond the preloaded id range).
  std::uint64_t beyond = 0;
  for (int i = 0; i < c.serverCount(); ++i) {
    c.server(i).master->objectMap().forEach(
        [&](const hash::Key& k, const hash::ObjectLocation&) {
          if (k.keyId >= 2'000) ++beyond;
        });
  }
  EXPECT_EQ(beyond, st.inserts);
}

TEST(OpenLoop, WorkloadFReadModifyWrites) {
  core::Cluster c(twoServers());
  const auto table = c.createTable("t");
  const auto& st =
      runOneSourceUntilIdle(c, table, ycsb::WorkloadSpec::F(1'000), seconds(2))
          .stats();
  ASSERT_GT(st.opsCompleted, 1'000u);
  EXPECT_NEAR(static_cast<double>(st.readModifyWrites) /
                  static_cast<double>(st.opsCompleted),
              0.5, 0.05);
  EXPECT_EQ(st.failures, 0u);
  // An RMW is a read followed by a write at the server.
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (int i = 0; i < c.serverCount(); ++i) {
    reads += c.server(i).master->stats().reads;
    writes += c.server(i).master->stats().writes;
  }
  EXPECT_EQ(reads, st.reads + st.readModifyWrites);
  EXPECT_EQ(writes, st.readModifyWrites);
}

// ----------------------------------------------------- per-tenant QoS stage

TEST(OpenLoop, TenantIsolationUnderTenXSurge) {
  // The acceptance invariant: tenant B surges 10x; its admitted rate is
  // policed at the bucket while tenant A's intent-time p999 holds.
  core::OpenLoopConfig cfg;
  cfg.servers = 4;
  cfg.workload = ycsb::WorkloadSpec::B(20'000);
  cfg.warmup = seconds(1);
  cfg.measure = seconds(5);
  cfg.seed = 42;

  core::OpenLoopTenantConfig a;
  a.name = "tenantA";
  a.sources = 1;
  a.shape.users = 1'500;
  a.readSlo = {msec(4), msec(20)};
  a.updateSlo = {msec(8), msec(40)};
  a.qosRatePerSec = 1'000;  // 4k/s cluster-wide >> 1.5k offered
  a.qosPriority = true;

  core::OpenLoopTenantConfig b = a;
  b.name = "tenantB";
  b.shape.users = 1'500;
  b.qosRatePerSec = 750;  // 3k/s cluster-wide cap
  b.qosPriority = false;
  // 10x surge for 2 s in the middle of the measurement window.
  b.shape.flashCrowds = {{seconds(3), seconds(2), 10.0}};

  cfg.tenants = {a, b};
  cfg.metricsDir = ::testing::TempDir() + "openloop_tenant_isolation";
  const core::OpenLoopResult r = core::runOpenLoopExperiment(cfg);

  ASSERT_EQ(r.tenants.size(), 2u);
  const core::OpenLoopTenantResult& ra = r.tenants[0];
  const core::OpenLoopTenantResult& rb = r.tenants[1];

  // A never throttles; B does, hard, and only via the bucket.
  EXPECT_EQ(ra.qosThrottled, 0u);
  EXPECT_GT(rb.qosThrottled, 5'000u);
  EXPECT_GT(rb.qosEpisodes, 0u);

  // B's admitted total ~= offered outside the surge (4 s x 1.5k) plus the
  // bucket cap inside it (2 s x 3k): policing at the bucket rate.
  const double expectAdmitted = 4.0 * 1'500 + 2.0 * 3'000;
  EXPECT_NEAR(static_cast<double>(rb.qosAdmitted), expectAdmitted,
              0.25 * expectAdmitted);

  // Tenant A's per-window intent-time p999: surge windows stay within 20%
  // of the pre-surge baseline (both tails taken over read windows).
  double baseP999 = 0;
  double surgeP999 = 0;
  for (const auto& w : r.sloWindows) {
    if (w.cls != "tenantA/read" || w.count == 0) continue;
    const double p = sim::toMicros(w.p999);
    if (w.window >= 1 && w.window < 4) baseP999 = std::max(baseP999, p);
    if (w.window >= 4 && w.window < 6) surgeP999 = std::max(surgeP999, p);
  }
  ASSERT_GT(baseP999, 0.0);
  ASSERT_GT(surgeP999, 0.0);
  EXPECT_LT(surgeP999, 1.2 * baseP999)
      << "tenant A p999 degraded >20% during tenant B's surge";

  // The export shows the surging tenant policed and the steady one
  // untouched: the largest final counter/gauge value whose name fully
  // matches `pattern` (NaN if none).
  std::size_t malformed = 0;
  const auto recs = obs::MetricsExporter::readJsonl(
      cfg.metricsDir + "/metrics.jsonl", &malformed);
  EXPECT_EQ(malformed, 0u);
  auto exported = [&recs](const char* pattern) {
    const std::regex re(pattern);
    double v = std::nan("");
    for (const auto& rec : recs) {
      if ((rec.type == "counter" || rec.type == "gauge") &&
          std::regex_match(rec.name, re) && !(v >= rec.value)) {
        v = rec.value;
      }
    }
    return v;
  };
  EXPECT_GE(exported(R"(node[0-9]+\.dispatch\.qos\.tenantB\.throttled)"), 1);
  EXPECT_GE(exported(R"(node[0-9]+\.dispatch\.qos\.tenantB\.episodes)"), 1);
  EXPECT_EQ(exported(R"(cluster\.qos\.tenantA\.throttled)"), 0);
}

// ------------------------------------------------------------- determinism

class OpenLoopSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpenLoopSeed, ReplaysBitIdentical) {
  const std::uint64_t seed = GetParam();
  auto run = [&](const std::string& dir) {
    core::OpenLoopConfig cfg = smallConfig();
    cfg.seed = seed;
    cfg.warmup = msec(300);
    cfg.measure = seconds(1);
    cfg.metricsDir = dir;
    // Exercise every schedule type in the replay: diurnal valley, flash
    // crowd, hot-key shift, on/off tenant.
    cfg.tenants[0].shape.diurnal.period = msec(800);
    cfg.tenants[0].shape.diurnal.points = {{0.0, 0.6}, {0.5, 1.4}};
    cfg.tenants[0].shape.flashCrowds = {{msec(600), msec(200), 3.0}};
    cfg.tenants[0].shape.hotKeyShifts = {{msec(500), 0xABCD}};
    core::OpenLoopTenantConfig burst;
    burst.name = "burst";
    burst.sources = 1;
    burst.shape.process = load::TrafficShape::Process::kOnOff;
    burst.shape.users = 500;
    burst.shape.onOffSources = 4;
    burst.readSlo = {msec(4), msec(20)};
    burst.updateSlo = {msec(8), msec(40)};
    cfg.tenants.push_back(burst);
    return core::runOpenLoopExperiment(cfg);
  };
  const std::string dirA =
      ::testing::TempDir() + "openloop_replay_a" + std::to_string(seed);
  const std::string dirB =
      ::testing::TempDir() + "openloop_replay_b" + std::to_string(seed);
  const core::OpenLoopResult a = run(dirA);
  const core::OpenLoopResult b = run(dirB);
  EXPECT_EQ(a.opsMeasured, b.opsMeasured);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_EQ(a.arrivalsGenerated, b.arrivalsGenerated);

  auto slurp = [](const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  const std::string metricsA = slurp(dirA + "/metrics.jsonl");
  ASSERT_FALSE(metricsA.empty());
  EXPECT_EQ(metricsA, slurp(dirB + "/metrics.jsonl"));
  const std::string sloA = slurp(dirA + "/slo.jsonl");
  ASSERT_FALSE(sloA.empty());
  EXPECT_EQ(sloA, slurp(dirB + "/slo.jsonl"));
}

INSTANTIATE_TEST_SUITE_P(Matrix, OpenLoopSeed,
                         ::testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace rc
