#include "core/experiment.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace rc::core {

YcsbExperimentResult runYcsbExperiment(const YcsbExperimentConfig& cfg) {
  ClusterParams cp;
  cp.servers = cfg.servers;
  cp.clients = cfg.clients;
  cp.seed = cfg.seed;
  cp.replicationFactor = cfg.replicationFactor;

  Cluster cluster(cp);
  if (!cfg.tenant.empty()) {
    cluster.sloTracker().declareClass(cfg.tenant + "/read", cfg.readSlo);
    cluster.sloTracker().declareClass(cfg.tenant + "/update", cfg.updateSlo);
  }
  if (cfg.clusterHook) cfg.clusterHook(cluster);
  const std::uint64_t table = cluster.createTable("usertable");
  cluster.bulkLoad(table, cfg.workload.recordCount, cfg.workload.valueBytes);
  cluster.startPduSampling();
  if (!cfg.metricsDir.empty()) cluster.startStatsSampling();

  ycsb::YcsbClientParams ycp;
  ycp.opsTarget = 0;  // run until stopped; we measure a window
  ycp.clientOverheadPerOp = cfg.clientOverheadPerOp;
  ycp.throttleOpsPerSec = cfg.throttleOpsPerSec;
  ycp.tenant = cfg.tenant;
  if (cfg.transactional) {
    ycp.transactionalRmw = true;
    ycp.transferProportion = cfg.transferProportion;
    ycp.transferAccounts = cfg.transferAccounts;
    // Account pool above the zipfian/insert-probe range.
    ycp.transferKeyBase = cfg.workload.recordCount * 4;
  }
  cluster.configureYcsb(table, cfg.workload, ycp, cfg.perClientParams);
  cluster.startYcsb();

  SteadyStateWindow w = measureSteadyState(
      cluster, cfg.warmup, cfg.measure, cfg.timeScale, cfg.metricsDir);
  const sim::SimTime t1 = w.end;

  YcsbExperimentResult r;
  r.measuredSeconds = w.seconds;
  r.opsMeasured = w.ops;
  r.throughputOpsPerSec = w.opsPerSec();
  r.sloWindows = std::move(w.sloWindows);
  r.sloBreachedWindows = w.sloBreachedWindows;

  // Window power from the per-resource model (statics + CPU slope + event
  // dynamics), so NIC/DRAM/disk activity shows up in the watts — not just
  // the utilisation-curve estimate the paper's PDUs would have folded in.
  double cpuSum = 0;
  double cpuMin = 1.0;
  double cpuMax = 0.0;
  for (int i = 0; i < cluster.serverCount(); ++i) {
    const node::Node& node = *cluster.server(i).node;
    const auto& snap = w.power[static_cast<std::size_t>(i)];
    const double u = node.meanUtilisationSince(snap.cpu, t1);
    cpuSum += u;
    cpuMin = std::min(cpuMin, u);
    cpuMax = std::max(cpuMax, u);
    const auto by = node.componentEnergySince(snap, t1);
    for (std::size_t c = 0; c < power::kComponentCount; ++c) {
      r.componentEnergyJ[c] += by[c];
      r.clusterEnergyJ += by[c];
    }
  }
  const double n = static_cast<double>(cluster.serverCount());
  r.meanCpuPct = 100.0 * cpuSum / n;
  r.minCpuPct = 100.0 * cpuMin;
  r.maxCpuPct = 100.0 * cpuMax;
  r.clusterPowerW =
      r.measuredSeconds > 0 ? r.clusterEnergyJ / r.measuredSeconds : 0;
  r.meanPowerPerServerW = r.clusterPowerW / n;
  r.joulesPerOp = r.opsMeasured > 0
                      ? r.clusterEnergyJ / static_cast<double>(r.opsMeasured)
                      : 0;
  r.opsPerJoule =
      power::efficiency::opsPerJoule(r.throughputOpsPerSec, r.clusterPowerW);
  r.opsPerJoulePerNode = power::efficiency::opsPerJoulePerNode(
      r.throughputOpsPerSec, r.meanPowerPerServerW);

  // Latency stats aggregated across clients (whole run; steady state).
  sim::Histogram reads;
  sim::Histogram updates;
  for (int i = 0; i < cluster.clientCount(); ++i) {
    const auto* y = cluster.clientHost(i).ycsb.get();
    if (y == nullptr) continue;
    reads.merge(y->stats().readLatency);
    updates.merge(y->stats().updateLatency);
    r.txTransfers += y->stats().transfers;
    r.txClientAborted += y->stats().txAborted;
    r.txClientUnknown += y->stats().txUnknown;
  }
  r.readMeanLatencyUs = reads.mean() / 1e3;
  r.updateMeanLatencyUs = updates.mean() / 1e3;
  r.readP99Us = sim::toMicros(reads.percentile(0.99));
  r.updateP99Us = sim::toMicros(updates.percentile(0.99));

  // Per-stage RPC breakdown from the shared TimeTrace.
  using Stage = obs::TimeTrace::Stage;
  const auto& dw = cluster.timeTrace().stageHistogram(Stage::kDispatchWait);
  const auto& ws = cluster.timeTrace().stageHistogram(Stage::kWorkerService);
  const auto& rw = cluster.timeTrace().stageHistogram(Stage::kReplicationWait);
  r.dispatchWaitMeanUs = dw.mean() / 1e3;
  r.dispatchWaitP99Us = sim::toMicros(dw.percentile(0.99));
  r.workerServiceMeanUs = ws.mean() / 1e3;
  r.workerServiceP99Us = sim::toMicros(ws.percentile(0.99));
  r.replicationWaitMeanUs = rw.mean() / 1e3;
  r.replicationWaitP99Us = sim::toMicros(rw.percentile(0.99));

  r.opFailures = cluster.totalOpFailures();
  r.rpcTimeouts = cluster.totalRpcTimeouts();
  r.rpcRetries = cluster.totalRpcRetries();
  r.crashed = r.opFailures > 0;

  const auto txCount = [&cluster](const char* name) {
    return static_cast<std::uint64_t>(cluster.metrics().value(name));
  };
  r.txPrepares = txCount("cluster.tx.prepares");
  r.txCommits = txCount("cluster.tx.commits");
  r.txAborts = txCount("cluster.tx.aborts");
  r.txConflicts = txCount("cluster.tx.conflicts");
  r.txOrphansResolved = txCount("cluster.tx.orphans_resolved");
  return r;
}

SteadyStateWindow measureSteadyState(Cluster& cluster, sim::Duration warmup,
                                     sim::Duration measure, double timeScale,
                                     const std::string& metricsDir) {
  sim::Simulation& sim = cluster.sim();
  sim.runFor(static_cast<sim::Duration>(static_cast<double>(warmup) *
                                        timeScale));

  // Window-start snapshots (op and event counts, CPU integrals and meter
  // totals per server).
  SteadyStateWindow w;
  const sim::SimTime t0 = sim.now();
  const std::uint64_t ops0 = cluster.totalOpsCompleted();
  const std::uint64_t ev0 = sim.eventsExecuted();
  w.power.reserve(static_cast<std::size_t>(cluster.serverCount()));
  for (int i = 0; i < cluster.serverCount(); ++i) {
    w.power.push_back(cluster.server(i).node->snapshotPower());
  }

  sim.runFor(std::max<sim::Duration>(
      sim::msec(500),
      static_cast<sim::Duration>(static_cast<double>(measure) * timeScale)));

  w.end = sim.now();
  w.seconds = sim::toSeconds(w.end - t0);
  w.ops = cluster.totalOpsCompleted() - ops0;
  w.events = sim.eventsExecuted() - ev0;
  cluster.stopYcsb();
  cluster.stopTraffic();

  if (cluster.sloTracker().enabled()) {
    cluster.sloTracker().finish();
    w.sloWindows = cluster.sloTracker().rows();
    w.sloBreachedWindows = cluster.sloTracker().breachedWindows();
  }
  if (!metricsDir.empty()) cluster.exportMetrics(metricsDir);
  return w;
}

}  // namespace rc::core
