#include "core/openloop.hpp"

#include <algorithm>
#include <utility>

#include "core/experiment.hpp"

namespace rc::core {

OpenLoopResult runOpenLoopExperiment(const OpenLoopConfig& cfg) {
  // One client host per traffic source; tenant t occupies the contiguous
  // host block [starts[t], starts[t] + tenants[t].sources).
  int totalSources = 0;
  std::vector<int> starts;
  for (const OpenLoopTenantConfig& t : cfg.tenants) {
    starts.push_back(totalSources);
    totalSources += std::max(1, t.sources);
  }

  ClusterParams cp;
  cp.servers = cfg.servers;
  cp.clients = std::max(1, totalSources);
  cp.seed = cfg.seed;
  cp.replicationFactor = cfg.replicationFactor;

  Cluster cluster(cp);

  // SLO classes first: their dense ids become the RPC tenant tags the QoS
  // stage keys on (tag = class id + 1; docs/SLO.md, docs/WORKLOADS.md).
  server::QosParams qos;
  qos.nodeRatePerSec = cfg.nodeQosRatePerSec;
  for (const OpenLoopTenantConfig& t : cfg.tenants) {
    cluster.sloTracker().declareClass(t.name + "/read", t.readSlo);
    cluster.sloTracker().declareClass(t.name + "/update", t.updateSlo);
    if (t.qosRatePerSec > 0 || t.qosWeight > 0) {
      qos.enabled = true;
      server::QosTenantPolicy p;
      p.name = t.name;
      p.tags = {cluster.sloTracker().classId(t.name + "/read") + 1,
                cluster.sloTracker().classId(t.name + "/update") + 1};
      p.ratePerSec = t.qosRatePerSec;
      p.weight = t.qosWeight;
      p.burst = t.qosBurst;
      p.priority = t.qosPriority;
      qos.tenants.push_back(std::move(p));
    }
  }
  if (qos.enabled) cluster.configureQos(qos);
  if (cfg.clusterHook) cfg.clusterHook(cluster);

  const std::uint64_t table = cluster.createTable("usertable");
  cluster.bulkLoad(table, cfg.workload.recordCount, cfg.workload.valueBytes);
  cluster.startPduSampling();
  if (!cfg.metricsDir.empty()) cluster.startStatsSampling();

  std::vector<load::TrafficSourceParams> sources;
  sources.reserve(static_cast<std::size_t>(totalSources));
  for (const OpenLoopTenantConfig& t : cfg.tenants) {
    for (int s = 0; s < std::max(1, t.sources); ++s) {
      load::TrafficSourceParams p;
      p.shape = t.shape;
      p.batchQuantum = cfg.batchQuantum;
      p.maxHorizon = cfg.maxHorizon;
      p.maxBatch = cfg.maxBatch;
      p.tenant = t.name;
      sources.push_back(std::move(p));
    }
  }
  cluster.configureOpenLoop(table, cfg.workload, sources);
  cluster.startTraffic();

  SteadyStateWindow w = measureSteadyState(
      cluster, cfg.warmup, cfg.measure, cfg.timeScale, cfg.metricsDir);

  OpenLoopResult r;
  r.measuredSeconds = w.seconds;
  r.opsMeasured = w.ops;
  r.deliveredOpsPerSec = w.opsPerSec();
  r.eventsExecuted = w.events;
  r.eventsPerOp = w.ops > 0 ? static_cast<double>(w.events) /
                                  static_cast<double>(w.ops)
                            : 0;
  r.sloWindows = std::move(w.sloWindows);
  r.sloBreachedWindows = w.sloBreachedWindows;
  r.arrivalsGenerated = cluster.totalArrivalsGenerated();
  r.generatorWakeups = cluster.totalGeneratorWakeups();
  r.sourceDropped = cluster.totalSourceDropped();
  r.opFailures = cluster.totalOpFailures();
  r.shedRequests = cluster.totalShedRequests();

  for (std::size_t ti = 0; ti < cfg.tenants.size(); ++ti) {
    const OpenLoopTenantConfig& t = cfg.tenants[ti];
    OpenLoopTenantResult row;
    row.name = t.name;
    const int n = std::max(1, t.sources);
    row.modeledUsers =
        static_cast<std::uint64_t>(n) * t.shape.users;
    row.offeredRatePerSec =
        static_cast<double>(n) * t.shape.baseRate() * t.shape.diurnal.mean();
    sim::Histogram reads;
    sim::Histogram updates;
    for (int s = 0; s < n; ++s) {
      const auto* src = cluster.clientHost(starts[ti] + s).traffic.get();
      if (src == nullptr) continue;
      row.opsCompleted += src->stats().opsCompleted;
      row.opFailures += src->stats().failures;
      reads.merge(src->stats().readLatency);
      updates.merge(src->stats().updateLatency);
    }
    row.readMeanUs = reads.mean() / 1e3;
    row.readP99Us = sim::toMicros(reads.percentile(0.99));
    row.readP999Us = sim::toMicros(reads.percentile(0.999));
    row.updateP99Us = sim::toMicros(updates.percentile(0.99));
    row.updateP999Us = sim::toMicros(updates.percentile(0.999));
    row.qosOffered = cluster.qosCounter(t.name, "offered");
    row.qosAdmitted = cluster.qosCounter(t.name, "admitted");
    row.qosThrottled = cluster.qosCounter(t.name, "throttled");
    row.qosEpisodes = cluster.qosCounter(t.name, "episodes");
    r.modeledUsers += row.modeledUsers;
    r.offeredRatePerSec += row.offeredRatePerSec;
    r.tenants.push_back(std::move(row));
  }
  return r;
}

}  // namespace rc::core
