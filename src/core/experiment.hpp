#pragma once

#include <array>
#include <cstdint>
#include <string>

#include <functional>
#include <vector>

#include "core/cluster.hpp"
#include "obs/slo_tracker.hpp"
#include "power/energy_model.hpp"
#include "power/power_model.hpp"
#include "ycsb/workload.hpp"

namespace rc::core {

/// One steady-state YCSB measurement (the methodology of paper §§IV-VI):
/// load records, run closed-loop clients, measure a window after warmup.
///
/// The paper fixes request *counts* (10 M or 100 K per client) and lets the
/// run take as long as it takes; since throughput is stationary in a closed
/// loop, we measure a fixed time window instead and report energies scaled
/// to the paper's nominal request counts (see EXPERIMENTS.md).
struct YcsbExperimentConfig {
  int servers = 10;
  int clients = 10;
  int replicationFactor = 0;
  ycsb::WorkloadSpec workload = ycsb::WorkloadSpec::C();

  sim::Duration warmup = sim::seconds(2);
  sim::Duration measure = sim::seconds(8);

  double throttleOpsPerSec = 0;  ///< per-client (Fig. 13)
  sim::Duration clientOverheadPerOp = sim::usec(26);

  std::uint64_t seed = 42;

  /// Shrink the measurement window (tests / --quick benches).
  double timeScale = 1.0;

  /// Transactional YCSB variant (docs/TRANSACTIONS.md): updates become
  /// minitransaction read-modify-writes and `transferProportion` of ops
  /// are two-key transfers over a small account pool placed above the
  /// record range (so plain YCSB writes never tear a transfer pair).
  bool transactional = false;
  double transferProportion = 0.05;
  std::uint64_t transferAccounts = 12;

  /// When non-empty, start the 1 Hz stats sampler alongside the PDUs and
  /// dump metrics.jsonl + series.csv into this directory after the run.
  std::string metricsDir;

  // ----- SLO attribution (docs/SLO.md)

  /// Tenant name for the whole client fleet ("" = SLO tracking off).
  /// Declares "<tenant>/read" and "<tenant>/update" classes with the
  /// targets below before configureYcsb.
  std::string tenant;
  obs::SloTarget readSlo;
  obs::SloTarget updateSlo;

  /// Post-construction hook on the cluster (declare extra SLO classes,
  /// arm fault injectors, ...). Runs before bulkLoad.
  std::function<void(Cluster&)> clusterHook;

  /// Per-client params tweak, forwarded to Cluster::configureYcsb
  /// (fig13's mixed-tenant assignment).
  std::function<void(int, ycsb::YcsbClientParams&)> perClientParams;
};

struct YcsbExperimentResult {
  double throughputOpsPerSec = 0;

  double meanPowerPerServerW = 0;  ///< time-mean of per-node watts
  double clusterPowerW = 0;        ///< sum over server nodes
  double meanCpuPct = 0;           ///< across nodes, mean over window
  double minCpuPct = 0;            ///< min over nodes of per-node mean
  double maxCpuPct = 0;

  double opsPerJoule = 0;         ///< throughput / cluster watts (Fig. 2)
  double opsPerJoulePerNode = 0;  ///< throughput / per-node watts (Fig. 8)

  /// Joules the component model charged to the server fleet over the
  /// measurement window, total and decomposed (cpu/dram/nic/disk/platform
  /// in power::Component order). clusterPowerW == clusterEnergyJ / window.
  double clusterEnergyJ = 0;
  std::array<double, power::kComponentCount> componentEnergyJ{};
  double joulesPerOp = 0;  ///< clusterEnergyJ / opsMeasured

  double readMeanLatencyUs = 0;
  double updateMeanLatencyUs = 0;
  double readP99Us = 0;
  double updateP99Us = 0;

  /// Per-stage RPC latency breakdown from the cluster TimeTrace (whole
  /// run): where an RPC's time goes — dispatch queueing vs. worker service
  /// vs. replication/log-sync wait (Finding 3's contention, made visible).
  double dispatchWaitMeanUs = 0;
  double dispatchWaitP99Us = 0;
  double workerServiceMeanUs = 0;
  double workerServiceP99Us = 0;
  double replicationWaitMeanUs = 0;
  double replicationWaitP99Us = 0;

  std::uint64_t opsMeasured = 0;
  std::uint64_t opFailures = 0;
  std::uint64_t rpcTimeouts = 0;
  /// Client-side RPC re-issues (timeouts, retriable server statuses).
  /// Retries of already-applied writes are suppressed server-side (RIFL)
  /// rather than re-executed.
  std::uint64_t rpcRetries = 0;
  double measuredSeconds = 0;

  /// The run "crashed" in the paper's sense: clients saw failed operations
  /// / excessive timeouts (Fig. 6a's missing 10-server points).
  bool crashed = false;

  /// Minitransaction outcome breakdown over the whole run (cluster.tx.*
  /// counters, summed across masters; zero unless cfg.transactional or a
  /// clusterHook issued transactions).
  std::uint64_t txPrepares = 0;
  std::uint64_t txCommits = 0;
  std::uint64_t txAborts = 0;
  std::uint64_t txConflicts = 0;
  std::uint64_t txOrphansResolved = 0;
  std::uint64_t txTransfers = 0;      ///< committed two-key transfers
  std::uint64_t txClientAborted = 0;  ///< tx ops clients saw abort cleanly
  std::uint64_t txClientUnknown = 0;  ///< outcomes left to orphan resolution

  /// SLO attribution results (populated when cfg declared any class):
  /// every closed window row, plus the breach count across classes.
  std::vector<obs::SloTracker::WindowRow> sloWindows;
  std::uint64_t sloBreachedWindows = 0;

  /// Total energy the paper would have measured for a run serving
  /// `totalRequests` at this throughput and power (Figs. 4b / 6b).
  double energyForRequestsJ(std::uint64_t totalRequests) const {
    if (throughputOpsPerSec <= 0) return 0;
    return static_cast<double>(totalRequests) / throughputOpsPerSec *
           clusterPowerW;
  }
};

/// What measureSteadyState saw of its window.
struct SteadyStateWindow {
  sim::SimTime end = 0;
  double seconds = 0;
  std::uint64_t ops = 0;     ///< client ops completed in the window
  std::uint64_t events = 0;  ///< simulator events executed in the window
  /// Every server's power snapshot at the window start.
  std::vector<node::Node::PowerSnapshot> power;
  std::vector<obs::SloTracker::WindowRow> sloWindows;
  std::uint64_t sloBreachedWindows = 0;

  double opsPerSec() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0;
  }
};

/// The steady-state protocol runYcsbExperiment and runOpenLoopExperiment
/// share, on a cluster whose load is already started: warm up for
/// warmup × timeScale, measure for max(500 ms, measure × timeScale), stop
/// every load generator, close the SLO windows and, when `metricsDir` is
/// set, export the run there. Nothing a driver reads afterwards changes.
SteadyStateWindow measureSteadyState(Cluster& cluster, sim::Duration warmup,
                                     sim::Duration measure, double timeScale,
                                     const std::string& metricsDir);

/// Builds a cluster from the config, loads `workload.recordCount` records,
/// runs the closed loop and returns windowed metrics.
YcsbExperimentResult runYcsbExperiment(const YcsbExperimentConfig& cfg);

/// Convenience used by Table I: per-node CPU% for a given client count
/// without any of the result plumbing.
struct CpuUsageRow {
  double avg = 0;
  double min = 0;
  double max = 0;
};

}  // namespace rc::core
