// Benchmark driver: runs one workload on core::Cluster through its public
// API, at one seed, and prints one JSON object on stdout with host timings,
// exact work counts, modelled guards and correctness checks. perfbench/run.py
// runs it repeatedly, compares the runs and aggregates them.
//
//   rcbench --workload read_closed|update_open|crash_recovery --seed N
//           --out DIR [--trace]
//
// --trace records a span around each call the driver makes into the cluster
// and a counter snapshot at each span boundary; both are kept in memory and
// printed at exit. Without it only the phase timings are taken.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "ycsb/workload.hpp"

namespace rcbench {

using Clock = std::chrono::steady_clock;
using rc::core::Cluster;
namespace sim = rc::sim;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::string outDir;
  bool trace = false;
};

/// Named values in a fixed order; the same order on every read.
using Values = std::vector<std::pair<std::string, double>>;

double valueOf(const Values& v, const std::string& name) {
  for (const auto& [n, x] : v) {
    if (n == name) return x;
  }
  std::fprintf(stderr, "rcbench: no value named %s\n", name.c_str());
  std::exit(2);
}

/// Cumulative work counters, summed over the cluster. Deltas between two
/// reads give the work done in between.
Values readCounters(Cluster& c) {
  double dispatchItems = 0, masterReads = 0, masterWrites = 0;
  double backupWrites = 0, acksDelayed = 0, logAppended = 0;
  double cleanerPasses = 0, relocated = 0, reclaimed = 0;
  double cpuTasks = 0, diskRead = 0, diskWrite = 0;
  for (int i = 0; i < c.serverCount(); ++i) {
    Cluster::Server& s = c.server(i);
    dispatchItems += static_cast<double>(s.dispatch->itemsDispatched());
    masterReads += static_cast<double>(s.master->stats().reads);
    masterWrites += static_cast<double>(s.master->stats().writes);
    backupWrites += static_cast<double>(s.backup->writesServiced());
    acksDelayed += static_cast<double>(s.backup->acksDelayed());
    // Log::appendedBytes() drops by a segment's bytes when the cleaner frees
    // it, so adding back what the cleaner reclaimed gives bytes ever appended.
    const auto& cs = s.master->cleaner().stats();
    logAppended += static_cast<double>(s.master->log().appendedBytes() +
                                       cs.bytesReclaimed);
    cleanerPasses += static_cast<double>(cs.passes);
    relocated += static_cast<double>(cs.bytesRelocated);
    reclaimed += static_cast<double>(cs.bytesReclaimed);
    cpuTasks += static_cast<double>(s.node->cpu().tasksStarted());
    diskRead += static_cast<double>(s.node->disk().bytesRead());
    diskWrite += static_cast<double>(s.node->disk().bytesWritten());
  }
  for (int i = 0; i < c.clientCount(); ++i) {
    cpuTasks += static_cast<double>(c.clientHost(i).node->cpu().tasksStarted());
  }
  const auto& reg = c.metrics();
  auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  return {
      {"sim.events", d(c.sim().eventsExecuted())},
      {"net.messages", d(c.network().messagesSent())},
      {"net.bytes", d(c.network().bytesSent())},
      {"net.rpc_timeouts", d(c.totalRpcTimeouts())},
      {"net.rpc_retries", d(c.totalRpcRetries())},
      {"dispatch.items", dispatchItems},
      {"dispatch.shed", d(c.totalShedRequests())},
      {"master.reads", masterReads},
      {"master.writes", masterWrites},
      {"backup.writes_serviced", backupWrites},
      {"backup.acks_delayed", acksDelayed},
      {"log.appended_bytes", logAppended},
      {"cleaner.passes", cleanerPasses},
      {"cleaner.bytes_relocated", relocated},
      {"cleaner.bytes_reclaimed", reclaimed},
      {"cpu.tasks", cpuTasks},
      {"disk.read_bytes", diskRead},
      {"disk.write_bytes", diskWrite},
      {"client.ops", d(c.totalOpsCompleted())},
      {"client.failures", d(c.totalOpFailures())},
      {"client.rpc_spans", reg.value("cluster.rpc.spans_started")},
      {"obs.trace_spans", reg.value("cluster.journal.spans_started")},
      {"load.arrivals", d(c.totalArrivalsGenerated())},
      {"load.wakeups", d(c.totalGeneratorWakeups())},
      {"load.dropped", d(c.totalSourceDropped())},
  };
}

Values delta(const Values& before, const Values& after) {
  Values out = after;
  for (std::size_t i = 0; i < out.size(); ++i) out[i].second -= before[i].second;
  return out;
}

/// Spans around the driver's calls into the cluster (name, start, end,
/// parent), with a counter snapshot at each span's end. Phase durations are
/// returned whether or not tracing is on; only a traced run keeps spans.
class Tracer {
 public:
  Tracer(bool on, const std::unique_ptr<Cluster>& cluster)
      : on_(on), cluster_(cluster) {}

  template <typename F>
  double span(const std::string& name, F&& body) {
    const auto t0 = Clock::now();
    int self = -1;
    if (on_) {
      self = static_cast<int>(spans_.size());
      spans_.push_back({name, seconds(t0), 0, open_.empty() ? -1 : open_.back()});
      open_.push_back(self);
    }
    body();
    const auto t1 = Clock::now();
    if (on_) {
      open_.pop_back();
      spans_[static_cast<std::size_t>(self)].end = seconds(t1);
      if (cluster_) snapshots_.push_back({self, readCounters(*cluster_)});
    }
    return std::chrono::duration<double>(t1 - t0).count();
  }

  bool on() const { return on_; }

  void print(std::FILE* out) const {
    std::fprintf(out, "\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%s{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d}",
                   i ? ", " : "", s.name.c_str(), s.start, s.end, s.parent);
    }
    std::fprintf(out, "], \"snapshots\": [");
    for (std::size_t i = 0; i < snapshots_.size(); ++i) {
      std::fprintf(out, "%s{\"span\": %d", i ? ", " : "", snapshots_[i].first);
      for (const auto& [n, v] : snapshots_[i].second) {
        std::fprintf(out, ", \"%s\": %.17g", n.c_str(), v);
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "]");
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  double seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  bool on_;
  const std::unique_ptr<Cluster>& cluster_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::pair<int, Values>> snapshots_;
};

double percentileUs(const sim::LatencyDigest* h, double q) {
  return h == nullptr || h->count() == 0
             ? 0.0
             : static_cast<double>(h->percentile(q)) / 1000.0;
}

/// What a workload sets up and how long it runs, in simulated time.
struct Plan {
  int servers = 10;
  int clients = 10;
  std::uint64_t records = 0;
  sim::Duration slice = 0;
  int warmupSlices = 0;
  int runSlices = 0;  ///< 0: run until the recovery finishes
};

Plan planFor(const std::string& workload) {
  if (workload == "read_closed") return {10, 10, 2'000'000, sim::msec(250), 4, 12};
  if (workload == "update_open") return {10, 4, 100'000, sim::msec(250), 12, 32};
  if (workload == "crash_recovery") return {9, 1, 3'000'000, sim::msec(50), 20, 0};
  return {};
}

constexpr int kCrashedServer = 3;
constexpr sim::Duration kRecoveryCap = sim::seconds(120);

int run(const Options& opt) {
  const Plan plan = planFor(opt.workload);
  if (plan.records == 0) {
    std::fprintf(stderr, "rcbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const bool openLoop = opt.workload == "update_open";
  const bool recovery = opt.workload == "crash_recovery";

  std::unique_ptr<Cluster> owner;
  Tracer tr(opt.trace, owner);
  std::vector<std::string> errors;
  std::uint64_t table = 0;

  rc::core::ClusterParams p;
  p.servers = plan.servers;
  p.clients = plan.clients;
  p.replicationFactor = 3;
  p.seed = opt.seed;
  if (openLoop) {
    // Small segments and ~75 % live data keep the cleaner busy.
    p.master.log.segmentBytes = 1024 * 1024;
    p.master.log.capacityBytes = 15ULL * 1024 * 1024;
  }

  const double constructS = tr.span("construct", [&] { owner = std::make_unique<Cluster>(p); });
  Cluster& c = *owner;
  const double bulkLoadS = tr.span("bulkLoad", [&] {
    table = c.createTable("usertable");
    c.bulkLoad(table, plan.records, 1000);
  });
  const double configureS = tr.span("configure", [&] {
    c.startPduSampling();
    c.startStatsSampling();
    if (openLoop) {
      std::vector<rc::load::TrafficSourceParams> sources(4);
      for (auto& s : sources) {
        s.shape.users = 250'000;
        s.shape.opsPerUserPerSec = 0.05;
      }
      c.configureOpenLoop(table, rc::ycsb::WorkloadSpec::A(plan.records), sources);
      c.startTraffic();
    } else if (!recovery) {
      c.configureYcsb(table, rc::ycsb::WorkloadSpec::B(plan.records),
                      rc::ycsb::YcsbClientParams{});
      c.startYcsb();
    }
  });

  auto inFlight = [&c] {
    std::uint64_t n = 0;
    for (int i = 0; i < c.clientCount(); ++i) {
      if (c.clientHost(i).traffic) n += c.clientHost(i).traffic->inFlight();
    }
    return static_cast<double>(n);
  };
  // Open loop: completions keep pace with arrivals when in-flight ops grow
  // by less than 1 % of the arrivals in between. Instantaneous in-flight
  // counts are small and bursty (a cleaner pass briefly queues requests),
  // so growth is judged against the work offered, not against itself.
  auto backlogGrew = [&c, &inFlight](double inFlight0, double arrivals0) {
    const double arrived = static_cast<double>(c.totalArrivalsGenerated()) - arrivals0;
    return inFlight() - inFlight0 > 0.01 * arrived;
  };
  auto slice = [&](const char* name) {
    if (tr.on()) {
      tr.span(name, [&] { c.sim().runFor(plan.slice); });
    } else {
      c.sim().runFor(plan.slice);
    }
  };

  // ----- warm-up: its end must find the system steady.
  std::vector<double> warmOps;
  double midInFlight = 0, midArrivals = 0;
  const double warmupS = tr.span("warmup", [&] {
    for (int i = 0; i < plan.warmupSlices; ++i) {
      if (i == plan.warmupSlices / 2) {
        midInFlight = inFlight();
        midArrivals = static_cast<double>(c.totalArrivalsGenerated());
      }
      const std::uint64_t ops0 = c.totalOpsCompleted();
      slice("runFor");
      warmOps.push_back(static_cast<double>(c.totalOpsCompleted() - ops0));
    }
  });
  if (!recovery) {
    // Closed loop: the last two slices deliver within 5 % of each other.
    const double a = warmOps[warmOps.size() - 2];
    const double b = warmOps.back();
    if (!(a > 0 && std::abs(b - a) <= 0.05 * a)) {
      errors.push_back("warm-up: throughput not steady (" + std::to_string(a) +
                       " then " + std::to_string(b) + " ops per slice)");
    }
  }
  if (openLoop) {
    for (int i = 0; i < c.serverCount(); ++i) {
      if (c.server(i).master->cleaner().stats().passes == 0) {
        errors.push_back("warm-up: master " + std::to_string(i) +
                         " has not run the cleaner");
      }
    }
    if (backlogGrew(midInFlight, midArrivals)) {
      errors.push_back("warm-up: open-loop in-flight ops grew over its second half");
    }
  }

  // ----- measured window.
  const Values before = readCounters(c);
  const double energy0 = c.metrics().value("cluster.energy.total_joules");
  const double startInFlight = inFlight();
  const sim::SimTime simStart = c.sim().now();
  double pendingMax = static_cast<double>(c.sim().pendingEvents());
  std::optional<rc::coordinator::RecoveryRecord> record;
  const double runS = tr.span("run", [&] {
    if (recovery) tr.span("crashServer", [&] { c.crashServer(kCrashedServer); });
    const sim::SimTime cap = c.sim().now() + kRecoveryCap;
    auto more = [&](int i) {
      return recovery ? c.coord().recoveryLog().empty() && c.sim().now() < cap
                      : i < plan.runSlices;
    };
    for (int i = 0; more(i); ++i) {
      slice("runFor");
      pendingMax = std::max(pendingMax, static_cast<double>(c.sim().pendingEvents()));
    }
  });
  if (recovery && !c.coord().recoveryLog().empty()) record = c.coord().recoveryLog().front();
  const Values window = delta(before, readCounters(c));
  const double energy = c.metrics().value("cluster.energy.total_joules") - energy0;
  const double windowSimS = sim::toSeconds(c.sim().now() - simStart);
  if (openLoop && backlogGrew(startInFlight, valueOf(before, "load.arrivals"))) {
    errors.push_back("run: open-loop in-flight ops grew during the window");
  }
  if (recovery && !(record && record->succeeded)) {
    errors.push_back("recovery: coordinator recorded no successful recovery");
  }

  // ----- verification: every preloaded key is readable from its owner.
  std::uint64_t missing = 0;
  const double verifyS = tr.span("verifyAllKeysPresent", [&] {
    if (!c.verifyAllKeysPresent(table, plan.records)) {
      for (std::uint64_t k = 0; k < plan.records; ++k) {
        const auto* m = c.directory().masterOn(c.ownerOfKey(table, k));
        if (m == nullptr || m->objectMap().get(rc::hash::Key{table, k}) == nullptr) {
          ++missing;
        }
      }
    }
  });
  if (missing > 0) {
    errors.push_back("verify: " + std::to_string(missing) + " preloaded keys missing");
  }

  bool exported = false;
  const double exportS = tr.span("exportMetrics", [&] { exported = c.exportMetrics(opt.outDir); });
  if (!exported) errors.push_back("exportMetrics failed for " + opt.outDir);
  double exportBytes = 0;
  std::error_code ec;
  for (const auto& f : std::filesystem::directory_iterator(opt.outDir, ec)) {
    if (f.is_regular_file()) exportBytes += static_cast<double>(f.file_size());
  }

  // ----- end-of-window state and modelled guards.
  double objects = 0, buckets = 0, segments = 0, memory = 0, queueMax = 0;
  for (int i = 0; i < c.serverCount(); ++i) {
    Cluster::Server& s = c.server(i);
    queueMax = std::max(queueMax, static_cast<double>(s.dispatch->maxQueueDepth()));
    if (!c.serverAlive(i)) continue;
    objects += static_cast<double>(s.master->objectMap().size());
    buckets += static_cast<double>(s.master->objectMap().bucketCount());
    segments += static_cast<double>(s.master->log().segmentCount());
    memory += static_cast<double>(s.master->log().memoryInUse());
  }
  sim::LatencyDigest reads, updates;
  for (int i = 0; i < c.clientCount(); ++i) {
    const auto& h = c.clientHost(i);
    if (h.ycsb) {
      reads.merge(h.ycsb->stats().readLatency);
      updates.merge(h.ycsb->stats().updateLatency);
    }
    if (h.traffic) {
      reads.merge(h.traffic->stats().readLatency);
      updates.merge(h.traffic->stats().updateLatency);
    }
  }
  const auto& reg = c.metrics();
  const double ops = valueOf(window, "client.ops");
  const double failures = valueOf(window, "client.failures");
  const double dropped = valueOf(window, "load.dropped");
  const double events = valueOf(window, "sim.events");
  const double arrivals = valueOf(window, "load.arrivals");
  const double attempted = recovery ? static_cast<double>(plan.records)
                                    : ops + failures + dropped;
  const double failed = recovery ? static_cast<double>(missing) : failures + dropped;

  Values counts = window;
  counts.insert(counts.end(), {
      {"ops_attempted", attempted},
      {"ops_failed", failed},
      {"sim.window_s", windowSimS},
      {"sim.pending_max", pendingMax},
      {"dispatch.queue_max", queueMax},
      {"hash.objects", objects},
      {"hash.buckets", buckets},
      {"log.segments", segments},
      {"log.memory_in_use_bytes", memory},
      {"recovery.partitions", record ? static_cast<double>(record->partitions) : 0},
      {"recovery.partition_retries",
       record ? static_cast<double>(record->partitionRetries) : 0},
      {"obs.export_bytes", exportBytes},
  });
  const Values derived = {
      {"sim.events_per_op", ops > 0 ? events / ops : 0},
      {"hash.load_factor", buckets > 0 ? objects / buckets : 0},
      {"cleaner.write_amp",
       valueOf(window, "cleaner.bytes_reclaimed") > 0
           ? valueOf(window, "cleaner.bytes_relocated") /
                 valueOf(window, "cleaner.bytes_reclaimed")
           : 0},
      {"load.wakeups_per_arrival",
       arrivals > 0 ? valueOf(window, "load.wakeups") / arrivals : 0},
  };
  const Values model = {
      {"model.kops", windowSimS > 0 ? ops / windowSimS / 1000.0 : 0},
      {"model.read_p50_us", percentileUs(&reads, 0.50)},
      {"model.read_p99_us", percentileUs(&reads, 0.99)},
      {"model.update_p50_us", percentileUs(&updates, 0.50)},
      {"model.update_p99_us", percentileUs(&updates, 0.99)},
      {"model.stage.dispatch_wait_p99_us",
       percentileUs(reg.histogramAt("cluster.rpc.stage.dispatch_wait"), 0.99)},
      {"model.stage.worker_service_p99_us",
       percentileUs(reg.histogramAt("cluster.rpc.stage.worker_service"), 0.99)},
      {"model.stage.replication_wait_p99_us",
       percentileUs(reg.histogramAt("cluster.rpc.stage.replication_wait"), 0.99)},
      {"model.recovery_s", record ? sim::toSeconds(record->duration()) : 0},
      {"model.energy_j", energy},
      {"model.ops_per_j", energy > 0 ? ops / energy : 0},
  };

  std::FILE* out = stdout;
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"ok\": %s, \"errors\": [",
               opt.workload.c_str(), opt.seed, errors.empty() ? "true" : "false");
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i ? ", " : "", errors[i].c_str());
  }
  std::fprintf(out,
               "], \"timings\": {\"construct_s\": %.9f, \"bulk_load_s\": %.9f, "
               "\"configure_s\": %.9f, \"warmup_s\": %.9f, \"run_s\": %.9f, "
               "\"verify_s\": %.9f, \"export_s\": %.9f}",
               constructS, bulkLoadS, configureS, warmupS, runS, verifyS, exportS);
  const std::pair<const char*, const Values*> groups[] = {
      {"counts", &counts}, {"derived", &derived}, {"model", &model}};
  for (const auto& [name, group] : groups) {
    std::fprintf(out, ", \"%s\": {", name);
    for (std::size_t i = 0; i < group->size(); ++i) {
      std::fprintf(out, "%s\"%s\": %.17g", i ? ", " : "", (*group)[i].first.c_str(),
                   (*group)[i].second);
    }
    std::fprintf(out, "}");
  }
  if (tr.on()) {
    std::fprintf(out, ", \"trace\": {\"run_id\": \"%s-%" PRIu64 "-%ld\", ",
                 opt.workload.c_str(), opt.seed,
                 static_cast<long>(Clock::now().time_since_epoch().count()));
    tr.print(out);
    std::fprintf(out, "}");
  }
  std::fprintf(out, "}\n");
  std::fflush(out);
  return errors.empty() ? 0 : 1;
}

}  // namespace rcbench

int main(int argc, char** argv) {
  rcbench::Options opt;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--workload" && hasValue) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && hasValue) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      haveSeed = end != nullptr && *end == '\0';
    } else if (a == "--out" && hasValue) {
      opt.outDir = argv[++i];
    } else if (a == "--trace") {
      opt.trace = true;
    } else {
      std::fprintf(stderr, "rcbench: unexpected argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || !haveSeed || opt.outDir.empty()) {
    std::fprintf(stderr,
                 "usage: rcbench --workload NAME --seed N --out DIR [--trace]\n");
    return 2;
  }
  return rcbench::run(opt);
}
