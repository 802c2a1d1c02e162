// rcdiag — offline analyzer for a run directory produced with
// --metrics-dir: loads events.jsonl (the cluster's recovery/migration span
// tree) plus metrics.jsonl (1 Hz PDU watt samples) and prints
//
//   timeline  per-node ASCII swimlanes of every recovery's span tree
//   critical  the recovery's critical path (chain of latest-ending children)
//   phases    per-phase time/energy table: each node's PDU samples are
//             partitioned across that node's span intervals (innermost
//             active span wins, remainder -> steady_state), so the phase
//             energies sum to the PDU-integrated total by construction;
//             the span-recorded whole-node model joules are shown alongside
//   tx        minitransaction span summary (prepare/decision phases plus
//             one line per orphan resolution and its outcome)
//   overload  admission-control summary: per-node overload episodes (from
//             overload_enter/exit journal events) + shed/bounce/deferral
//             counters from metrics.jsonl (docs/OVERLOAD.md)
//   qos       per-tenant dispatch token-bucket summary: offered/admitted/
//             throttled/episodes per tenant and per throttling node
//             (docs/WORKLOADS.md)
//   check     schema validation of events/metrics and, when present, slo
//             and flight exports; exits non-zero on any violation
//   report    timeline + critical + phases + tx + overload + qos (default);
//             a run without journal spans gets only overload + qos
//
// Only the span views (timeline, critical, phases, tx) need spans; a run
// directory needs spans or metric records to be read at all.
//
// Span semantics and the energy-attribution method are documented in
// docs/TRACING.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/event_journal.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics_exporter.hpp"
#include "sim/time.hpp"

namespace {

namespace jsonl = rc::obs::jsonl;
using rc::obs::EventJournal;
using rc::obs::MetricsExporter;
using Span = EventJournal::Span;

struct RunData {
  std::vector<Span> spans;
  /// metrics.jsonl, parsed once for every subcommand (optional file), and
  /// its final counter/gauge values by name.
  std::vector<MetricsExporter::Record> metrics;
  std::map<std::string, double> counters;
  std::size_t malformed = 0;  ///< lines of both files that failed to parse
  /// node id -> 1 Hz PDU samples (t seconds, watts); sample at t covers
  /// [t - interval, t).
  std::map<int, std::vector<std::pair<double, double>>> pdu;
  double pduIntervalS = 1.0;
};

double t0s(const Span& s) { return rc::sim::toSeconds(s.begin); }
double t1s(const Span& s) {
  return rc::sim::toSeconds(s.open ? s.begin : s.end);
}

/// True if `name` is a per-node metric "node<N><suffix>".
bool isNodeMetric(const std::string& name, const std::string& suffix) {
  return name.rfind("node", 0) == 0 && name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The readers skip malformed lines; say so rather than hide them.
std::size_t warnMalformed(const std::string& path, std::size_t n) {
  if (n > 0) {
    std::fprintf(stderr, "rcdiag: %zu malformed line(s) in %s skipped\n", n,
                 path.c_str());
  }
  return n;
}

/// Both files are optional (a run without recoveries or faults journals no
/// spans; PDU-less energy columns degrade gracefully), but not both empty.
bool loadRun(const std::string& dir, RunData* out) {
  std::size_t bad = 0;
  out->spans = EventJournal::readJsonl(dir + "/events.jsonl", &bad);
  out->malformed = warnMalformed(dir + "/events.jsonl", bad);
  out->metrics = MetricsExporter::readJsonl(dir + "/metrics.jsonl", &bad);
  out->malformed += warnMalformed(dir + "/metrics.jsonl", bad);
  for (const auto& rec : out->metrics) {
    if (rec.type == "counter" || rec.type == "gauge") {
      out->counters[rec.name] = rec.value;
    } else if (rec.type == "point" && isNodeMetric(rec.name, ".pdu.watts")) {
      out->pdu[std::atoi(rec.name.c_str() + 4)].emplace_back(rec.t, rec.value);
    }
  }
  for (auto& [node, samples] : out->pdu) {
    std::sort(samples.begin(), samples.end());
  }
  if (out->spans.empty() && out->metrics.empty()) {
    std::fprintf(stderr, "rcdiag: no spans or metric records in %s\n",
                 dir.c_str());
    return false;
  }
  return true;
}

std::vector<const Span*> recoveryRoots(const RunData& run) {
  std::vector<const Span*> roots;
  for (const Span& s : run.spans) {
    if (s.name == "recovery") roots.push_back(&s);
  }
  return roots;
}

/// All spans belonging to one recovery: same ctx, plus cross-node children
/// reachable by parent link (segment_read spans carry the ctx already).
std::vector<const Span*> spansOfRecovery(const RunData& run,
                                         const Span& root) {
  std::vector<const Span*> out;
  for (const Span& s : run.spans) {
    if (s.ctx == root.ctx && s.ctx != 0) out.push_back(&s);
  }
  return out;
}

// ----------------------------------------------------------------- timeline

void printTimeline(const RunData& run) {
  const auto roots = recoveryRoots(run);
  if (roots.empty()) {
    std::puts("timeline: no recovery spans in journal");
    return;
  }
  constexpr int kCols = 64;
  for (const Span* root : roots) {
    const auto spans = spansOfRecovery(run, *root);
    const double w0 = t0s(*root);
    double w1 = t1s(*root);
    for (const Span* s : spans) w1 = std::max(w1, t1s(*s));
    const double width = std::max(w1 - w0, 1e-9);

    std::printf("recovery #%llu  [%.3fs .. %.3fs]  (%.3fs, %zu spans)%s\n",
                static_cast<unsigned long long>(root->ctx), w0, w1, w1 - w0,
                spans.size(), root->abandoned ? "  FAILED" : "");
    std::map<int, std::vector<const Span*>> byNode;
    for (const Span* s : spans) byNode[s->node].push_back(s);
    for (auto& [node, list] : byNode) {
      std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
        return a->begin != b->begin ? a->begin < b->begin : a->id < b->id;
      });
      std::printf("  node %-3d\n", node);
      for (const Span* s : list) {
        const double a = std::clamp((t0s(*s) - w0) / width, 0.0, 1.0);
        const double b = std::clamp((t1s(*s) - w0) / width, 0.0, 1.0);
        int x0 = static_cast<int>(a * kCols);
        int x1 = std::max(x0 + 1, static_cast<int>(b * kCols + 0.5));
        x1 = std::min(x1, kCols);
        std::string bar(static_cast<std::size_t>(kCols), ' ');
        for (int i = x0; i < x1; ++i) {
          bar[static_cast<std::size_t>(i)] = s->open ? '?' : '#';
        }
        std::printf("    %-20s |%s| %8.3fs%s\n",
                    s->name.size() > 20 ? s->name.substr(0, 20).c_str()
                                        : s->name.c_str(),
                    bar.c_str(), t1s(*s) - t0s(*s),
                    s->abandoned ? " (abandoned)" : "");
      }
    }
    std::puts("");
  }
}

// ------------------------------------------------------------ tx spans

/// Minitransaction spans (docs/TRANSACTIONS.md): tx_prepare / tx_commit /
/// tx_abort on participant masters and tx_resolution on the coordinator,
/// all carrying ctx = txId. Prints a per-phase summary plus one line per
/// resolution (the interesting ones: orphaned transactions being driven
/// to an outcome).
void printTxSummary(const RunData& run) {
  struct Agg {
    std::uint64_t n = 0;
    std::uint64_t abandoned = 0;
    double sumS = 0;
    double maxS = 0;
  };
  std::map<std::string, Agg> byName;
  std::vector<const Span*> resolutions;
  for (const Span& s : run.spans) {
    if (s.name != "tx_prepare" && s.name != "tx_commit" &&
        s.name != "tx_abort" && s.name != "tx_resolution") {
      continue;
    }
    Agg& a = byName[s.name];
    ++a.n;
    if (s.abandoned) ++a.abandoned;
    const double d = t1s(s) - t0s(s);
    a.sumS += d;
    a.maxS = std::max(a.maxS, d);
    if (s.name == "tx_resolution") resolutions.push_back(&s);
  }
  if (byName.empty()) {
    std::puts("tx: no transaction spans in journal");
    return;
  }
  std::printf("tx spans:\n%-16s %8s %10s %10s %10s\n", "phase", "count",
              "mean_ms", "max_ms", "abandoned");
  for (const auto& [name, a] : byName) {
    std::printf("%-16s %8llu %10.3f %10.3f %10llu\n", name.c_str(),
                static_cast<unsigned long long>(a.n),
                a.n > 0 ? 1e3 * a.sumS / static_cast<double>(a.n) : 0.0,
                1e3 * a.maxS, static_cast<unsigned long long>(a.abandoned));
  }
  if (!resolutions.empty()) {
    std::puts("orphan resolutions (count: 1 = committed, 0 = aborted):");
    for (const Span* s : resolutions) {
      std::printf("  tx %-12llu node %-3d [%.3fs .. %.3fs]  %s\n",
                  static_cast<unsigned long long>(s->ctx), s->node, t0s(*s),
                  t1s(*s),
                  s->abandoned ? "abandoned"
                  : s->open    ? "open"
                  : s->count   ? "committed"
                               : "aborted");
    }
  }
  std::puts("");
}

// ------------------------------------------------------------- overload

/// Admission-control summary (docs/OVERLOAD.md): per-node overload
/// episodes reconstructed from the journal's overload_enter/overload_exit
/// instant events, plus the final shed/bounce/deferral counters from
/// metrics.jsonl. Quiet runs print a single all-clear line.
void printOverload(const RunData& run) {
  // Pair enter/exit events per node, in time order (spans_ is begin-ordered
  // so a linear scan suffices).
  struct NodeOverload {
    int episodes = 0;
    double overloadedS = 0;
    double openSince = -1;  ///< -1 = not currently overloaded
  };
  std::map<int, NodeOverload> byNode;
  double lastT = 0;
  int surges = 0;
  for (const Span& s : run.spans) {
    lastT = std::max(lastT, t1s(s));
    if (s.name == "fault_load_surge") ++surges;
    if (s.name == "overload_enter") {
      NodeOverload& n = byNode[s.node];
      if (n.openSince < 0) {
        ++n.episodes;
        n.openSince = t0s(s);
      }
    } else if (s.name == "overload_exit") {
      NodeOverload& n = byNode[s.node];
      if (n.openSince >= 0) {
        n.overloadedS += t0s(s) - n.openSince;
        n.openSince = -1;
      }
    }
  }
  for (auto& [node, n] : byNode) {
    if (n.openSince >= 0) {  // still overloaded at end of run
      n.overloadedS += lastT - n.openSince;
      n.openSince = -1;
    }
  }

  // Final counter values (cumulative; the exporter writes them once).
  auto counter = [&run](const std::string& name) {
    const auto it = run.counters.find(name);
    return it == run.counters.end() ? 0.0 : it->second;
  };
  const double shed = counter("cluster.shed_requests");
  const double bounced = counter("net.rpc.overloaded.total");
  const double brownouts = counter("slo.exemplar_brownouts");

  if (byNode.empty() && shed == 0 && bounced == 0 && surges == 0) {
    std::puts("overload: no shedding — no server entered overload\n");
    return;
  }

  std::printf("overload summary (%d load-surge injections)\n", surges);
  std::printf("  cluster: shed %.0f requests, %.0f client bounces, "
              "%.0f exemplar brownouts\n", shed, bounced, brownouts);
  std::printf("  %-5s %9s %12s %10s %10s %10s %10s %10s\n", "node",
              "episodes", "overloaded_s", "shed", "reads", "writes",
              "cln_defer", "rep_defer");
  // Per-node rows: every node with an episode or a non-zero shed counter.
  std::set<int> nodes;
  for (const auto& [node, n] : byNode) nodes.insert(node);
  for (const auto& [name, v] : run.counters) {
    if (v > 0 && isNodeMetric(name, ".dispatch.shed.total")) {
      nodes.insert(std::atoi(name.c_str() + 4));
    }
  }
  for (int node : nodes) {
    const std::string p = "node" + std::to_string(node);
    const auto it = byNode.find(node);
    std::printf("  %-5d %9d %12.3f %10.0f %10.0f %10.0f %10.0f %10.0f\n",
                node, it != byNode.end() ? it->second.episodes : 0,
                it != byNode.end() ? it->second.overloadedS : 0.0,
                counter(p + ".dispatch.shed.total"),
                counter(p + ".dispatch.shed.reads"),
                counter(p + ".dispatch.shed.writes"),
                counter(p + ".master.cleaner_deferrals"),
                counter(p + ".master.replication.repairs_deferred"));
  }
  std::puts("");
}

// ------------------------------------------------------------------- qos

/// Per-tenant QoS summary (docs/WORKLOADS.md): the dispatch token-bucket
/// counters node<N>.dispatch.qos.<tenant>.{offered,admitted,throttled,
/// episodes} from metrics.jsonl, rolled up per tenant and per node, plus
/// the journal's qos_throttle episode markers. Runs without QoS policies
/// print a single all-clear line.
void printTenantQos(const RunData& run) {
  struct QosAgg {
    double offered = 0;
    double admitted = 0;
    double throttled = 0;
    double episodes = 0;
  };
  // (tenant, node) -> counters; node -1 aggregates the tenant.
  std::map<std::pair<std::string, int>, QosAgg> agg;
  for (const auto& [name, value] : run.counters) {
    if (name.rfind("node", 0) != 0) continue;
    const auto qat = name.find(".dispatch.qos.");
    if (qat == std::string::npos) continue;
    const int node = std::atoi(name.c_str() + 4);
    const auto from = qat + std::strlen(".dispatch.qos.");
    const auto dot = name.rfind('.');
    if (dot == std::string::npos || dot <= from) continue;
    const std::string tenant = name.substr(from, dot - from);
    const std::string which = name.substr(dot + 1);
    for (auto* a : {&agg[{tenant, node}], &agg[{tenant, -1}]}) {
      if (which == "offered") a->offered += value;
      else if (which == "admitted") a->admitted += value;
      else if (which == "throttled") a->throttled += value;
      else if (which == "episodes") a->episodes += value;
    }
  }
  if (agg.empty()) {
    std::puts("qos: no per-tenant dispatch policies in this run\n");
    return;
  }
  int markers = 0;
  for (const Span& s : run.spans) {
    if (s.name == "qos_throttle") ++markers;
  }
  std::printf("per-tenant QoS (dispatch token buckets; %d throttle-episode "
              "journal markers)\n", markers);
  std::printf("  %-16s %-5s %10s %10s %10s %9s %8s\n", "tenant", "node",
              "offered", "admitted", "throttled", "episodes", "thr%");
  for (const auto& [key, a] : agg) {
    const auto& [tenant, node] = key;
    if (node != -1) continue;  // tenant rollups first
    std::printf("  %-16s %-5s %10.0f %10.0f %10.0f %9.0f %7.1f%%\n",
                tenant.c_str(), "all", a.offered, a.admitted, a.throttled,
                a.episodes,
                a.offered > 0 ? 100.0 * a.throttled / a.offered : 0.0);
  }
  for (const auto& [key, a] : agg) {
    const auto& [tenant, node] = key;
    if (node == -1 || a.throttled <= 0) continue;  // throttling nodes only
    std::printf("  %-16s %-5d %10.0f %10.0f %10.0f %9.0f %7.1f%%\n",
                tenant.c_str(), node, a.offered, a.admitted, a.throttled,
                a.episodes,
                a.offered > 0 ? 100.0 * a.throttled / a.offered : 0.0);
  }
  std::puts("");
}

// ------------------------------------------------------------ critical path

void printCriticalPath(const RunData& run) {
  const auto roots = recoveryRoots(run);
  if (roots.empty()) {
    std::puts("critical: no recovery spans in journal");
    return;
  }
  for (const Span* root : roots) {
    std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& s : run.spans) {
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
    std::printf("critical path of recovery #%llu (total %.3fs):\n",
                static_cast<unsigned long long>(root->ctx),
                t1s(*root) - t0s(*root));
    const Span* cur = root;
    int depth = 0;
    while (cur != nullptr) {
      std::printf("  %*s%-20s node %-3d [%.3fs .. %.3fs]  %.3fs\n", depth * 2,
                  "", cur->name.c_str(), cur->node, t0s(*cur), t1s(*cur),
                  t1s(*cur) - t0s(*cur));
      // Descend into the latest-ending child: the phase that gated this
      // span's completion.
      const Span* next = nullptr;
      auto it = children.find(cur->id);
      if (it != children.end()) {
        for (const Span* c : it->second) {
          if (next == nullptr || t1s(*c) > t1s(*next)) next = c;
        }
      }
      cur = next;
      ++depth;
    }
    std::puts("");
  }
}

// ----------------------------------------------------------- energy/phases

struct PhaseRow {
  std::uint64_t spans = 0;
  double busyS = 0;    ///< sum of span durations (may overlap)
  double modelJ = 0;   ///< span-recorded whole-node model joules
  double pduJ = 0;     ///< non-overlapping PDU-sample attribution
  std::uint64_t bytes = 0;
};

/// Attribute one node's PDU energy over [winA, winB) to the innermost
/// active span's phase; un-covered time goes to "steady_state".
void attributeNode(const RunData& run, int node, double winA, double winB,
                   std::map<std::string, PhaseRow>* rows) {
  auto pit = run.pdu.find(node);
  if (pit == run.pdu.end()) return;

  std::vector<const Span*> nodeSpans;
  for (const Span& s : run.spans) {
    if (s.node == node && !s.open && t1s(s) > t0s(s)) nodeSpans.push_back(&s);
  }

  double prev = pit->second.empty()
                    ? 0.0
                    : pit->second.front().first - run.pduIntervalS;
  for (const auto& [t, watts] : pit->second) {
    // Sample at t covers (prev, t] — the *actual* inter-sample gap, not
    // the nominal interval: the final stop() sample may cover a fraction
    // of a second. Clip the coverage to the window (the window totals use
    // the same gaps, so per-phase attribution sums to the window total).
    const double a = std::max(prev, winA);
    const double b = std::min(t, winB);
    prev = t;
    if (b <= a) continue;

    // Split the interval at span boundaries.
    std::vector<double> cuts{a, b};
    for (const Span* s : nodeSpans) {
      if (t0s(*s) > a && t0s(*s) < b) cuts.push_back(t0s(*s));
      if (t1s(*s) > a && t1s(*s) < b) cuts.push_back(t1s(*s));
    }
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const double x = cuts[i];
      const double y = cuts[i + 1];
      if (y - x <= 0) continue;
      const double mid = (x + y) / 2;
      // Innermost active span: latest begin wins (ties -> later id).
      const Span* inner = nullptr;
      for (const Span* s : nodeSpans) {
        if (t0s(*s) <= mid && mid < t1s(*s)) {
          if (inner == nullptr || s->begin > inner->begin ||
              (s->begin == inner->begin && s->id > inner->id)) {
            inner = s;
          }
        }
      }
      const std::string phase = inner != nullptr ? inner->name : "steady_state";
      (*rows)[phase].pduJ += watts * (y - x);
    }
  }
}

void printPhases(const RunData& run) {
  const auto roots = recoveryRoots(run);
  if (roots.empty()) {
    std::puts("phases: no recovery spans in journal");
    return;
  }
  for (const Span* root : roots) {
    const auto spans = spansOfRecovery(run, *root);
    const double w0 = t0s(*root);
    double w1 = t1s(*root);
    for (const Span* s : spans) w1 = std::max(w1, t1s(*s));

    std::map<std::string, PhaseRow> rows;
    std::set<int> nodes;
    for (const Span* s : spans) {
      PhaseRow& r = rows[s->name];
      ++r.spans;
      r.busyS += t1s(*s) - t0s(*s);
      r.modelJ += s->joules;
      r.bytes += s->bytes;
      nodes.insert(s->node);
    }
    double pduTotal = 0;
    for (const auto& [node, samples] : run.pdu) {
      double prev =
          samples.empty() ? 0.0 : samples.front().first - run.pduIntervalS;
      for (const auto& [t, watts] : samples) {
        const double overlap = std::min(t, w1) - std::max(prev, w0);
        prev = t;
        if (overlap > 0) pduTotal += watts * overlap;
      }
      attributeNode(run, node, w0, w1, &rows);
    }

    std::printf(
        "recovery #%llu  window [%.3fs .. %.3fs]  %zu nodes  "
        "pdu_total=%.1fJ\n",
        static_cast<unsigned long long>(root->ctx), w0, w1, nodes.size(),
        pduTotal);
    std::printf("  %-20s %6s %10s %12s %12s %12s\n", "phase", "spans",
                "busy_s", "bytes", "model_J", "pdu_J");
    double pduSum = 0;
    for (const auto& [phase, r] : rows) {
      std::printf("  %-20s %6llu %10.3f %12llu %12.1f %12.1f\n", phase.c_str(),
                  static_cast<unsigned long long>(r.spans), r.busyS,
                  static_cast<unsigned long long>(r.bytes), r.modelJ, r.pduJ);
      pduSum += r.pduJ;
    }
    const double delta =
        pduTotal > 0 ? 100.0 * (pduSum - pduTotal) / pduTotal : 0.0;
    std::printf("  %-20s %6s %10s %12s %12s %12.1f  (delta %.2f%%)\n", "SUM",
                "", "", "", "", pduSum, delta);
    std::puts("");
  }
}

// --------------------------------------------------------------------- slo

struct SloWindow {
  std::uint64_t window = 0;
  double t0 = 0, t1 = 0;  ///< seconds
  std::string cls;
  std::uint64_t count = 0;
  double p50 = 0, p99 = 0, p999 = 0;      ///< us
  double targetP99 = 0, targetP999 = 0;   ///< us
  double burn = 0;
  bool breached = false;
};

struct SloExemplar {
  std::uint64_t window = 0;
  std::string cls;
  int rank = 0;
  std::uint64_t span = 0;
  int node = -1;
  double us = 0;
};

struct SloStage {
  std::uint64_t span = 0;
  int seq = 0;
  std::string stage;
  double us = 0;
  int depth = -1;
  int node = -1;
};

int sloCmd(const std::string& dir) {
  std::vector<SloWindow> windows;
  std::vector<SloExemplar> exemplars;
  std::vector<SloStage> stages;
  const std::string path = dir + "/slo.jsonl";
  const auto bad = jsonl::readFile(path, [&](const jsonl::Record& r) {
    if (r.type() == "slo_window") {
      windows.push_back(
          {.window = r.num<std::uint64_t>("window"),
           .t0 = r.num("t0_us") / 1e6, .t1 = r.num("t1_us") / 1e6,
           .cls = r.str("class"), .count = r.num<std::uint64_t>("count"),
           .p50 = r.num("p50_us"), .p99 = r.num("p99_us"),
           .p999 = r.num("p999_us"), .targetP99 = r.num("target_p99_us"),
           .targetP999 = r.num("target_p999_us"),
           .burn = r.num("burn_rate"), .breached = r.num("breached", false)});
    } else if (r.type() == "exemplar") {
      exemplars.push_back(
          {.window = r.num<std::uint64_t>("window"), .cls = r.str("class"),
           .rank = r.num("rank", 0), .span = r.num<std::uint64_t>("span"),
           .node = r.num("node", -1), .us = r.num("us")});
    } else if (r.type() == "exemplar_stage") {
      stages.push_back({.span = r.num<std::uint64_t>("span"),
                        .seq = r.num("seq", 0), .stage = r.str("stage"),
                        .us = r.num("us"), .depth = r.num("depth", -1),
                        .node = r.num("node", -1)});
    }
  });
  if (!bad) {
    std::fprintf(stderr, "rcdiag: no slo.jsonl in %s (SLO tracking off?)\n",
                 dir.c_str());
    return 1;
  }
  warnMalformed(path, *bad);
  if (windows.empty()) {
    std::fprintf(stderr, "rcdiag: slo.jsonl has no slo_window lines\n");
    return 1;
  }

  // ---- per-class SLO table
  struct ClassAgg {
    std::uint64_t windows = 0, breached = 0, requests = 0;
    double worstBurn = 0;
    std::uint64_t worstWindow = 0;
  };
  std::map<std::string, ClassAgg> byClass;
  for (const SloWindow& w : windows) {
    ClassAgg& a = byClass[w.cls];
    ++a.windows;
    a.requests += w.count;
    if (w.breached) ++a.breached;
    if (w.burn > a.worstBurn) {
      a.worstBurn = w.burn;
      a.worstWindow = w.window;
    }
  }
  std::printf("SLO summary (%zu windows, %zu classes)\n", windows.size(),
              byClass.size());
  std::printf("  %-24s %8s %9s %10s %11s\n", "class", "windows", "breached",
              "requests", "worst_burn");
  for (const auto& [cls, a] : byClass) {
    std::printf("  %-24s %8llu %9llu %10llu %11.2f%s\n", cls.c_str(),
                static_cast<unsigned long long>(a.windows),
                static_cast<unsigned long long>(a.breached),
                static_cast<unsigned long long>(a.requests), a.worstBurn,
                a.breached > 0 ? "  BREACHED" : "");
  }

  // ---- burn-rate timeline: one char per window per class.
  //   '.' burn < 0.5   '+' [0.5, 1)   'X' >= 1 (breached)
  std::uint64_t wMin = windows.front().window;
  std::uint64_t wMax = windows.front().window;
  for (const SloWindow& w : windows) {
    wMin = std::min(wMin, w.window);
    wMax = std::max(wMax, w.window);
  }
  std::printf("\nburn-rate timeline (windows %llu..%llu; . <0.5, + <1, X "
              "breached, ' ' idle)\n",
              static_cast<unsigned long long>(wMin),
              static_cast<unsigned long long>(wMax));
  for (const auto& [cls, a] : byClass) {
    std::string bar(static_cast<std::size_t>(wMax - wMin + 1), ' ');
    for (const SloWindow& w : windows) {
      if (w.cls != cls) continue;
      bar[static_cast<std::size_t>(w.window - wMin)] =
          w.breached ? 'X' : (w.burn >= 0.5 ? '+' : '.');
    }
    std::printf("  %-24s |%s|\n", cls.c_str(), bar.c_str());
  }

  // ---- breached windows, slowest exemplar of each with its waterfall.
  std::puts("");
  bool anyBreach = false;
  for (const SloWindow& w : windows) {
    if (!w.breached) continue;
    anyBreach = true;
    std::printf(
        "breached window %llu [%.3fs..%.3fs] class %s: count=%llu "
        "p99=%.1fus (target %.1fus) p999=%.1fus (target %.1fus) burn=%.2f\n",
        static_cast<unsigned long long>(w.window), w.t0, w.t1, w.cls.c_str(),
        static_cast<unsigned long long>(w.count), w.p99, w.targetP99, w.p999,
        w.targetP999, w.burn);
    for (const SloExemplar& e : exemplars) {
      if (e.window != w.window || e.cls != w.cls) continue;
      std::printf("  exemplar #%d  span %llu  node %d  %.3fus\n", e.rank,
                  static_cast<unsigned long long>(e.span), e.node, e.us);
      // Waterfall: the span's stages in stamp order, bar-scaled to the
      // exemplar total; their sum must equal the span duration (the
      // exemplar-sum acceptance check in bench_fig05 asserts <1us slack).
      double sum = 0;
      for (const SloStage& s : stages) {
        if (s.span != e.span) continue;
        sum += s.us;
        const int bars =
            e.us > 0 ? static_cast<int>(32.0 * s.us / e.us + 0.5) : 0;
        std::printf("    %-18s %10.3fus  depth=%-3d node=%-3d |%s\n",
                    s.stage.c_str(), s.us, s.depth, s.node,
                    std::string(static_cast<std::size_t>(bars), '#').c_str());
      }
      if (sum > 0) {
        std::printf("    %-18s %10.3fus  (vs span %.3fus, delta %.3fus)\n",
                    "SUM", sum, e.us, e.us - sum);
      }
    }
  }
  if (!anyBreach) std::puts("no breached windows — all SLOs held");
  return 0;
}

// ------------------------------------------------------------------ energy

constexpr const char* kComponents[] = {"cpu", "dram", "nic", "disk",
                                       "platform"};
constexpr std::size_t kNumComponents = 5;

struct EnergyNode {
  int node = -1;
  double seconds = 0;
  double comp[kNumComponents] = {};
  double totalJ = 0;
  double pduJ = 0;
  double meanW = 0;
};

struct EnergyCell {
  int node = -1;
  std::string component;
  std::string cls;
  int tenant = 0;
  double joules = 0;
};

struct EnergyTenant {
  std::string cls;
  double joules = 0;
  std::uint64_t ops = 0;
  double jPerOp = 0;
  double opsPerJ = 0;
};

struct EnergyData {
  std::vector<EnergyNode> nodes;
  std::vector<EnergyCell> cells;  ///< includes remainders as class
                                  ///< "unattributed" rows from the ledger
  std::map<std::pair<int, std::string>, double> remainders;
  std::vector<EnergyTenant> tenants;
  double clusterJ = 0;
  std::uint64_t clusterOps = 0;
  double clusterOpsPerJ = 0;
  /// component -> per-tick (t, cluster watts) from the sampler's
  /// node<N>.energy.<comp>.joules.rate series.
  std::map<std::string, std::map<double, double>> wattsTimeline;
  /// per-tick cluster ops/s (cluster.client.ops.rate).
  std::map<double, double> opsTimeline;
  std::size_t malformed = 0;  ///< energy.jsonl lines that failed to parse
};

bool loadEnergy(const std::string& dir, EnergyData* out) {
  const std::string path = dir + "/energy.jsonl";
  const auto bad = jsonl::readFile(path, [&](const jsonl::Record& r) {
    if (r.type() == "energy_node") {
      EnergyNode& n = out->nodes.emplace_back(EnergyNode{
          .node = r.num("node", -1), .seconds = r.num("seconds"),
          .totalJ = r.num("total_j"), .pduJ = r.num("pdu_j"),
          .meanW = r.num("mean_w")});
      for (std::size_t c = 0; c < kNumComponents; ++c) {
        n.comp[c] = r.num(std::string(kComponents[c]) + "_j");
      }
    } else if (r.type() == "energy_cell") {
      out->cells.push_back({.node = r.num("node", -1),
                            .component = r.str("component"),
                            .cls = r.str("class"), .tenant = r.num("tenant", 0),
                            .joules = r.num("joules")});
    } else if (r.type() == "energy_remainder") {
      out->remainders[{r.num("node", -1), r.str("component")}] =
          r.num("joules");
    } else if (r.type() == "energy_tenant") {
      out->tenants.push_back(
          {.cls = r.str("class"), .joules = r.num("joules"),
           .ops = r.num<std::uint64_t>("ops"), .jPerOp = r.num("j_per_op"),
           .opsPerJ = r.num("ops_per_j")});
    } else if (r.type() == "energy_cluster") {
      out->clusterJ = r.num("total_j");
      out->clusterOps = r.num<std::uint64_t>("ops");
      out->clusterOpsPerJ = r.num("ops_per_j");
    }
  });
  if (!bad) {
    std::fprintf(stderr, "rcdiag: no energy.jsonl in %s\n", dir.c_str());
    return false;
  }
  out->malformed = warnMalformed(path, *bad);
  if (out->nodes.empty()) {
    std::fprintf(stderr, "rcdiag: energy.jsonl has no energy_node lines\n");
    return false;
  }

  // Optional timelines from the 1 Hz sampler (metrics.jsonl points): the
  // cumulative joules counters become watt series via their .rate form.
  std::size_t badMetrics = 0;
  const auto metrics =
      MetricsExporter::readJsonl(dir + "/metrics.jsonl", &badMetrics);
  warnMalformed(dir + "/metrics.jsonl", badMetrics);
  for (const auto& rec : metrics) {
    if (rec.type != "point") continue;
    if (rec.name == "cluster.client.ops.rate") {
      out->opsTimeline[rec.t] += rec.value;
      continue;
    }
    for (std::size_t c = 0; c < kNumComponents; ++c) {
      if (isNodeMetric(rec.name, std::string(".energy.") + kComponents[c] +
                                     ".joules.rate")) {
        out->wattsTimeline[kComponents[c]][rec.t] += rec.value;
        break;
      }
    }
  }
  return true;
}

/// Reconciliation gate: every PDU-sampled node's attributed component sum
/// must match the sampled total within 0.1 % (docs/ENERGY.md). Returns the
/// number of violations.
int checkEnergy(const EnergyData& e, bool verbose) {
  int violations = static_cast<int>(e.malformed);  // loadEnergy reported them
  for (const EnergyNode& n : e.nodes) {
    if (n.pduJ <= 0) continue;  // PDU never sampled this node
    const double delta = std::abs(n.totalJ - n.pduJ) / n.pduJ;
    if (delta > 0.001) {
      std::fprintf(stderr,
                   "energy check: node %d component sum %.3f J vs PDU "
                   "%.3f J (%.4f%% > 0.1%%)\n",
                   n.node, n.totalJ, n.pduJ, 100.0 * delta);
      ++violations;
    }
    double sum = 0;
    for (std::size_t c = 0; c < kNumComponents; ++c) sum += n.comp[c];
    if (std::abs(sum - n.totalJ) > 1e-3 * std::max(1.0, n.totalJ)) {
      std::fprintf(stderr,
                   "energy check: node %d components sum %.3f J != "
                   "total_j %.3f J\n",
                   n.node, sum, n.totalJ);
      ++violations;
    }
  }
  // Ledger cells must not exceed their node's dynamic component energy
  // (cells are cumulative from t=0, a superset of the PDU window, so only
  // sanity-check non-negativity here).
  for (const EnergyCell& c : e.cells) {
    if (c.joules < 0) {
      std::fprintf(stderr, "energy check: negative cell (node %d %s/%s)\n",
                   c.node, c.component.c_str(), c.cls.c_str());
      ++violations;
    }
  }
  if (violations == 0 && verbose) {
    std::printf("energy check: OK (%zu nodes, %zu cells reconcile)\n",
                e.nodes.size(), e.cells.size());
  }
  return violations;
}

void printEnergy(const EnergyData& e) {
  // ---- per-node component table with the reconciliation column
  std::printf("per-node energy (J) over the PDU window\n");
  std::printf("  %-5s %9s %9s %9s %9s %9s %10s %10s %8s %7s\n", "node", "cpu",
              "dram", "nic", "disk", "platform", "total", "pdu", "delta%",
              "watts");
  for (const EnergyNode& n : e.nodes) {
    const double delta =
        n.pduJ > 0 ? 100.0 * (n.totalJ - n.pduJ) / n.pduJ : 0.0;
    std::printf(
        "  %-5d %9.1f %9.1f %9.1f %9.1f %9.1f %10.1f %10.1f %8.4f %7.1f\n",
        n.node, n.comp[0], n.comp[1], n.comp[2], n.comp[3], n.comp[4],
        n.totalJ, n.pduJ, delta, n.meanW);
  }

  // ---- per-op-class attribution (dynamic joules from the ledger cells,
  // aggregated across nodes/components/tenants; remainder rows appended)
  std::map<std::string, double> byClass;
  for (const EnergyCell& c : e.cells) byClass[c.cls] += c.joules;
  double remJ = 0;
  for (const auto& [key, j] : e.remainders) remJ += j;
  if (remJ > 0) byClass["unattributed"] += remJ;
  double dynTotal = 0;
  for (const auto& [cls, j] : byClass) dynTotal += j;
  if (!byClass.empty()) {
    std::printf("\ndynamic energy by op class (ledger, whole run)\n");
    std::printf("  %-14s %12s %7s\n", "class", "joules", "share");
    for (const auto& [cls, j] : byClass) {
      std::printf("  %-14s %12.2f %6.1f%%\n", cls.c_str(), j,
                  dynTotal > 0 ? 100.0 * j / dynTotal : 0.0);
    }
  }

  // ---- per-tenant joules/op
  if (!e.tenants.empty()) {
    std::printf("\nper-tenant efficiency\n");
    std::printf("  %-24s %12s %10s %12s %10s\n", "class", "joules", "ops",
                "j/op", "ops/J");
    for (const EnergyTenant& t : e.tenants) {
      std::printf("  %-24s %12.2f %10llu %12.6f %10.1f\n", t.cls.c_str(),
                  t.joules, static_cast<unsigned long long>(t.ops), t.jPerOp,
                  t.opsPerJ);
    }
  }

  // ---- stacked per-component cluster watts timeline
  if (!e.wattsTimeline.empty()) {
    // Merge ticks; components stack in fixed order. Subsample to <= 40 rows.
    std::set<double> ticks;
    for (const auto& [comp, pts] : e.wattsTimeline) {
      for (const auto& [t, w] : pts) ticks.insert(t);
    }
    std::vector<double> ts(ticks.begin(), ticks.end());
    const std::size_t step = std::max<std::size_t>(1, ts.size() / 40);
    double maxW = 0;
    for (double t : ts) {
      double sum = 0;
      for (const auto& [comp, pts] : e.wattsTimeline) {
        auto it = pts.find(t);
        if (it != pts.end()) sum += it->second;
      }
      maxW = std::max(maxW, sum);
    }
    constexpr int kCols = 60;
    const char* kGlyphs = "cdnkp";  // cpu dram nic disk platform
    std::printf(
        "\ncluster watts timeline (stacked: c=cpu d=dram n=nic k=disk "
        "p=platform; full scale %.0f W)\n",
        maxW);
    for (std::size_t i = 0; i < ts.size(); i += step) {
      const double t = ts[i];
      std::string bar;
      double total = 0;
      for (std::size_t c = 0; c < kNumComponents; ++c) {
        auto cit = e.wattsTimeline.find(kComponents[c]);
        if (cit == e.wattsTimeline.end()) continue;
        auto it = cit->second.find(t);
        if (it == cit->second.end()) continue;
        total += it->second;
        const int width =
            maxW > 0
                ? static_cast<int>(kCols * it->second / maxW + 0.5)
                : 0;
        bar.append(static_cast<std::size_t>(width), kGlyphs[c]);
      }
      if (bar.size() > static_cast<std::size_t>(kCols)) {
        bar.resize(static_cast<std::size_t>(kCols));
      }
      std::printf("  %7.1fs |%-*s| %7.1f W\n", t, kCols, bar.c_str(), total);
    }
  }

  // ---- energy proportionality: mean cluster watts per load decile vs the
  // ideal proportional line anchored at peak load (paper Fig. 2's framing:
  // idle floor dominates at low load).
  if (!e.opsTimeline.empty() && !e.wattsTimeline.empty()) {
    std::map<double, double> wattsAt;
    for (const auto& [comp, pts] : e.wattsTimeline) {
      for (const auto& [t, w] : pts) wattsAt[t] += w;
    }
    double maxOps = 0;
    for (const auto& [t, ops] : e.opsTimeline) maxOps = std::max(maxOps, ops);
    if (maxOps > 0) {
      struct Bucket {
        double watts = 0;
        int n = 0;
      };
      Bucket buckets[10];
      double peakW = 0;
      for (const auto& [t, ops] : e.opsTimeline) {
        auto it = wattsAt.find(t);
        if (it == wattsAt.end()) continue;
        const int b = std::min(9, static_cast<int>(10.0 * ops / maxOps));
        buckets[b].watts += it->second;
        ++buckets[b].n;
        peakW = std::max(peakW, it->second);
      }
      std::printf(
          "\nenergy proportionality (mean cluster W per load decile; "
          "* actual, . ideal-proportional)\n");
      for (int b = 0; b < 10; ++b) {
        if (buckets[b].n == 0) continue;
        const double w = buckets[b].watts / buckets[b].n;
        const double ideal = peakW * (b + 0.5) / 10.0;
        const int wc = peakW > 0 ? static_cast<int>(40.0 * w / peakW) : 0;
        const int ic = peakW > 0 ? static_cast<int>(40.0 * ideal / peakW) : 0;
        std::string bar(41, ' ');
        bar[static_cast<std::size_t>(std::min(40, ic))] = '.';
        bar[static_cast<std::size_t>(std::min(40, wc))] = '*';
        std::printf("  %3d-%3d%% |%s| %7.1f W (ideal %7.1f)\n", b * 10,
                    (b + 1) * 10, bar.c_str(), w, ideal);
      }
    }
  }

  // ---- cluster rollup
  std::printf("\ncluster: %.1f J total", e.clusterJ);
  if (e.clusterOps > 0) {
    std::printf(", %llu ops, %.1f ops/J",
                static_cast<unsigned long long>(e.clusterOps),
                e.clusterOpsPerJ);
  }
  std::puts("");
}

int energyCmd(const std::string& dir, bool checkOnly) {
  EnergyData e;
  if (!loadEnergy(dir, &e)) return 1;
  if (checkOnly) {
    const int violations = checkEnergy(e, /*verbose=*/true);
    if (violations > 0) {
      std::fprintf(stderr, "energy check: %d violation(s)\n", violations);
      return 1;
    }
    return 0;
  }
  printEnergy(e);
  const int violations = checkEnergy(e, /*verbose=*/false);
  if (violations > 0) {
    std::fprintf(stderr, "\nenergy: %d reconciliation violation(s)\n",
                 violations);
    return 1;
  }
  std::puts("\nreconciliation: component sums match the PDU totals (<=0.1%)");
  return 0;
}

// ------------------------------------------------------------------- check

int checkRun(const std::string& dir) {
  RunData run;
  if (!loadRun(dir, &run)) return 1;
  int violations = 0;
  auto fail = [&violations](const char* fmt, unsigned long long a) {
    std::fprintf(stderr, "check: ");
    std::fprintf(stderr, fmt, a);
    std::fprintf(stderr, "\n");
    ++violations;
  };

  std::set<std::uint64_t> ids;
  for (const Span& s : run.spans) {
    if (s.id == 0) fail("span with id 0", 0);
    if (!ids.insert(s.id).second) fail("duplicate span id %llu", s.id);
  }
  for (const Span& s : run.spans) {
    if (s.name.empty()) fail("span %llu has empty name", s.id);
    if (s.node < 0) fail("span %llu has invalid node", s.id);
    if (s.parent != 0 && ids.find(s.parent) == ids.end()) {
      fail("span %llu references unknown parent", s.id);
    }
    // A child may *begin* before its parent (failure_detection starts at
    // the first missed ping, before the recovery root exists), but a
    // closed span must not end before it begins.
    if (!s.open && s.end < s.begin) {
      fail("span %llu ends before it begins", s.id);
    }
    if (s.open && s.abandoned) {
      fail("span %llu is both open and abandoned", s.id);
    }
  }
  // Every recovery root must have children covering at least the
  // coordinator-side phases.
  for (const Span* root : recoveryRoots(run)) {
    std::set<std::string> phases;
    for (const Span& s : run.spans) {
      if (s.ctx == root->ctx && s.id != root->id) phases.insert(s.name);
    }
    if (phases.empty()) {
      fail("recovery #%llu has no child phases", root->ctx);
    }
  }

  // Every file must parse (loadRun reported the lines that did not) and
  // hold only the record types its writer emits.
  violations += static_cast<int>(run.malformed);
  auto known = [&violations](const char* file, const std::string& type,
                             std::initializer_list<const char*> types) {
    for (const char* t : types) {
      if (type == t) return;
    }
    std::fprintf(stderr, "check: unknown record type '%s' in %s\n",
                 type.c_str(), file);
    ++violations;
  };
  for (const auto& rec : run.metrics) {
    known("metrics.jsonl", rec.type,
          {"counter", "gauge", "histogram", "point", "trace"});
  }
  // slo.jsonl and flight.jsonl exist only for runs with SLO classes and a
  // triggered flight recorder.
  std::size_t optionalRecords = 0;
  auto checkOptional = [&](const char* file,
                           std::initializer_list<const char*> types) {
    const std::string path = dir + "/" + file;
    const auto bad = jsonl::readFile(path, [&](const jsonl::Record& r) {
      ++optionalRecords;
      known(file, r.type(), types);
    });
    if (bad) violations += static_cast<int>(warnMalformed(path, *bad));
  };
  checkOptional("slo.jsonl",
                {"slo_window", "slo_node", "exemplar", "exemplar_stage"});
  checkOptional("flight.jsonl", {"flight_trigger", "flight"});

  if (violations == 0) {
    std::printf("check: OK (%zu spans, %zu metric records, %zu slo/flight "
                "records)\n",
                run.spans.size(), run.metrics.size(), optionalRecords);
    return 0;
  }
  std::fprintf(stderr, "check: %d violation(s)\n", violations);
  return 1;
}

void usage() {
  std::puts(
      "rcdiag — recovery/migration journal analyzer\n"
      "\n"
      "  rcdiag [timeline|critical|phases|tx|overload|qos|check|slo|energy|"
      "report] DIR\n"
      "  rcdiag energy check DIR\n"
      "\n"
      "DIR is a --metrics-dir run directory (events.jsonl and/or\n"
      "metrics.jsonl); timeline, critical, phases and tx need spans.\n"
      "check also validates slo.jsonl and flight.jsonl when present.\n"
      "slo reads DIR/slo.jsonl (runs with declared SLO classes).\n"
      "energy reads DIR/energy.jsonl: per-node component decomposition,\n"
      "per-op-class and per-tenant attribution, stacked watts timelines and\n"
      "the proportionality curve; `energy check` only gates the 0.1%\n"
      "component-sum vs PDU-total reconciliation (CI smoke).\n"
      "overload summarizes admission-control activity: per-node overload\n"
      "episodes plus shed/deferral counters (docs/OVERLOAD.md).\n"
      "qos summarizes per-tenant dispatch token buckets: offered vs\n"
      "admitted vs throttled plus throttle episodes (docs/WORKLOADS.md).\n"
      "Default command is report (timeline + critical + phases + tx +\n"
      "overload + qos; only overload + qos for a run without spans).\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string cmd = "report";
  std::string dir;
  if (argc == 2) {
    dir = argv[1];
  } else if (argc == 3) {
    cmd = argv[1];
    dir = argv[2];
  } else if (argc == 4 && std::strcmp(argv[1], "energy") == 0 &&
             std::strcmp(argv[2], "check") == 0) {
    return energyCmd(argv[3], /*checkOnly=*/true);
  } else {
    usage();
    return 2;
  }
  if (cmd == "check") return checkRun(dir);
  if (cmd == "slo") return sloCmd(dir);
  if (cmd == "energy") return energyCmd(dir, /*checkOnly=*/false);

  RunData run;
  if (!loadRun(dir, &run)) return 1;
  const bool spanView =
      cmd == "timeline" || cmd == "critical" || cmd == "phases" || cmd == "tx";
  if (spanView && run.spans.empty()) {
    std::fprintf(stderr, "rcdiag: no spans in %s/events.jsonl\n", dir.c_str());
    return 1;
  }
  if (cmd == "timeline") {
    printTimeline(run);
  } else if (cmd == "critical") {
    printCriticalPath(run);
  } else if (cmd == "phases") {
    printPhases(run);
  } else if (cmd == "tx") {
    printTxSummary(run);
  } else if (cmd == "overload") {
    printOverload(run);
  } else if (cmd == "qos") {
    printTenantQos(run);
  } else if (cmd == "report") {
    if (!run.spans.empty()) {
      printTimeline(run);
      printCriticalPath(run);
      printPhases(run);
      printTxSummary(run);
    }
    printOverload(run);
    printTenantQos(run);
  } else {
    usage();
    return 2;
  }
  return 0;
}
