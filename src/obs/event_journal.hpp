#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metric_registry.hpp"
#include "sim/simulation.hpp"

namespace rc::obs {

/// Cluster-wide structured event journal: typed, timestamped spans with
/// node/actor attribution and parent-span causality (the recovery-path
/// counterpart of TimeTrace's per-RPC stages).
///
/// The coordinator, masters and backups open a span when a phase of a
/// recovery / migration / cleaner pass begins on their node and close it
/// when the phase completes, so one crash yields a complete cross-node
/// span tree rooted at the coordinator's "recovery" span. Spans are linked
/// by parent id (causality, which may cross nodes via the RPC that carried
/// the work) and grouped by `ctx` (the recovery id), and annotated with
/// bytes/count payload attributes.
///
/// Energy attribution: when an energy probe is attached (the cluster wires
/// it to Node::componentEnergySince over the per-resource model), every
/// span records the joules spent on its actor node while it was open,
/// decomposed by component (CPU/DRAM/NIC/disk + platform in the total).
/// Because concurrent spans on one node each see full node power, per-span
/// joules answer "what did the node burn during this phase"; the
/// non-overlapping partition of node energy across phases (which must sum
/// to the PDU-integrated total) is computed offline by rcdiag from the
/// span intervals plus the 1 Hz PDU series — see docs/TRACING.md and
/// docs/ENERGY.md.
///
/// Spans left open when their node's process dies are closed deterministically
/// via abandonNode() (flagged `abandoned`) instead of dangling forever.
class EventJournal {
 public:
  using SpanId = std::uint64_t;

  /// Per-component node energy at a probe instant (cumulative joules from
  /// a fixed origin). Mirrors power::Component without an obs -> power
  /// dependency; `total()` includes the platform share.
  struct EnergyBreakdown {
    double cpu = 0;
    double dram = 0;
    double nic = 0;
    double disk = 0;
    double platform = 0;
    double total() const { return cpu + dram + nic + disk + platform; }
  };

  struct Span {
    SpanId id = 0;
    SpanId parent = 0;       ///< 0 = root
    std::string name;        ///< phase, e.g. "replay", "segment_read"
    int node = -1;           ///< actor node id
    std::uint64_t ctx = 0;   ///< grouping context (recovery id), 0 = none
    sim::SimTime begin = 0;
    sim::SimTime end = 0;    ///< valid once closed (== begin for events)
    bool open = true;
    bool abandoned = false;  ///< closed by node crash / phase failure
    double joules = 0;       ///< whole-node energy over [begin, end]
    double cpuJ = 0;         ///< per-component decomposition of `joules`
    double dramJ = 0;        ///< (platform share = joules - sum of these)
    double nicJ = 0;
    double diskJ = 0;
    std::uint64_t bytes = 0;
    std::uint64_t count = 0;

    sim::Duration duration() const { return open ? 0 : end - begin; }
  };

  explicit EventJournal(sim::Simulation& sim) : sim_(sim) {}

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// `probe(node)` returns cumulative per-component joules consumed by
  /// `node` since some fixed origin; span energy is the probe delta
  /// between begin and close.
  using EnergyProbe = std::function<EnergyBreakdown(int)>;
  void setEnergyProbe(EnergyProbe probe) { energyProbe_ = std::move(probe); }

  /// Open a span at now(). Returns its id (never 0).
  SpanId beginSpan(const std::string& name, int node, SpanId parent = 0,
                   std::uint64_t ctx = 0);

  /// Record a zero-duration (instant) event as an already-closed span.
  SpanId event(const std::string& name, int node, SpanId parent = 0,
               std::uint64_t ctx = 0);

  /// Accumulate payload attributes onto an open span (no-op if unknown).
  void addBytes(SpanId id, std::uint64_t bytes);
  void addCount(SpanId id, std::uint64_t n);

  /// Re-parent a span into a tree discovered after it began (e.g. the
  /// failure_detection span opens at the first missed ping, before the
  /// recovery — and its root span — exists). No-op if unknown.
  void linkSpan(SpanId id, SpanId parent, std::uint64_t ctx);

  /// Close the span at now(), attributing energy. No-op if unknown/closed.
  void endSpan(SpanId id);

  /// Close the span flagged `abandoned` (phase failed or actor died).
  void abandonSpan(SpanId id);

  /// Deterministically close every open span of `node` as abandoned —
  /// called when the node's process crashes mid-phase.
  void abandonNode(int node);

  // ----- introspection (tests, rcdiag, benches)

  const std::vector<Span>& spans() const { return spans_; }
  const Span* span(SpanId id) const;
  std::vector<const Span*> spansNamed(const std::string& name) const;
  std::vector<const Span*> spansInCtx(std::uint64_t ctx) const;

  std::size_t openSpans() const { return openEnergy0_.size(); }
  std::uint64_t spansStarted() const { return started_; }
  std::uint64_t spansCompleted() const { return completed_; }
  std::uint64_t spansAbandoned() const { return abandoned_; }

  /// Sum of joules over closed spans matching `name` (all if empty).
  double joulesForPhase(const std::string& name) const;

  /// Counters/gauges under `prefix` (e.g. "cluster.journal").
  void registerMetrics(MetricRegistry& reg, const std::string& prefix);

  // ----- persistence (events.jsonl; schema in docs/TRACING.md)

  /// Written and read through the shared codec (obs/jsonl.hpp); the reader
  /// skips malformed lines and, if asked, counts them.
  bool writeJsonl(const std::string& path) const;
  static std::vector<Span> readJsonl(const std::string& path,
                                     std::size_t* malformed = nullptr);

 private:
  void close(SpanId id, bool abandoned);

  sim::Simulation& sim_;
  EnergyProbe energyProbe_;
  std::vector<Span> spans_;                        ///< begin order
  std::unordered_map<SpanId, std::size_t> index_;  ///< id -> spans_ idx
  /// id -> per-component probe reading at begin.
  std::unordered_map<SpanId, EnergyBreakdown> openEnergy0_;
  SpanId nextSpan_ = 1;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t abandoned_ = 0;
};

}  // namespace rc::obs
