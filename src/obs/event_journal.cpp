#include "obs/event_journal.hpp"

#include <algorithm>
#include <fstream>

#include "obs/jsonl.hpp"

namespace rc::obs {

EventJournal::SpanId EventJournal::beginSpan(const std::string& name, int node,
                                             SpanId parent, std::uint64_t ctx) {
  const SpanId id = nextSpan_++;
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.node = node;
  s.ctx = ctx;
  s.begin = sim_.now();
  index_[id] = spans_.size();
  spans_.push_back(std::move(s));
  openEnergy0_[id] = energyProbe_ ? energyProbe_(node) : EnergyBreakdown{};
  ++started_;
  return id;
}

EventJournal::SpanId EventJournal::event(const std::string& name, int node,
                                         SpanId parent, std::uint64_t ctx) {
  const SpanId id = beginSpan(name, node, parent, ctx);
  endSpan(id);
  return id;
}

void EventJournal::addBytes(SpanId id, std::uint64_t bytes) {
  auto it = index_.find(id);
  if (it != index_.end()) spans_[it->second].bytes += bytes;
}

void EventJournal::addCount(SpanId id, std::uint64_t n) {
  auto it = index_.find(id);
  if (it != index_.end()) spans_[it->second].count += n;
}

void EventJournal::linkSpan(SpanId id, SpanId parent, std::uint64_t ctx) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  spans_[it->second].parent = parent;
  spans_[it->second].ctx = ctx;
}

void EventJournal::close(SpanId id, bool abandoned) {
  auto e0 = openEnergy0_.find(id);
  if (e0 == openEnergy0_.end()) return;  // unknown or already closed
  auto it = index_.find(id);
  Span& s = spans_[it->second];
  s.end = sim_.now();
  s.open = false;
  s.abandoned = abandoned;
  if (energyProbe_) {
    const EnergyBreakdown now = energyProbe_(s.node);
    const EnergyBreakdown& then = e0->second;
    s.cpuJ = now.cpu - then.cpu;
    s.dramJ = now.dram - then.dram;
    s.nicJ = now.nic - then.nic;
    s.diskJ = now.disk - then.disk;
    s.joules = now.total() - then.total();
  }
  openEnergy0_.erase(e0);
  if (abandoned) {
    ++abandoned_;
  } else {
    ++completed_;
  }
}

void EventJournal::endSpan(SpanId id) { close(id, /*abandoned=*/false); }

void EventJournal::abandonSpan(SpanId id) { close(id, /*abandoned=*/true); }

void EventJournal::abandonNode(int node) {
  // Collect first: close() mutates openEnergy0_.
  std::vector<SpanId> toClose;
  for (const auto& [id, j0] : openEnergy0_) {
    if (spans_[index_.at(id)].node == node) toClose.push_back(id);
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(toClose.begin(), toClose.end());
  for (SpanId id : toClose) close(id, /*abandoned=*/true);
}

const EventJournal::Span* EventJournal::span(SpanId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &spans_[it->second];
}

std::vector<const EventJournal::Span*> EventJournal::spansNamed(
    const std::string& name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(&s);
  }
  return out;
}

std::vector<const EventJournal::Span*> EventJournal::spansInCtx(
    std::uint64_t ctx) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.ctx == ctx) out.push_back(&s);
  }
  return out;
}

double EventJournal::joulesForPhase(const std::string& name) const {
  double j = 0;
  for (const Span& s : spans_) {
    if (!s.open && (name.empty() || s.name == name)) j += s.joules;
  }
  return j;
}

void EventJournal::registerMetrics(MetricRegistry& reg,
                                   const std::string& prefix) {
  reg.probeCounter(prefix + ".spans_started", "ops",
                   [this] { return static_cast<double>(started_); });
  reg.probeCounter(prefix + ".spans_completed", "ops",
                   [this] { return static_cast<double>(completed_); });
  reg.probeCounter(prefix + ".spans_abandoned", "ops",
                   [this] { return static_cast<double>(abandoned_); });
  reg.probeGauge(prefix + ".open_spans", "items",
                 [this] { return static_cast<double>(openSpans()); });
}

bool EventJournal::writeJsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  jsonl::LineWriter w(os);
  for (const Span& s : spans_) {
    // Nanosecond-resolution seconds keep interval queries exact on re-read.
    w.begin("span").u64("id", s.id).u64("parent", s.parent)
        .str("name", s.name).i64("node", s.node).u64("ctx", s.ctx)
        .fixed("t0", sim::toSeconds(s.begin), 9)
        .fixed("t1", sim::toSeconds(s.open ? s.begin : s.end), 9)
        .i64("open", s.open ? 1 : 0).i64("abandoned", s.abandoned ? 1 : 0)
        .fixed("joules", s.joules, 6).fixed("cpu_j", s.cpuJ, 6)
        .fixed("dram_j", s.dramJ, 6).fixed("nic_j", s.nicJ, 6)
        .fixed("disk_j", s.diskJ, 6).u64("bytes", s.bytes)
        .u64("count", s.count).end();
  }
  return static_cast<bool>(os);
}

std::vector<EventJournal::Span> EventJournal::readJsonl(
    const std::string& path, std::size_t* malformed) {
  std::vector<Span> out;
  const auto bad = jsonl::readFile(path, [&](const jsonl::Record& r) {
    if (r.type() != "span") return;
    out.push_back({.id = r.num<SpanId>("id"), .parent = r.num<SpanId>("parent"),
                   .name = r.str("name"), .node = r.num("node", -1),
                   .ctx = r.num<std::uint64_t>("ctx"),
                   .begin = sim::secondsF(r.num("t0")),
                   .end = sim::secondsF(r.num("t1")),
                   .open = r.num("open", true),
                   .abandoned = r.num("abandoned", false),
                   .joules = r.num("joules"), .cpuJ = r.num("cpu_j"),
                   .dramJ = r.num("dram_j"), .nicJ = r.num("nic_j"),
                   .diskJ = r.num("disk_j"),
                   .bytes = r.num<std::uint64_t>("bytes"),
                   .count = r.num<std::uint64_t>("count")});
  });
  if (malformed != nullptr) *malformed = bad.value_or(0);
  return out;
}

}  // namespace rc::obs
