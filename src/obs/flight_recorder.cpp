#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/jsonl.hpp"
#include "obs/time_trace.hpp"

namespace rc::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity)) {}

void FlightRecorder::trigger(sim::SimTime at, const std::string& reason) {
  triggers_.push_back(Trigger{at, reason});
}

std::vector<FlightRecorder::Entry> FlightRecorder::entries() const {
  std::vector<Entry> out;
  out.reserve(count_);
  const std::size_t start = count_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string FlightRecorder::toJsonl() const {
  std::ostringstream os;
  jsonl::LineWriter w(os);
  for (const Trigger& t : triggers_) {
    w.begin("flight_trigger").fixed("t_us", sim::toMicros(t.at), 3)
        .str("reason", t.reason).end();
  }
  for (const Entry& e : entries()) {
    w.begin("flight").fixed("t_us", sim::toMicros(e.at), 3)
        .u64("span", e.span)
        .str("stage",
             TimeTrace::stageName(static_cast<TimeTrace::Stage>(e.stage)))
        .i64("node", e.node).i64("depth", e.queueDepth)
        .u64("tenant", e.tenant).fixed("us", sim::toMicros(e.elapsed), 3)
        .i64("abandoned", e.abandoned ? 1 : 0).end();
  }
  return os.str();
}

bool FlightRecorder::writeJsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << toJsonl();
  return static_cast<bool>(os);
}

void FlightRecorder::registerMetrics(MetricRegistry& reg,
                                     const std::string& prefix) {
  reg.probeCounter(prefix + ".stamps", "ops", [this] {
    return static_cast<double>(recorded_);
  });
  reg.probeCounter(prefix + ".triggers", "ops", [this] {
    return static_cast<double>(triggers_.size());
  });
}

}  // namespace rc::obs
