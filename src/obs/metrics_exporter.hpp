#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metric_registry.hpp"
#include "obs/stats_sampler.hpp"
#include "obs/time_trace.hpp"

namespace rc::obs {

/// Dumps a run's observability state into a run directory:
///
///   <dir>/metrics.jsonl — one JSON object per line: every registered
///     counter/gauge ("value"), every histogram (count/mean/p50/p90/p99/max,
///     microseconds), every sampler and extra series point ("point"), and
///     the tail of the TimeTrace ring buffer ("trace").
///   <dir>/series.csv — wide CSV of the sampler's aligned 1 Hz series:
///     time_s, then one column per series, one row per tick.
///
/// Both directions go through the shared codec (obs/jsonl.hpp), so
/// readJsonl() parses this output back exactly (round-trip tested).
class MetricsExporter {
 public:
  explicit MetricsExporter(const MetricRegistry& registry)
      : registry_(registry) {}

  void attachSampler(const StatsSampler* sampler) { sampler_ = sampler; }
  void attachTimeTrace(const TimeTrace* trace) { trace_ = trace; }

  /// Include an externally-owned series (e.g. a PDU trace) in the JSONL
  /// dump. The pointer must outlive the exporter calls.
  void addSeries(const std::string& name, const sim::TimeSeries* ts);

  bool writeJsonl(const std::string& path) const;
  bool writeSeriesCsv(const std::string& path) const;

  /// Create `dir` (and parents) and write metrics.jsonl + series.csv.
  bool exportRunDir(const std::string& dir) const;

  /// One parsed line of metrics.jsonl. `type` is "counter", "gauge",
  /// "histogram", "point" or "trace"; unused fields stay zero/empty.
  /// readJsonl() skips malformed lines and, if asked, counts them.
  struct Record {
    std::string type;
    std::string name;
    std::string unit;
    double value = 0;
    double t = 0;  ///< seconds (points/trace)
    std::uint64_t count = 0;
    double mean = 0, p50 = 0, p90 = 0, p99 = 0, max = 0;  ///< us (histograms)
  };
  static std::vector<Record> readJsonl(const std::string& path,
                                       std::size_t* malformed = nullptr);

 private:
  const MetricRegistry& registry_;
  const StatsSampler* sampler_ = nullptr;
  const TimeTrace* trace_ = nullptr;
  std::vector<std::pair<std::string, const sim::TimeSeries*>> extraSeries_;
};

}  // namespace rc::obs
