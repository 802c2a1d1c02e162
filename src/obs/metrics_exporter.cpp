#include "obs/metrics_exporter.hpp"

#include <filesystem>
#include <fstream>

#include "obs/jsonl.hpp"

namespace rc::obs {

namespace {

void writeSeriesLines(jsonl::LineWriter& w, const std::string& name,
                      const sim::TimeSeries& ts) {
  for (const auto& p : ts.points()) {
    w.begin("point").str("name", name).num("t", sim::toSeconds(p.time))
        .num("value", p.value).end();
  }
}

}  // namespace

void MetricsExporter::addSeries(const std::string& name,
                                const sim::TimeSeries* ts) {
  if (ts != nullptr) extraSeries_.emplace_back(name, ts);
}

bool MetricsExporter::writeJsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  jsonl::LineWriter w(os);
  registry_.forEach([&](const MetricInfo& info) {
    w.begin(kindName(info.kind)).str("name", info.name).str("unit", info.unit);
    if (info.kind != MetricKind::kHistogram) {
      w.num("value", registry_.value(info.name)).end();
      return;
    }
    const sim::Histogram* h = registry_.histogramAt(info.name);
    static const sim::Histogram kEmpty;
    const HistogramSummary s = summarizeHistogram(h != nullptr ? *h : kEmpty);
    w.u64("count", s.count).num("mean", s.meanUs).num("p50", s.p50Us)
        .num("p90", s.p90Us).num("p99", s.p99Us).num("max", s.maxUs).end();
  });
  if (sampler_ != nullptr) {
    for (const auto& [name, ts] : sampler_->series()) {
      writeSeriesLines(w, name, ts);
    }
  }
  for (const auto& [name, ts] : extraSeries_) {
    writeSeriesLines(w, name, *ts);
  }
  if (trace_ != nullptr) {
    for (const auto& ev : trace_->recentEvents()) {
      w.begin("trace").num("t", sim::toSeconds(ev.at)).u64("span", ev.span)
          .str("name", TimeTrace::stageName(ev.stage))
          .num("value", sim::toMicros(ev.elapsed)).end();
    }
  }
  return static_cast<bool>(os);
}

bool MetricsExporter::writeSeriesCsv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  if (sampler_ == nullptr || sampler_->series().empty()) {
    os << "time_s\n";
    return static_cast<bool>(os);
  }
  const auto& all = sampler_->series();
  os << "time_s";
  for (const auto& [name, ts] : all) os << "," << name;
  os << "\n";
  // Every sampler series shares the same tick times by construction; rows
  // are bounded by the shortest series for safety (a metric registered
  // mid-run starts late).
  std::size_t rows = all.front().second.size();
  for (const auto& [name, ts] : all) rows = std::min(rows, ts.size());
  const auto& clock = all.front().second.points();
  const std::size_t skewFront = all.front().second.size() - rows;
  for (std::size_t i = 0; i < rows; ++i) {
    os << sim::toSeconds(clock[skewFront + i].time);
    for (const auto& [name, ts] : all) {
      const auto& pts = ts.points();
      os << "," << pts[pts.size() - rows + i].value;
    }
    os << "\n";
  }
  return static_cast<bool>(os);
}

bool MetricsExporter::exportRunDir(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  const std::filesystem::path base(dir);
  return writeJsonl((base / "metrics.jsonl").string()) &&
         writeSeriesCsv((base / "series.csv").string());
}

std::vector<MetricsExporter::Record> MetricsExporter::readJsonl(
    const std::string& path, std::size_t* malformed) {
  std::vector<Record> out;
  const auto bad = jsonl::readFile(path, [&](const jsonl::Record& l) {
    out.push_back({.type = l.type(), .name = l.str("name"),
                   .unit = l.str("unit"), .value = l.num("value"),
                   .t = l.num("t"), .count = l.num<std::uint64_t>("count"),
                   .mean = l.num("mean"), .p50 = l.num("p50"),
                   .p90 = l.num("p90"), .p99 = l.num("p99"),
                   .max = l.num("max")});
  });
  if (malformed != nullptr) *malformed = bad.value_or(0);
  return out;
}

}  // namespace rc::obs
