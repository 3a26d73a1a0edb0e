#include "df3/obs/metrics.hpp"

namespace df3::obs {

MetricId MetricRegistry::counter(std::string_view name) {
  return intern(name, MetricKind::kCounter);
}

MetricId MetricRegistry::gauge(std::string_view name) { return intern(name, MetricKind::kGauge); }

MetricId MetricRegistry::histogram(std::string_view name) {
  return intern(name, MetricKind::kHistogram);
}

MetricId MetricRegistry::intern(std::string_view name, MetricKind kind) {
  auto [it, inserted] = by_name_.try_emplace(std::string(name),
                                             static_cast<std::uint32_t>(instruments_.size()));
  if (!inserted) {
    assert(instruments_[it->second].kind == kind);
    return MetricId{it->second};
  }
  Instrument inst;
  inst.name = it->first;
  inst.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      inst.slot = static_cast<std::uint32_t>(counters_.size());
      counters_.emplace_back();
      break;
    case MetricKind::kGauge:
      inst.slot = static_cast<std::uint32_t>(gauges_.size());
      gauges_.emplace_back();
      break;
    case MetricKind::kHistogram:
      inst.slot = static_cast<std::uint32_t>(histograms_.size());
      histograms_.emplace_back();
      break;
  }
  instruments_.push_back(std::move(inst));
  return MetricId{it->second};
}

void MetricRegistry::snapshot(double t_s) {
  ++snapshots_;
  for (auto& inst : instruments_) {
    MetricSample s;
    s.t_s = t_s;
    switch (inst.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(counters_[inst.slot].value());
        break;
      case MetricKind::kGauge:
        s.value = gauges_[inst.slot].value();
        break;
      case MetricKind::kHistogram: {
        const auto& h = histograms_[inst.slot];
        s.value = h.mean();
        s.count = h.count();
        s.p50 = h.median();
        s.p99 = h.p99();
        break;
      }
    }
    inst.series.push_back(s);
  }
}

}  // namespace df3::obs
