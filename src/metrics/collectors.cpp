#include "df3/metrics/collectors.hpp"

#include <cmath>
#include <stdexcept>

namespace df3::metrics {

const FlowMetrics::Slice FlowMetrics::kEmpty{};

namespace {
void record_into(FlowMetrics::Slice& s, const workload::CompletionRecord& rec) {
  switch (rec.outcome) {
    case workload::Outcome::kCompleted:
      ++s.completed;
      s.response_s.add(rec.response_time());
      break;
    case workload::Outcome::kDeadlineMissed:
      ++s.deadline_missed;
      break;
    case workload::Outcome::kRejected:
      ++s.rejected;
      break;
    case workload::Outcome::kDropped:
      ++s.dropped;
      break;
  }
}
}  // namespace

void FlowMetrics::record(const workload::CompletionRecord& rec) {
  record_into(overall_, rec);
  record_into(by_flow_[static_cast<std::size_t>(rec.request.flow)], rec);
  record_into(by_app_[rec.request.app], rec);
  ++served_by_[static_cast<std::size_t>(rec.served_by)];
}

const FlowMetrics::Slice& FlowMetrics::by_app(const std::string& app) const {
  const auto it = by_app_.find(app);
  return it == by_app_.end() ? kEmpty : it->second;
}

void EnergyLedger::throw_negative(const char* what) {
  throw std::invalid_argument(std::string("EnergyLedger: negative ") + what);
}

double EnergyLedger::pue() const {
  if (it_.value() <= 0.0) return 1.0;
  return facility_total().value() / it_.value();
}

double EnergyLedger::heat_reuse_fraction() const {
  const double total = facility_total().value();
  return total <= 0.0 ? 0.0 : useful_heat_.value() / total;
}

void EnergyLedger::merge(const EnergyLedger& other) {
  it_ += other.it_;
  overhead_ += other.overhead_;
  cooling_ += other.cooling_;
  useful_heat_ += other.useful_heat_;
  waste_heat_ += other.waste_heat_;
  grid_cost_eur_ += other.grid_cost_eur_;
  grid_co2_g_ += other.grid_co2_g_;
}


double ComfortMetrics::mean_abs_deviation_k(double until) const {
  return abs_dev_.empty() ? 0.0 : abs_dev_.mean_until(until);
}

double ComfortMetrics::mean_temperature_c(double until) const {
  return temp_.empty() ? 0.0 : temp_.mean_until(until);
}

}  // namespace df3::metrics
