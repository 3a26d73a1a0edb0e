#pragma once
/// \file collectors.hpp
/// \brief Experiment metric collectors: response times per flow/app,
///        outcome counts, energy ledger and PUE accounting.

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "df3/util/stats.hpp"
#include "df3/util/units.hpp"
#include "df3/workload/request.hpp"

namespace df3::metrics {

/// Response-time and outcome statistics, sliced by flow and by app.
class FlowMetrics {
 public:
  /// Record one completion (any outcome).
  void record(const workload::CompletionRecord& rec);

  struct Slice {
    util::PercentileSampler response_s;   ///< completed requests only
    std::uint64_t completed = 0;
    std::uint64_t deadline_missed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t dropped = 0;

    [[nodiscard]] std::uint64_t total() const {
      return completed + deadline_missed + rejected + dropped;
    }
    /// Fraction of requests that met their obligations.
    [[nodiscard]] double success_rate() const {
      const auto t = total();
      return t == 0 ? 1.0 : static_cast<double>(completed) / static_cast<double>(t);
    }
  };

  [[nodiscard]] const Slice& by_flow(workload::Flow f) const {
    return by_flow_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] const Slice& by_app(const std::string& app) const;
  [[nodiscard]] const Slice& overall() const { return overall_; }

  /// Terminal records (any outcome) of one kind, for offload accounting.
  [[nodiscard]] std::uint64_t served(workload::ServedBy s) const {
    return served_by_[static_cast<std::size_t>(s)];
  }

 private:
  Slice overall_;
  std::array<Slice, 3> by_flow_{};  // indexed by workload::Flow
  std::map<std::string, Slice> by_app_;
  std::array<std::uint64_t, workload::kServedByCount> served_by_{};
  static const Slice kEmpty;
};

/// City-wide energy bookkeeping. PUE = total facility energy / IT energy.
/// For data furnace there is no cooling term, so PUE ~ 1 + standby overhead;
/// for the air-cooled datacenter baseline the cooling term dominates the
/// difference (the paper cites CloudandHeat's PUE of 1.026 vs classic DCs).
class EnergyLedger {
 public:
  // The add_* accumulators are header-inline: the platform posts four of
  // them per room per physics tick.
  void add_it(util::Joules e) { add_checked(it_, e, "IT energy"); }         ///< servers doing work
  void add_overhead(util::Joules e) { add_checked(overhead_, e, "overhead"); }  ///< standby, PSU losses
  void add_cooling(util::Joules e) { add_checked(cooling_, e, "cooling"); }     ///< chillers (zero for DF)
  void add_useful_heat(util::Joules e) { add_checked(useful_heat_, e, "useful heat"); }  ///< requested heating
  void add_waste_heat(util::Joules e) { add_checked(waste_heat_, e, "waste heat"); }     ///< rejected heat

  /// Attribute facility energy to the grid signal active at spend time
  /// (DESIGN.md §15): cost and carbon accrue at the price / intensity the
  /// region showed on the tick the joules were drawn, not at end-of-run
  /// averages. Called by the platform once per building per tick when a
  /// grid plane is installed; a no-grid run never touches these slots.
  void add_grid_spend(util::Joules e, double eur_per_kwh, double gco2_per_kwh) {
    if (e.value() < 0.0) throw_negative("grid spend");
    const double kwh = e.value() / 3.6e6;
    grid_cost_eur_ += kwh * eur_per_kwh;
    grid_co2_g_ += kwh * gco2_per_kwh;
  }

  [[nodiscard]] double grid_cost_eur() const { return grid_cost_eur_; }
  [[nodiscard]] double grid_co2_g() const { return grid_co2_g_; }

  [[nodiscard]] util::Joules it() const { return it_; }
  [[nodiscard]] util::Joules overhead() const { return overhead_; }
  [[nodiscard]] util::Joules cooling() const { return cooling_; }
  [[nodiscard]] util::Joules useful_heat() const { return useful_heat_; }
  [[nodiscard]] util::Joules waste_heat() const { return waste_heat_; }
  [[nodiscard]] util::Joules facility_total() const { return it_ + overhead_ + cooling_; }

  /// Power usage effectiveness; 1.0 when no energy recorded.
  [[nodiscard]] double pue() const;

  /// Energy-reuse-effectiveness-style credit: fraction of facility energy
  /// delivered as useful heat.
  [[nodiscard]] double heat_reuse_fraction() const;

  void merge(const EnergyLedger& other);

  /// The four slots the DF fleet posts to each tick, as plain doubles with
  /// the ledger's own per-call checks: a hot loop copies them into a local,
  /// where they stay in registers, and copies them back, so the totals take
  /// the same adds in the same order and stay bit-identical.
  struct Totals {
    double it = 0.0;
    double overhead = 0.0;
    double useful = 0.0;
    double waste = 0.0;

    void add_it(util::Joules e) { add_local(it, e, "IT energy"); }
    void add_overhead(util::Joules e) { add_local(overhead, e, "overhead"); }
    void add_useful_heat(util::Joules e) { add_local(useful, e, "useful heat"); }
    void add_waste_heat(util::Joules e) { add_local(waste, e, "waste heat"); }

   private:
    static void add_local(double& slot, util::Joules e, const char* what) {
      if (e.value() < 0.0) throw_negative(what);
      slot += e.value();
    }
  };

  /// Batched view for hot accumulation loops: reads the slots once into
  /// `totals()` and commits them on scope exit — including during
  /// unwinding, matching the eager per-call commit of direct add_* calls.
  class Accumulator {
   public:
    explicit Accumulator(EnergyLedger& ledger)
        : ledger_(ledger),
          totals_{ledger.it_.value(), ledger.overhead_.value(), ledger.useful_heat_.value(),
                  ledger.waste_heat_.value()} {}
    ~Accumulator() { commit(); }
    Accumulator(const Accumulator&) = delete;
    Accumulator& operator=(const Accumulator&) = delete;

    [[nodiscard]] Totals& totals() { return totals_; }

    void commit() {
      ledger_.it_ = util::Joules{totals_.it};
      ledger_.overhead_ = util::Joules{totals_.overhead};
      ledger_.useful_heat_ = util::Joules{totals_.useful};
      ledger_.waste_heat_ = util::Joules{totals_.waste};
    }

   private:
    EnergyLedger& ledger_;
    Totals totals_;
  };

 private:
  static void add_checked(util::Joules& slot, util::Joules e, const char* what) {
    if (e.value() < 0.0) throw_negative(what);
    slot += e;
  }
  [[noreturn]] static void throw_negative(const char* what);

  util::Joules it_{0.0};
  util::Joules overhead_{0.0};
  util::Joules cooling_{0.0};
  util::Joules useful_heat_{0.0};
  util::Joules waste_heat_{0.0};
  double grid_cost_eur_ = 0.0;
  double grid_co2_g_ = 0.0;
};

/// Comfort tracking for one space (a building's rooms, or a hot-water
/// store): time-weighted deviation from target and temperature.
class ComfortMetrics {
 public:
  /// Record the instantaneous state of one space at time `t`.
  void sample(double t, util::Celsius room, util::Celsius target) {
    record(t, std::abs(room.value() - target.value()), room.value());
  }
  /// Record the state from time `t` onwards as a deviation from target (K)
  /// and a temperature (degC): a building records its room means once per
  /// tick, since samples at one instant overwrite each other.
  void record(double t, double abs_dev_k, double temp_c) {
    abs_dev_.record(t, abs_dev_k);
    temp_.record(t, temp_c);
  }

  /// Mean absolute deviation from target (K), time-weighted.
  [[nodiscard]] double mean_abs_deviation_k(double until) const;
  /// Time-weighted mean room temperature.
  [[nodiscard]] double mean_temperature_c(double until) const;

 private:
  util::TimeWeightedValue abs_dev_;
  util::TimeWeightedValue temp_;
};

}  // namespace df3::metrics
