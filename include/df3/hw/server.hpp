#pragma once
/// \file server.hpp
/// \brief Data-furnace server chassis: power, heat routing, throttling, aging.
///
/// A `DfServer` is the physical machine the DF3 middleware schedules onto.
/// It aggregates identical CPUs, exposes the *heat = power* identity, and
/// implements the chassis-level behaviours the paper calls out:
///
///  * **power gating** (Qarnot hybrid infrastructure): motherboards turn off
///    when no heat is requested, leaving only standby power;
///  * **free-cooling throttle**: with no active cooling, a hot room forces
///    frequency reduction and eventually shutdown (paper: long compute-heavy
///    jobs "might not be enough" for free cooling — section VI);
///  * **heat routing**: Q.rads emit 100% indoors; the Nerdalize e-radiator's
///    dual pipe vents outdoors off-season; boilers heat a water loop;
///  * **aging**: thermal stress accumulates with an Arrhenius-style factor,
///    doubling per +10 K over the reference junction temperature
///    (section III-C: free cooling "might cause the acceleration of
///    processor aging").

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "df3/hw/cpu.hpp"
#include "df3/util/units.hpp"

namespace df3::hw {

namespace detail {

/// 2^(j/32) for j in [0, 32): the coarse grid of the fast_exp2 below.
inline const std::array<double, 32> kExp2Frac = [] {
  std::array<double, 32> t{};
  for (int j = 0; j < 32; ++j) t[static_cast<std::size_t>(j)] = std::exp2(j / 32.0);
  return t;
}();

/// Fast 2^x: split x = e + j/32 + r, look 2^(j/32) up, expand 2^r with a
/// short Taylor series (r < 1/32 so four terms reach ~4e-11 relative
/// error), and apply 2^e through the exponent bits. Only for quantities
/// where that error is irrelevant (the aging accelerator); telemetry-grade
/// math must keep using std::exp2.
inline double fast_exp2(double x) {
  if (!(x > -1000.0 && x < 1000.0)) return std::exp2(x);  // also catches NaN
  const double xs = std::floor(x * 32.0);
  const auto i = static_cast<int>(xs);
  const double r = x - xs * (1.0 / 32.0);  // in [0, 1/32)
  const int e = i >> 5;                    // floor(i / 32), also for negatives
  const std::size_t j = static_cast<std::size_t>(i & 31);
  constexpr double kLn2 = 0.6931471805599453;
  const double y = r * kLn2;
  const double poly = 1.0 + y * (1.0 + y * (0.5 + y * (1.0 / 6.0 + y * (1.0 / 24.0))));
  const auto bits = static_cast<std::uint64_t>(e + 1023) << 52;  // 2^e
  double scale;
  static_assert(sizeof(scale) == sizeof(bits));
  __builtin_memcpy(&scale, &bits, sizeof(scale));
  return kExp2Frac[j] * poly * scale;
}

}  // namespace detail

/// Where the chassis heat goes, season-dependent.
enum class HeatRouting : std::uint8_t {
  kIndoor,        ///< all heat into the host room (Q.rad)
  kDualPipe,      ///< indoor during heating season, vented outdoors otherwise
  kWaterLoop,     ///< into the building's hot-water loop (digital boilers)
};

/// Static description of a DF server chassis.
struct ServerSpec {
  std::string family = "qrad";
  CpuSpec cpu = qrad_cpu_spec();
  int cpu_count = 4;
  util::Watts standby_power{4.0};  ///< drawn when motherboards are gated off
  HeatRouting routing = HeatRouting::kIndoor;
  /// Free-cooling envelope: throttle linearly from `throttle_start` and gate
  /// off completely at `shutdown_temp` inlet temperature.
  util::Celsius throttle_start{27.0};
  util::Celsius shutdown_temp{35.0};
  /// Reference junction temperature for the aging model.
  util::Celsius aging_reference_junction{65.0};

  [[nodiscard]] int total_cores() const { return cpu.cores * cpu_count; }
  /// Nameplate power: all CPUs at top P-state, fully busy.
  [[nodiscard]] util::Watts rated_power() const;

  bool operator==(const ServerSpec&) const = default;
};

/// Catalogue of the server families named in the paper (section II-B).
[[nodiscard]] ServerSpec qrad_spec();             ///< Qarnot Q.rad, ~500 W, 4 CPUs
[[nodiscard]] ServerSpec eradiator_spec();        ///< Nerdalize, ~1000 W, dual pipe
[[nodiscard]] ServerSpec crypto_heater_spec();    ///< Qarnot QC1, ~650 W, 2 GPUs
[[nodiscard]] ServerSpec asperitas_boiler_spec(); ///< AIC24, ~20 kW, 200 CPUs
[[nodiscard]] ServerSpec stimergy_boiler_spec();  ///< oil-immersed, ~4 kW

/// Immutable catalogue data of one chassis family: the spec, its CPU model,
/// the merged per-P-state table the operating-point math reads and the
/// spec scalars in the form the per-tick path reads them. A city has a
/// handful of families and up to millions of chassis, so every `DfServer`
/// of an equal spec reads one model (`ServerModel::intern`).
class ServerModel {
 public:
  /// Throws std::invalid_argument for a bad CPU spec, a non-positive
  /// cpu_count or an empty throttle window.
  explicit ServerModel(ServerSpec spec);

  /// The model equal to `spec`, made on first use and kept for the life of
  /// the process, so a server holds it by plain pointer whatever outlives
  /// what. Thread-safe.
  [[nodiscard]] static const ServerModel& intern(ServerSpec spec);

  [[nodiscard]] const ServerSpec& spec() const { return spec_; }
  [[nodiscard]] const CpuModel& cpu_model() const { return cpu_model_; }
  [[nodiscard]] std::size_t pstate_count() const { return n_pstates_; }

  /// Merged per-P-state tables, stride pstate_count():
  /// [full-power chassis W | idle-power chassis W | freq ratio |
  ///  per-CPU dynamic coefficient | core speed gcps].
  [[nodiscard]] const double* tables() const { return tables_.data(); }

  // Spec scalars, read by every server of the family on the per-tick path.
  [[nodiscard]] double standby_power_w() const { return standby_power_w_; }
  [[nodiscard]] double throttle_start_c() const { return throttle_start_c_; }
  [[nodiscard]] double shutdown_temp_c() const { return shutdown_temp_c_; }
  [[nodiscard]] double aging_reference_c() const { return aging_reference_c_; }
  /// Per-CPU static power (the power-law replay's constant term).
  [[nodiscard]] double static_power_w() const { return static_power_w_; }
  [[nodiscard]] int total_cores() const { return total_cores_; }
  [[nodiscard]] int cpu_count() const { return cpu_count_; }
  [[nodiscard]] HeatRouting routing() const { return routing_; }

 private:
  // The per-tick fields first: one cache line serves the whole family.
  std::vector<double> tables_;
  std::size_t n_pstates_;
  double standby_power_w_;
  double throttle_start_c_;
  double shutdown_temp_c_;
  double aging_reference_c_;
  double static_power_w_;
  int total_cores_;
  int cpu_count_;
  HeatRouting routing_;
  ServerSpec spec_;
  CpuModel cpu_model_;
};

/// Runtime state of one chassis. The middleware sets the P-state and the
/// number of busy cores; the physics coupling reads power/heat and feeds
/// back the room (inlet) temperature. The catalogue data is the interned
/// `ServerModel` of the spec; the server itself carries only operating state.
class DfServer {
 public:
  explicit DfServer(const ServerModel& model);
  explicit DfServer(ServerSpec spec) : DfServer(ServerModel::intern(std::move(spec))) {}

  [[nodiscard]] const ServerSpec& spec() const { return model_->spec(); }
  [[nodiscard]] const CpuModel& cpu_model() const { return model_->cpu_model(); }

  // --- control plane (called by the middleware) ---

  /// Gate motherboards on/off. Gating off drops busy cores to zero.
  void set_powered(bool on) {
    if (on == powered_ && (on || (busy_cores_ == 0 && filler_cores_ == 0))) return;
    powered_ = on;
    if (!on) {
      busy_cores_ = 0;
      filler_cores_ = 0;
    }
    refresh_operating();
  }
  [[nodiscard]] bool powered() const { return powered_; }

  /// Select the DVFS P-state for all CPUs (index into the CPU spec).
  void set_pstate(std::size_t ps) {
    if (ps >= model_->pstate_count()) throw std::out_of_range("DfServer::set_pstate");
    if (ps == pstate_) return;
    pstate_ = static_cast<std::uint32_t>(ps);
    refresh_operating();
  }
  [[nodiscard]] std::size_t pstate() const { return pstate_; }

  /// Report how many cores are currently executing work (0..usable cores).
  void set_busy_cores(int cores) {
    if (cores < 0 || cores > total_cores()) {
      throw std::invalid_argument("DfServer::set_busy_cores: out of range");
    }
    if (cores == busy_cores_) return;
    busy_cores_ = cores;
    refresh_operating();
  }
  [[nodiscard]] int busy_cores() const { return busy_cores_; }

  /// Space-heating filler load: cores kept busy with low-priority synthetic
  /// work (Liu et al.'s "seasonal applications" class) purely to emit the
  /// requested heat. Filler yields to real work: the effective load is
  /// min(total, busy + filler).
  void set_filler_cores(int cores) {
    if (cores < 0 || cores > total_cores()) {
      throw std::invalid_argument("DfServer::set_filler_cores: out of range");
    }
    if (cores == filler_cores_) return;
    filler_cores_ = cores;
    refresh_operating();
  }
  [[nodiscard]] int filler_cores() const { return filler_cores_; }

  /// Total core count across all CPUs (== spec().total_cores()).
  [[nodiscard]] int total_cores() const { return model_->total_cores(); }

  /// Standby draw when gated off (== spec().standby_power).
  [[nodiscard]] util::Watts standby_power() const {
    return util::Watts{model_->standby_power_w()};
  }

  /// Cores drawing dynamic power right now (real + filler, capped).
  [[nodiscard]] int loaded_cores() const {
    if (!powered_ || shut_down_) return 0;
    return std::min(total_cores(), busy_cores_ + filler_cores_);
  }

  // --- physics coupling ---

  /// Update the inlet (room/loop) temperature; applies the free-cooling
  /// throttle, possibly reducing the *effective* P-state or gating off.
  void set_inlet_temperature(util::Celsius t) {
    inlet_ = t;
    const bool was_shut = shut_down_;
    const std::size_t old_cap = thermal_cap_;
    refresh_thermal();
    if (shut_down_) {
      busy_cores_ = 0;
      filler_cores_ = 0;
    }
    // Power and junction rise depend on the inlet only through the cap and
    // the shutdown flag; skip the refresh while the throttle stays inactive.
    if (shut_down_ != was_shut || thermal_cap_ != old_cap) refresh_operating();
  }
  [[nodiscard]] util::Celsius inlet_temperature() const { return inlet_; }

  /// True if the free-cooling envelope has forced a full thermal shutdown.
  [[nodiscard]] bool thermally_shut_down() const { return shut_down_; }

  /// The P-state actually in effect after thermal capping.
  [[nodiscard]] std::size_t effective_pstate() const { return eff_pstate_; }

  /// Instantaneous electrical draw (== heat output, free cooling does no
  /// external work).
  [[nodiscard]] util::Watts power() const { return util::Watts{power_w_}; }

  /// Cores usable right now (0 when gated or thermally shut down).
  [[nodiscard]] int usable_cores() const {
    if (!powered_ || shut_down_) return 0;
    return total_cores();
  }

  /// Per-core speed in gigacycles/s at the effective P-state.
  [[nodiscard]] double core_speed_gcps() const {
    if (!powered_ || shut_down_) return 0.0;
    return core_speed_gcps_;
  }

  /// Highest chassis power achievable right now (all usable cores busy at
  /// the effective P-state) — the ceiling the heat regulator can reach.
  [[nodiscard]] util::Watts max_power_now() const {
    if (!powered_ || shut_down_) return standby_power();
    return util::Watts{model_->tables()[eff_pstate_]};
  }

  /// Lowest active chassis power (powered, zero busy cores).
  [[nodiscard]] util::Watts idle_power() const {
    if (!powered_ || shut_down_) return standby_power();
    return util::Watts{model_->tables()[model_->pstate_count() + eff_pstate_]};
  }

  /// Choose the highest P-state so that full-chassis-busy power stays
  /// within `cap`; gates off if even the lowest state busts the cap and
  /// `allow_gating` is set. Returns the chosen effective power ceiling.
  util::Watts apply_power_cap(util::Watts cap, bool allow_gating = true);

  // --- accounting (advanced by the physics tick) ---

  /// Integrate energy and aging over `dt` at current settings. `heating_
  /// season` selects the dual-pipe routing direction. Header-inline: this
  /// is the single hottest call of the fleet-physics sweep.
  void advance(util::Seconds dt, bool heating_season) {
    if (dt.value() < 0.0) throw std::invalid_argument("DfServer::advance: negative dt");
    const util::Joules e = util::Watts{power_w_} * dt;
    energy_ += e;
    switch (model_->routing()) {
      case HeatRouting::kIndoor:
      case HeatRouting::kWaterLoop:
        heat_indoor_ += e;
        break;
      case HeatRouting::kDualPipe:
        (heating_season ? heat_indoor_ : heat_outdoor_) += e;
        break;
    }
    // Arrhenius-style stress accumulation: doubles per +10 K of junction
    // temperature over the reference. The accelerator uses fast_exp2: the
    // stress-hour tally is an engineering estimate (never telemetry), so a
    // ~1e-11-relative-error 2^x is more than accurate enough and avoids a
    // libm call per room-tick.
    const double tj = junction_temperature().value();
    const double accel = detail::fast_exp2((tj - model_->aging_reference_c()) / 10.0);
    stress_hours_ += accel * dt.value() / 3600.0;
  }

  [[nodiscard]] util::Joules energy_consumed() const { return energy_; }
  [[nodiscard]] util::Joules heat_indoor() const { return heat_indoor_; }
  [[nodiscard]] util::Joules heat_outdoor() const { return heat_outdoor_; }

  /// Estimated junction temperature: inlet plus a load-dependent rise.
  /// Free-cooled parts run hot: ~25 K rise at idle clocks, up to ~45 K at
  /// full load and top frequency (rise_k_ = 20 K * util * freq ratio).
  [[nodiscard]] util::Celsius junction_temperature() const {
    if (!powered_ || shut_down_) return inlet_;
    return util::Celsius{inlet_.value() + 25.0 + rise_k_};
  }

  /// Accumulated aging in "equivalent stress hours": wall hours weighted by
  /// 2^((Tj - Tref)/10). A part rated for ~5 years at Tref has consumed its
  /// life when this reaches ~43800.
  [[nodiscard]] double aging_stress_hours() const { return stress_hours_; }

  /// Full-chassis-busy power if the P-state were `ps` (same thermal cap as
  /// max_power_now). Lets the heat regulator scan the ladder without
  /// mutating the server.
  [[nodiscard]] util::Watts max_power_at(std::size_t ps) const {
    if (!powered_ || shut_down_) return standby_power();
    return util::Watts{model_->tables()[std::min<std::size_t>(ps, thermal_cap_)]};
  }

  /// Idle (zero busy cores) chassis power if the P-state were `ps`, with
  /// the same thermal capping as idle_power() after set_pstate(ps).
  [[nodiscard]] util::Watts idle_power_at(std::size_t ps) const {
    if (!powered_ || shut_down_) return standby_power();
    return util::Watts{
        model_->tables()[model_->pstate_count() + std::min<std::size_t>(ps, thermal_cap_)]};
  }

  /// Apply a P-state and filler-core choice as one control action with a
  /// single operating-point refresh. Equivalent to set_pstate(ps) followed
  /// by set_filler_cores(filler) — power, junction rise and core speed are
  /// pure functions of the final state, so collapsing the intermediate
  /// refresh changes nothing observable. This is the heat regulator's
  /// per-room-per-tick fast path.
  void set_pstate_and_filler(std::size_t ps, int filler) {
    if (ps >= model_->pstate_count()) throw std::out_of_range("DfServer::set_pstate");
    if (filler < 0 || filler > total_cores()) {
      throw std::invalid_argument("DfServer::set_filler_cores: out of range");
    }
    if (ps == pstate_ && filler == filler_cores_) return;
    pstate_ = static_cast<std::uint32_t>(ps);
    filler_cores_ = filler;
    refresh_operating();
  }

  /// Lowest P-state whose full-load power reaches `want` (the regulator's
  /// coarse stage), i.e. the first ps with max_power_at(ps) >= want, or the
  /// top state when none qualifies. Candidates above the thermal cap repeat
  /// the capped entry, so the scan stops at the cap.
  [[nodiscard]] std::size_t min_pstate_for(util::Watts want) const {
    const std::size_t last = model_->pstate_count() - 1;
    if (!powered_ || shut_down_) return model_->standby_power_w() >= want.value() ? 0 : last;
    const std::size_t top = std::min<std::size_t>(last, thermal_cap_);
    const double* const full_w = model_->tables();
    for (std::size_t ps = 0; ps <= top; ++ps) {
      if (full_w[ps] >= want.value()) return ps;
    }
    return last;
  }

 private:
  /// Recompute the inlet-driven caches (shutdown flag + thermal P-state
  /// cap); cascades into refresh_operating() only when the cap moved.
  /// Header-inline: runs on every set_inlet_temperature, i.e. once per
  /// room per physics tick.
  void refresh_thermal() {
    const ServerModel& m = *model_;
    shut_down_ = inlet_.value() >= m.shutdown_temp_c();
    if (inlet_.value() <= m.throttle_start_c()) {
      thermal_cap_ = static_cast<std::uint32_t>(m.pstate_count() - 1);  // throttle inactive
    } else if (shut_down_) {
      thermal_cap_ = 0;
    } else {
      // Linear derating across the throttle window: the available fraction
      // of the P-state ladder shrinks as the inlet approaches shutdown.
      const double window = m.shutdown_temp_c() - m.throttle_start_c();
      const double excess = inlet_.value() - m.throttle_start_c();
      const double fraction = 1.0 - excess / window;
      const auto ladder = static_cast<double>(m.pstate_count() - 1);
      thermal_cap_ = static_cast<std::uint32_t>(std::floor(ladder * fraction));
    }
  }

  /// Recompute the operating-point caches (effective P-state, chassis
  /// power, junction rise) after any control-plane change. The per-CPU
  /// power law is replayed from the cached static/dynamic coefficients —
  /// the same doubles CpuModel::power reads — so results stay bit-exact.
  void refresh_operating() {
    const ServerModel& m = *model_;
    // Sections of the merged per-P-state table (see ServerModel::tables).
    const std::size_t n = m.pstate_count();
    const double* const freq_ratio = m.tables() + 2 * n;
    const double* const dyn_coeff = m.tables() + 3 * n;
    const double* const core_speed = m.tables() + 4 * n;
    eff_pstate_ = std::min(pstate_, thermal_cap_);
    core_speed_gcps_ = core_speed[eff_pstate_];
    if (!powered_ || shut_down_) {
      power_w_ = m.standby_power_w();
      rise_k_ = 0.0;  // junction_temperature falls back to the inlet
      return;
    }
    const int loaded = std::min(m.total_cores(), busy_cores_ + filler_cores_);
    const double util_frac = static_cast<double>(loaded) / static_cast<double>(m.total_cores());
    power_w_ = (m.static_power_w() + dyn_coeff[eff_pstate_] * util_frac) *
               static_cast<double>(m.cpu_count());
    rise_k_ = 20.0 * util_frac * freq_ratio[eff_pstate_];
  }

  /// The family's catalogue data (interned, never freed); every spec
  /// constant the tick reads comes from here.
  const ServerModel* model_;

  // advance() path.
  double power_w_ = 0.0;         ///< == power().value()
  util::Joules energy_{0.0};
  util::Joules heat_indoor_{0.0};
  util::Joules heat_outdoor_{0.0};
  double stress_hours_ = 0.0;
  util::Celsius inlet_{20.0};
  double rise_k_ = 0.0;          ///< junction rise beyond inlet + 25 K

  // Control/throttle path (regulate -> set_* -> refresh_*).
  double core_speed_gcps_ = 0.0; ///< core speed at eff_pstate_
  std::uint32_t pstate_ = 0;
  std::uint32_t thermal_cap_ = 0;  ///< P-state cap from the free-cooling throttle
  std::uint32_t eff_pstate_ = 0;
  int busy_cores_ = 0;
  int filler_cores_ = 0;
  bool powered_ = true;
  bool shut_down_ = false;
};

}  // namespace df3::hw
