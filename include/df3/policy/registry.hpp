#pragma once
/// \file registry.hpp
/// \brief String-keyed factory registry for the four policy seams.
///
/// Scenarios select policies by name (`routing = heat-aware`,
/// `peak_ladder = preempt,horizontal,delay`, `peer_select = least-loaded`,
/// `placement = best-fit`); the registry turns those names into fresh
/// strategy instances. `global()` comes preloaded with the built-in
/// policies; experiments may register additional ones (names are unique —
/// re-registering an existing name throws).
///
/// Built-ins:
///
///   seam        | names
///   ------------|---------------------------------------------------------
///   rung        | preempt, horizontal, vertical, delay, grid-shed
///   routing     | df-first, dc-only, season-aware, heat-aware, least-loaded,
///               | carbon-aware, price-aware
///   peer        | ring, least-loaded, greenest
///   placement   | first-fit, best-fit
///
/// Unknown names throw std::invalid_argument listing the known names, so a
/// scenario typo fails loudly at construction instead of silently running
/// the default.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "df3/policy/policy.hpp"

namespace df3::policy {

class Registry {
 public:
  using RungFactory = std::function<std::unique_ptr<PeakRung>()>;
  using RoutingFactory = std::function<std::unique_ptr<RoutingPolicy>()>;
  using PeerFactory = std::function<std::unique_ptr<PeerSelector>()>;
  using PlacementFactory = std::function<std::unique_ptr<PlacementPolicy>()>;

  void register_rung(const std::string& name, RungFactory factory);
  void register_routing(const std::string& name, RoutingFactory factory);
  void register_peer_selector(const std::string& name, PeerFactory factory);
  void register_placement(const std::string& name, PlacementFactory factory);

  [[nodiscard]] std::unique_ptr<PeakRung> make_rung(const std::string& name) const;
  /// Build a whole ladder from rung names, in order.
  [[nodiscard]] std::vector<std::unique_ptr<PeakRung>> make_ladder(
      const std::vector<std::string>& names) const;
  [[nodiscard]] std::unique_ptr<RoutingPolicy> make_routing(const std::string& name) const;
  [[nodiscard]] std::unique_ptr<PeerSelector> make_peer_selector(const std::string& name) const;
  [[nodiscard]] std::unique_ptr<PlacementPolicy> make_placement(const std::string& name) const;

  /// Throw what the matching make_* throws for an unknown name, without
  /// building a policy object.
  void require_rung(const std::string& name) const;
  void require_peer_selector(const std::string& name) const;
  void require_placement(const std::string& name) const;

  [[nodiscard]] std::vector<std::string> rung_names() const;
  [[nodiscard]] std::vector<std::string> routing_names() const;
  [[nodiscard]] std::vector<std::string> peer_selector_names() const;
  [[nodiscard]] std::vector<std::string> placement_names() const;

  /// Process-wide registry, preloaded with the built-in policies.
  static Registry& global();

  /// Split a scenario-file list ("preempt, horizontal,delay") into trimmed
  /// names; empty elements are dropped.
  static std::vector<std::string> split_list(std::string_view csv);

 private:
  // std::map keeps *_names() (and thus error messages) deterministically
  // sorted.
  std::map<std::string, RungFactory> rungs_;
  std::map<std::string, RoutingFactory> routings_;
  std::map<std::string, PeerFactory> peers_;
  std::map<std::string, PlacementFactory> placements_;
};

namespace detail {
/// Defined in builtin.cpp; called once by Registry::global().
void register_builtins(Registry& r);
}  // namespace detail

}  // namespace df3::policy
