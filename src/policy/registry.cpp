#include "df3/policy/registry.hpp"

#include <stdexcept>

namespace df3::policy {

namespace {

/// Join map keys into "a, b, c" for error messages.
template <class Map>
std::string known_names(const Map& m) {
  std::string out;
  for (const auto& [name, factory] : m) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

template <class Map, class Factory>
void register_in(Map& m, const char* seam, const std::string& name, Factory factory) {
  if (name.empty()) throw std::invalid_argument(std::string("policy registry: empty ") + seam +
                                                " policy name");
  if (!factory) throw std::invalid_argument("policy registry: null factory for " + name);
  if (!m.emplace(name, std::move(factory)).second) {
    throw std::invalid_argument(std::string("policy registry: duplicate ") + seam +
                                " policy '" + name + "'");
  }
}

template <class Map>
auto find_in(const Map& m, const char* seam, const std::string& name) {
  const auto it = m.find(name);
  if (it == m.end()) {
    throw std::invalid_argument(std::string("policy registry: unknown ") + seam + " policy '" +
                                name + "' (known: " + known_names(m) + ")");
  }
  return it;
}

template <class Map>
auto make_from(const Map& m, const char* seam, const std::string& name) {
  auto made = find_in(m, seam, name)->second();
  if (!made) throw std::logic_error("policy registry: factory for '" + name + "' returned null");
  return made;
}

template <class Map>
std::vector<std::string> names_of(const Map& m) {
  std::vector<std::string> out;
  out.reserve(m.size());
  for (const auto& [name, factory] : m) out.push_back(name);
  return out;
}

}  // namespace

void Registry::register_rung(const std::string& name, RungFactory factory) {
  register_in(rungs_, "rung", name, std::move(factory));
}

void Registry::register_routing(const std::string& name, RoutingFactory factory) {
  register_in(routings_, "routing", name, std::move(factory));
}

void Registry::register_peer_selector(const std::string& name, PeerFactory factory) {
  register_in(peers_, "peer-selector", name, std::move(factory));
}

void Registry::register_placement(const std::string& name, PlacementFactory factory) {
  register_in(placements_, "placement", name, std::move(factory));
}

std::unique_ptr<PeakRung> Registry::make_rung(const std::string& name) const {
  return make_from(rungs_, "rung", name);
}

std::vector<std::unique_ptr<PeakRung>> Registry::make_ladder(
    const std::vector<std::string>& names) const {
  std::vector<std::unique_ptr<PeakRung>> ladder;
  ladder.reserve(names.size());
  for (const auto& name : names) ladder.push_back(make_rung(name));
  return ladder;
}

std::unique_ptr<RoutingPolicy> Registry::make_routing(const std::string& name) const {
  return make_from(routings_, "routing", name);
}

std::unique_ptr<PeerSelector> Registry::make_peer_selector(const std::string& name) const {
  return make_from(peers_, "peer-selector", name);
}

std::unique_ptr<PlacementPolicy> Registry::make_placement(const std::string& name) const {
  return make_from(placements_, "placement", name);
}

void Registry::require_rung(const std::string& name) const {
  (void)find_in(rungs_, "rung", name);
}

void Registry::require_peer_selector(const std::string& name) const {
  (void)find_in(peers_, "peer-selector", name);
}

void Registry::require_placement(const std::string& name) const {
  (void)find_in(placements_, "placement", name);
}

std::vector<std::string> Registry::rung_names() const { return names_of(rungs_); }
std::vector<std::string> Registry::routing_names() const { return names_of(routings_); }
std::vector<std::string> Registry::peer_selector_names() const { return names_of(peers_); }
std::vector<std::string> Registry::placement_names() const { return names_of(placements_); }

Registry& Registry::global() {
  static Registry r = [] {
    Registry reg;
    detail::register_builtins(reg);
    return reg;
  }();
  return r;
}

std::vector<std::string> Registry::split_list(std::string_view csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string_view::npos) comma = csv.size();
    std::string_view item = csv.substr(pos, comma - pos);
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t')) {
      item.remove_prefix(1);
    }
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t')) {
      item.remove_suffix(1);
    }
    if (!item.empty()) out.emplace_back(item);
    pos = comma + 1;
  }
  return out;
}

}  // namespace df3::policy
