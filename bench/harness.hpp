#pragma once
/// \file harness.hpp
/// \brief Shared helpers for the experiment harnesses (one binary per paper
///        figure/table/claim — see DESIGN.md section 4).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "df3/df3.hpp"

namespace df3::bench {

/// Uniform banner: which experiment, what the paper says, what we measure.
inline void banner(std::string_view experiment, std::string_view paper_claim) {
  std::printf("################################################################\n");
  std::printf("# %.*s\n", static_cast<int>(experiment.size()), experiment.data());
  std::printf("# paper: %.*s\n", static_cast<int>(paper_claim.size()), paper_claim.data());
  std::printf("################################################################\n\n");
}

/// Positive integers from the comma-separated environment variable `name`,
/// or from `fallback` when it is unset (the scale benches' size lists).
inline std::vector<std::size_t> env_counts(const char* name, const char* fallback) {
  const char* env = std::getenv(name);
  const std::string csv = env != nullptr ? env : fallback;
  std::vector<std::size_t> counts;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    const std::string tok = csv.substr(pos, end - pos);
    if (!tok.empty()) {
      const unsigned long long v = std::strtoull(tok.c_str(), nullptr, 10);
      if (v > 0) counts.push_back(static_cast<std::size_t>(v));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return counts;
}

/// A city of identical Q.rad buildings with a common seed/season.
/// (unique_ptr because the platform owns a pinned Simulation.)
inline std::unique_ptr<core::Df3Platform> make_city(std::uint64_t seed, int start_month,
                                                    core::GatingPolicy gating, int buildings,
                                                    int rooms,
                                                    core::PlatformConfig base = {}) {
  base.seed = seed;
  base.start_time = thermal::start_of_month(start_month);
  base.regulator.gating = gating;
  auto city = std::make_unique<core::Df3Platform>(std::move(base));
  for (int i = 0; i < buildings; ++i) {
    core::BuildingConfig b;
    b.name = "b" + std::to_string(i);
    b.rooms = rooms;
    city->add_building(b);
  }
  return city;
}

}  // namespace df3::bench
