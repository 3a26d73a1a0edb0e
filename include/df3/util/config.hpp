#pragma once
/// \file config.hpp
/// \brief Minimal key=value scenario-file parser for the df3run tool.
///
/// Format: one `key = value` per line; `#` starts a comment; blank lines
/// ignored; keys and values are trimmed. Values stay strings until typed
/// accessors convert them (with range/format errors surfaced as
/// std::invalid_argument naming the key).
///
/// The parser also tracks which keys were *accessed* (via has/get_*), so a
/// tool can demand exhaustion after reading its known keys: a scenario typo
/// like `routting = heat-aware` then fails loudly (`check_exhausted`)
/// instead of silently running the default.

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace df3::util {

class KeyValueConfig {
 public:
  /// Parse from a stream. Throws std::invalid_argument on malformed lines
  /// (no '='), duplicate keys, or empty keys.
  [[nodiscard]] static KeyValueConfig parse(std::istream& is);

  /// Parse a file by path; throws std::runtime_error if unreadable.
  [[nodiscard]] static KeyValueConfig parse_file(const std::string& path);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed accessors with defaults; conversion failures throw
  /// std::invalid_argument naming the key. get_double also rejects NaN and
  /// infinities.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  /// Accepts true/false/1/0/yes/no (case-insensitive).
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// All keys, sorted — callers can reject unknown keys for typo safety.
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Keys present in the file that no has/get_* call ever asked about,
  /// sorted. These are almost always typos.
  [[nodiscard]] std::vector<std::string> unused_keys() const;

  /// Print one warning line per unused key to `os`; returns how many.
  std::size_t warn_unused(std::ostream& os) const;

  /// Throw std::invalid_argument naming every unused key. Call after the
  /// tool has read all the keys it understands.
  void check_exhausted() const;

 private:
  std::map<std::string, std::string> values_;
  /// Keys ever passed to has/get_* (whether present or not) — mutable
  /// because lookups are semantically const.
  mutable std::set<std::string> accessed_;
};

}  // namespace df3::util
