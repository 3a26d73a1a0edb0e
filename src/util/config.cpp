#include "df3/util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace df3::util {

namespace {
std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}
}  // namespace

KeyValueConfig KeyValueConfig::parse(std::istream& is) {
  KeyValueConfig out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string body = trim(line);
    if (body.empty()) continue;
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("config line " + std::to_string(lineno) + ": expected key=value");
    }
    const std::string key = trim(body.substr(0, eq));
    const std::string value = trim(body.substr(eq + 1));
    if (key.empty()) {
      throw std::invalid_argument("config line " + std::to_string(lineno) + ": empty key");
    }
    if (!out.values_.emplace(key, value).second) {
      throw std::invalid_argument("config line " + std::to_string(lineno) + ": duplicate key '" +
                                  key + "'");
    }
  }
  return out;
}

KeyValueConfig KeyValueConfig::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file: " + path);
  return parse(in);
}

bool KeyValueConfig::has(const std::string& key) const {
  accessed_.insert(key);
  return values_.contains(key);
}

std::string KeyValueConfig::get_string(const std::string& key,
                                       const std::string& fallback) const {
  accessed_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double KeyValueConfig::get_double(const std::string& key, double fallback) const {
  accessed_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double v = 0.0;
  try {
    std::size_t used = 0;
    v = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing characters");
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key + "': not a number: " + it->second);
  }
  // std::stod reads "nan" and "inf", which every "<= 0" guard downstream
  // lets through.
  if (!std::isfinite(v)) {
    throw std::invalid_argument("config key '" + key + "': not a finite number: " + it->second);
  }
  return v;
}

long KeyValueConfig::get_int(const std::string& key, long fallback) const {
  accessed_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const long v = std::stol(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key + "': not an integer: " + it->second);
  }
}

bool KeyValueConfig::get_bool(const std::string& key, bool fallback) const {
  accessed_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string v = lower(it->second);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("config key '" + key + "': not a boolean: " + it->second);
}

std::vector<std::string> KeyValueConfig::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::vector<std::string> KeyValueConfig::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (!accessed_.contains(k)) out.push_back(k);
  }
  return out;
}

std::size_t KeyValueConfig::warn_unused(std::ostream& os) const {
  const auto unused = unused_keys();
  for (const auto& k : unused) {
    os << "warning: unrecognized config key '" << k << "' was ignored\n";
  }
  return unused.size();
}

void KeyValueConfig::check_exhausted() const {
  const auto unused = unused_keys();
  if (unused.empty()) return;
  std::string msg = "unrecognized config key(s):";
  for (const auto& k : unused) msg += " '" + k + "'";
  throw std::invalid_argument(msg);
}

}  // namespace df3::util
