#include "df3/workload/trace.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace df3::workload {

namespace {
constexpr char kHeader[] =
    "id,flow,arrival,app,work_gigacycles,tasks,comm_fraction,input_bytes,output_bytes,"
    "deadline_s,preemptible,privacy_sensitive";

[[noreturn]] void bad_field(std::size_t lineno, const char* field, const std::string& text) {
  throw std::invalid_argument("Trace::load: line " + std::to_string(lineno) + ": field " + field +
                              " '" + text + "' is malformed or out of range");
}

/// One field parsed as a whole number in [lo, hi]. A finite `hi` rejects
/// inf, and NaN fails the range test.
template <class T>
T parse_field(const std::string& text, std::size_t lineno, const char* field, T lo, T hi) {
  T v{};
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || ptr != last || !(v >= lo && v <= hi)) bad_field(lineno, field, text);
  return v;
}

Flow flow_from_name(const std::string& s, std::size_t lineno) {
  if (s == "cloud") return Flow::kCloud;
  if (s == "edge-direct") return Flow::kEdgeDirect;
  if (s == "edge-indirect") return Flow::kEdgeIndirect;
  bad_field(lineno, "flow", s);
}
}  // namespace

Trace::Trace(std::vector<Request> requests) : requests_(std::move(requests)) {
  for (std::size_t i = 1; i < requests_.size(); ++i) {
    if (requests_[i].arrival < requests_[i - 1].arrival) {
      throw std::invalid_argument("Trace: arrivals must be nondecreasing");
    }
  }
}

void Trace::add(Request r) {
  if (!requests_.empty() && r.arrival < requests_.back().arrival) {
    throw std::invalid_argument("Trace::add: arrival precedes the last request");
  }
  requests_.push_back(std::move(r));
}

double Trace::total_work() const {
  double total = 0.0;
  for (const auto& r : requests_) total += r.total_work();
  return total;
}

void Trace::save(std::ostream& os) const {
  for (const auto& r : requests_) {
    if (r.app.find_first_of(",\n") != std::string::npos) {
      throw std::invalid_argument("Trace::save: request " + std::to_string(r.id) +
                                  ": app contains ',' or a newline");
    }
  }
  // max_digits10 keeps the round trip bit-exact for doubles.
  const auto old_precision = os.precision(std::numeric_limits<double>::max_digits10);
  os << kHeader << '\n';
  for (const auto& r : requests_) {
    os << r.id << ',' << flow_name(r.flow) << ',' << r.arrival << ',' << r.app << ','
       << r.work_gigacycles << ',' << r.tasks << ',' << r.comm_fraction << ','
       << r.input_size.value() << ',' << r.output_size.value() << ',';
    (r.deadline_s ? os << *r.deadline_s : os << '-')
        << ',' << (r.preemptible ? 1 : 0) << ',' << (r.privacy_sensitive ? 1 : 0) << '\n';
  }
  os.precision(old_precision);
}

Trace Trace::load(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    throw std::invalid_argument("Trace::load: missing or wrong header");
  }
  constexpr double kMin = std::numeric_limits<double>::denorm_min();  // deadlines are > 0
  constexpr double kMax = std::numeric_limits<double>::max();
  std::vector<Request> requests;
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(ls, field, ',')) fields.push_back(field);
    if (fields.size() != 12) {
      throw std::invalid_argument("Trace::load: line " + std::to_string(lineno) +
                                  ": expected 12 fields");
    }
    Request r;
    r.id = parse_field(fields[0], lineno, "id", std::uint64_t{0}, ~std::uint64_t{0});
    r.flow = flow_from_name(fields[1], lineno);
    r.arrival = parse_field(fields[2], lineno, "arrival", 0.0, kMax);
    if (!requests.empty() && r.arrival < requests.back().arrival) {
      throw std::invalid_argument("Trace::load: line " + std::to_string(lineno) +
                                  ": field arrival '" + fields[2] +
                                  "' precedes the previous row's arrival");
    }
    r.app = fields[3];
    r.work_gigacycles = parse_field(fields[4], lineno, "work_gigacycles", 0.0, kMax);
    r.tasks = parse_field(fields[5], lineno, "tasks", 1, std::numeric_limits<int>::max());
    r.comm_fraction = parse_field(fields[6], lineno, "comm_fraction", 0.0, 1.0);
    r.input_size = util::Bytes{parse_field(fields[7], lineno, "input_bytes", 0.0, kMax)};
    r.output_size = util::Bytes{parse_field(fields[8], lineno, "output_bytes", 0.0, kMax)};
    if (fields[9] != "-") r.deadline_s = parse_field(fields[9], lineno, "deadline_s", kMin, kMax);
    r.preemptible = parse_field(fields[10], lineno, "preemptible", 0, 1) == 1;
    r.privacy_sensitive = parse_field(fields[11], lineno, "privacy_sensitive", 0, 1) == 1;
    requests.push_back(std::move(r));
  }
  return Trace(std::move(requests));
}

TraceReplayer::TraceReplayer(sim::Simulation& sim, std::string name, Trace trace, Sink sink)
    : sim::Entity(sim, std::move(name)), trace_(std::move(trace)), sink_(std::move(sink)) {
  if (!sink_) throw std::invalid_argument("TraceReplayer: null sink");
}

void TraceReplayer::start() {
  if (started_) throw std::logic_error("TraceReplayer::start: already started");
  started_ = true;
  remaining_ = trace_.size();
  for (const Request& r : trace_.requests()) {
    const sim::Time at = std::max(r.arrival, now());
    sim().schedule_at(at, [this, r] {
      --remaining_;
      sink_(r);
    });
  }
}

}  // namespace df3::workload
