// df3trace — journey-tree reconstruction and critical-path analysis over a
// df3run Chrome trace export.
//
// Reads the JSON written by `df3run --trace`, pairs every journey-linked
// record (args carry seq/parent/attr, see DESIGN.md section 14) back into
// causal trees, and reports where each flow's requests spent their time:
//
//   ./build/tools/df3trace trace.json
//   ./build/tools/df3trace trace.json --json | jq .flows
//   ./build/tools/df3run scenarios/winter_city.cfg --trace trace.json &&
//       ./build/tools/df3trace trace.json --json
//
// Flags:
//   --json       machine-readable report instead of the human tables
//   --partial    analyze even when spans are missing (ring overwrote
//                journey records, or links lost their partner); without it
//                such traces are refused with exit code 2
//   --top N      show the N slowest complete journeys with their critical
//                paths (human report only; default 3, 0 disables)
//
// Exit codes: 0 report written, 1 usage / IO / parse error, 2 the trace has
// incomplete journey trees and --partial was not given.
//
// The per-flow / per-rung / per-peer percentiles come from the same
// `util::PercentileSampler` sketch (1 % relative error) the in-process SLO
// monitor uses, so offline and live numbers are bucket-for-bucket comparable.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "df3/obs/journey.hpp"
#include "df3/obs/trace.hpp"
#include "df3/util/stats.hpp"
#include "df3/util/table.hpp"

namespace {

namespace obs = df3::obs;

// --- minimal JSON scanner ----------------------------------------------------
//
// The export schema is in-tree (obs/export.cpp), so a small recursive
// scanner that pulls out the handful of fields we need beats a general DOM:
// a 1M-event trace parses in one pass without materializing anything.

struct Cursor {
  const char* p;
  const char* end;
  [[nodiscard]] bool eof() const { return p >= end; }
  void ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  bool accept(char c) {
    ws();
    if (eof() || *p != c) return false;
    ++p;
    return true;
  }
};

[[noreturn]] void parse_fail(const Cursor& c, const char* what) {
  std::fprintf(stderr, "df3trace: malformed trace JSON (%s at byte %zu)\n", what,
               static_cast<std::size_t>(c.end - c.p));
  std::exit(1);
}

std::string parse_string(Cursor& c) {
  if (!c.accept('"')) parse_fail(c, "expected string");
  std::string out;
  while (!c.eof() && *c.p != '"') {
    char ch = *c.p++;
    if (ch == '\\' && !c.eof()) {
      const char esc = *c.p++;
      switch (esc) {
        case 'n': ch = '\n'; break;
        case 't': ch = '\t'; break;
        case 'u':
          // Only control characters are \u-escaped by the exporter; decode
          // the low byte and move past the four hex digits.
          if (c.end - c.p >= 4) {
            char hex[5] = {c.p[0], c.p[1], c.p[2], c.p[3], 0};
            ch = static_cast<char>(std::strtol(hex, nullptr, 16));
            c.p += 4;
          }
          break;
        default: ch = esc; break;
      }
    }
    out += ch;
  }
  if (!c.accept('"')) parse_fail(c, "unterminated string");
  return out;
}

double parse_number(Cursor& c) {
  c.ws();
  char* next = nullptr;
  const double v = std::strtod(c.p, &next);
  if (next == c.p) parse_fail(c, "expected number");
  c.p = next;
  return v;
}

/// Request/journey ids use all 64 bits (hashed source name in the high
/// word); going through a double would collapse ids above 2^53.
std::uint64_t parse_u64(Cursor& c) {
  c.ws();
  char* next = nullptr;
  const std::uint64_t v = std::strtoull(c.p, &next, 10);
  if (next == c.p) parse_fail(c, "expected integer");
  c.p = next;
  return v;
}

void skip_value(Cursor& c);

void skip_composite(Cursor& c, char open, char close) {
  if (!c.accept(open)) parse_fail(c, "expected composite");
  if (c.accept(close)) return;
  do {
    if (open == '{') {
      parse_string(c);
      if (!c.accept(':')) parse_fail(c, "expected ':'");
    }
    skip_value(c);
  } while (c.accept(','));
  if (!c.accept(close)) parse_fail(c, "unterminated composite");
}

void skip_value(Cursor& c) {
  c.ws();
  if (c.eof()) parse_fail(c, "unexpected end");
  switch (*c.p) {
    case '"': parse_string(c); return;
    case '{': skip_composite(c, '{', '}'); return;
    case '[': skip_composite(c, '[', ']'); return;
    case 't': c.p += 4; return;
    case 'f': c.p += 5; return;
    case 'n': c.p += 4; return;
    default: parse_number(c); return;
  }
}

/// One trace event, only the fields the journey plane needs.
struct Ev {
  std::string name;
  std::string args_name;  ///< metadata payload (thread/process names)
  char ph = 0;
  long pid = 0;
  long tid = 0;
  double ts_us = 0.0;
  double dur_us = -1.0;
  std::uint64_t id = 0;
  long long seq = -1;     ///< -1: not a journey-linked record
  long long parent = -1;  ///< -1: journey root
  std::uint64_t attr = 0;
  bool orphan = false;
};

void parse_args(Cursor& c, Ev& ev) {
  if (!c.accept('{')) parse_fail(c, "expected args object");
  if (c.accept('}')) return;
  do {
    const std::string key = parse_string(c);
    if (!c.accept(':')) parse_fail(c, "expected ':'");
    if (key == "id") {
      ev.id = parse_u64(c);
    } else if (key == "seq") {
      ev.seq = static_cast<long long>(parse_number(c));
    } else if (key == "parent") {
      ev.parent = static_cast<long long>(parse_number(c));
    } else if (key == "attr") {
      ev.attr = static_cast<std::uint64_t>(parse_number(c));
    } else if (key == "orphan") {
      ev.orphan = parse_number(c) != 0.0;
    } else if (key == "name") {
      ev.args_name = parse_string(c);
    } else {
      skip_value(c);
    }
  } while (c.accept(','));
  if (!c.accept('}')) parse_fail(c, "unterminated args");
}

void parse_event(Cursor& c, Ev& ev) {
  if (!c.accept('{')) parse_fail(c, "expected event object");
  if (c.accept('}')) return;
  do {
    const std::string key = parse_string(c);
    if (!c.accept(':')) parse_fail(c, "expected ':'");
    if (key == "name") {
      ev.name = parse_string(c);
    } else if (key == "ph") {
      const std::string v = parse_string(c);
      ev.ph = v.empty() ? 0 : v[0];
    } else if (key == "pid") {
      ev.pid = static_cast<long>(parse_number(c));
    } else if (key == "tid") {
      ev.tid = static_cast<long>(parse_number(c));
    } else if (key == "ts") {
      ev.ts_us = parse_number(c);
    } else if (key == "dur") {
      ev.dur_us = parse_number(c);
    } else if (key == "args") {
      parse_args(c, ev);
    } else {
      skip_value(c);
    }
  } while (c.accept(','));
  if (!c.accept('}')) parse_fail(c, "unterminated event");
}

obs::Phase phase_by_name(const std::string& name, bool& known) {
  known = true;
  for (int p = 0; p <= static_cast<int>(obs::Phase::kSpanLink); ++p) {
    const auto ph = static_cast<obs::Phase>(p);
    if (name == obs::phase_name(ph)) return ph;
  }
  known = false;
  return obs::Phase::kArrival;
}

struct ParsedTrace {
  std::vector<obs::JourneySpan> spans;
  std::vector<std::string> tracks;
  std::uint64_t dropped = 0;
  std::uint64_t orphan_links = 0;
};

constexpr int kSimPid = 1;  ///< simulated-clock process group in the export

ParsedTrace parse_trace(const std::string& text) {
  ParsedTrace out;
  Cursor c{text.data(), text.data() + text.size()};
  if (!c.accept('{')) parse_fail(c, "expected top-level object");
  bool saw_events = false;
  do {
    const std::string key = parse_string(c);
    if (!c.accept(':')) parse_fail(c, "expected ':'");
    if (key == "droppedEvents") {
      out.dropped = static_cast<std::uint64_t>(parse_number(c));
    } else if (key == "traceEvents") {
      saw_events = true;
      if (!c.accept('[')) parse_fail(c, "expected event array");
      if (!c.accept(']')) {
        do {
          Ev ev;
          parse_event(c, ev);
          if (ev.ph == 'M') {
            if (ev.name == "thread_name" && ev.pid == kSimPid && ev.tid >= 0) {
              const auto t = static_cast<std::size_t>(ev.tid);
              if (out.tracks.size() <= t) out.tracks.resize(t + 1);
              out.tracks[t] = ev.args_name;
            }
            continue;
          }
          if (ev.seq < 0 || ev.pid != kSimPid) continue;  // not journey-linked
          if (ev.orphan) {
            ++out.orphan_links;
            continue;
          }
          bool known = false;
          const obs::Phase phase = phase_by_name(ev.name, known);
          if (!known) continue;
          obs::JourneySpan s;
          s.t0 = ev.ts_us * 1e-6;
          s.t1 = ev.dur_us >= 0.0 ? (ev.ts_us + ev.dur_us) * 1e-6 : s.t0;
          s.journey = ev.id;
          s.seq = static_cast<std::uint32_t>(ev.seq);
          s.parent = ev.parent < 0 ? obs::kNoParent : static_cast<std::uint32_t>(ev.parent);
          s.attr = static_cast<std::uint32_t>(ev.attr);
          s.track = static_cast<std::uint32_t>(ev.tid);
          s.phase = phase;
          s.instant = ev.dur_us < 0.0;
          out.spans.push_back(s);
        } while (c.accept(','));
        if (!c.accept(']')) parse_fail(c, "unterminated event array");
      }
    } else {
      skip_value(c);
    }
  } while (c.accept(','));
  if (!saw_events) {
    std::fprintf(stderr, "df3trace: no traceEvents array — is this a df3run trace export?\n");
    std::exit(1);
  }
  return out;
}

// --- aggregation -------------------------------------------------------------

/// Timestamps round-tripped through the %.3f-microsecond export text; give
/// the contiguity check two nanoseconds of slack.
constexpr double kGapTolerance = 2e-9;

const char* flow_label(std::uint32_t flow_attr) {
  switch (flow_attr) {
    case 1: return "cloud";
    case 2: return "edge-direct";
    case 3: return "edge-indirect";
    default: return "unknown";
  }
}

struct Agg {
  std::uint64_t journeys = 0;
  std::uint64_t completed = 0;
  df3::util::PercentileSampler e2e;
  obs::JourneyBreakdown breakdown;  ///< summed over critical paths
};

struct Report {
  std::map<std::uint32_t, Agg> by_flow;
  std::map<obs::Phase, Agg> by_rung;
  std::map<std::string, Agg> by_peer;
  std::uint64_t trees = 0;
  std::uint64_t terminated = 0;
  std::uint64_t complete = 0;
  std::uint64_t contiguous = 0;
  std::vector<const obs::JourneyTree*> slowest;
};

void feed(Agg& a, const obs::JourneyTree& t) {
  ++a.journeys;
  if (t.terminal == obs::Phase::kCompleted) ++a.completed;
  if (!(t.t_end >= t.t_begin)) {
    std::fprintf(stderr, "df3trace: malformed trace (journey %llu ends before it begins)\n",
                 static_cast<unsigned long long>(t.id));
    std::exit(1);
  }
  a.e2e.add(t.t_end - t.t_begin);
  a.breakdown.queue_s += t.breakdown.queue_s;
  a.breakdown.run_s += t.breakdown.run_s;
  a.breakdown.net_s += t.breakdown.net_s;
  a.breakdown.offload_s += t.breakdown.offload_s;
  a.breakdown.other_s += t.breakdown.other_s;
}

Report aggregate(const obs::JourneyForest& f) {
  Report r;
  r.trees = f.trees.size();
  for (const obs::JourneyTree& t : f.trees) {
    if (t.complete) ++r.complete;
    if (!t.terminated) continue;
    ++r.terminated;
    if (t.contiguous) ++r.contiguous;
    feed(r.by_flow[t.flow_attr], t);
    for (const obs::Phase p : t.rungs_fired) feed(r.by_rung[p], t);
    // Arrivals past the first are peer clusters chosen by hand-off or the
    // datacenter chosen by vertical offload — the per-decision attribution.
    for (std::size_t i = 1; i < t.visit_tracks.size(); ++i) {
      const std::uint32_t track = t.visit_tracks[i];
      const std::string name =
          track < f.tracks.size() && !f.tracks[track].empty() ? f.tracks[track] : "?";
      feed(r.by_peer[name], t);
    }
    r.slowest.push_back(&t);
  }
  std::sort(r.slowest.begin(), r.slowest.end(),
            [](const obs::JourneyTree* a, const obs::JourneyTree* b) {
              const double da = a->t_end - a->t_begin;
              const double db = b->t_end - b->t_begin;
              if (da != db) return da > db;
              return a->id < b->id;  // deterministic tie-break
            });
  return r;
}

// --- output ------------------------------------------------------------------

void append_json_agg(std::string& out, const Agg& a) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"journeys\":%llu,\"completed\":%llu,\"p50_s\":%.9g,\"p99_s\":%.9g,"
                "\"max_s\":%.9g,\"breakdown\":{\"queue_s\":%.9g,\"run_s\":%.9g,"
                "\"net_s\":%.9g,\"offload_s\":%.9g,\"other_s\":%.9g}",
                static_cast<unsigned long long>(a.journeys),
                static_cast<unsigned long long>(a.completed), a.e2e.median(),
                a.e2e.p99(), a.e2e.max(), a.breakdown.queue_s, a.breakdown.run_s,
                a.breakdown.net_s, a.breakdown.offload_s, a.breakdown.other_s);
  out += buf;
}

void print_json(const ParsedTrace& in, const obs::JourneyForest& f, const Report& r) {
  std::string out = "{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"journeys\":%llu,\"terminated\":%llu,\"complete\":%llu,"
                "\"contiguous\":%llu,\"orphan_links\":%llu,\"dropped_events\":%llu,"
                "\"linked_spans\":%llu",
                static_cast<unsigned long long>(r.trees),
                static_cast<unsigned long long>(r.terminated),
                static_cast<unsigned long long>(r.complete),
                static_cast<unsigned long long>(r.contiguous),
                static_cast<unsigned long long>(in.orphan_links),
                static_cast<unsigned long long>(in.dropped),
                static_cast<unsigned long long>(f.span_count));
  out += buf;
  out += ",\"flows\":[";
  bool first = true;
  for (const auto& [flow, agg] : r.by_flow) {
    if (!first) out += ',';
    first = false;
    out += "{\"flow\":\"";
    out += flow_label(flow);
    out += "\",";
    append_json_agg(out, agg);
    out += '}';
  }
  out += "],\"rungs\":[";
  first = true;
  for (const auto& [rung, agg] : r.by_rung) {
    if (!first) out += ',';
    first = false;
    out += "{\"rung\":\"";
    out += obs::phase_name(rung);
    out += "\",";
    append_json_agg(out, agg);
    out += '}';
  }
  out += "],\"peers\":[";
  first = true;
  for (const auto& [peer, agg] : r.by_peer) {
    if (!first) out += ',';
    first = false;
    out += "{\"peer\":\"";
    out += peer;
    out += "\",";
    append_json_agg(out, agg);
    out += '}';
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

void add_agg_row(df3::util::Table& tbl, const std::string& label, const Agg& a) {
  const double total = a.breakdown.total();
  const double denom = total > 0.0 ? total : 1.0;
  tbl.add_row({label, static_cast<std::int64_t>(a.journeys),
               a.e2e.median() * 1e3, a.e2e.p99() * 1e3, a.e2e.max() * 1e3,
               100.0 * a.breakdown.queue_s / denom, 100.0 * a.breakdown.run_s / denom,
               100.0 * a.breakdown.net_s / denom, 100.0 * a.breakdown.offload_s / denom});
}

void print_human(const ParsedTrace& in, const obs::JourneyForest& f, const Report& r,
                 long top) {
  std::printf("df3trace: %llu journeys (%llu terminated, %llu complete, %llu contiguous), "
              "%llu linked spans, %llu orphan links, %llu dropped events\n\n",
              static_cast<unsigned long long>(r.trees),
              static_cast<unsigned long long>(r.terminated),
              static_cast<unsigned long long>(r.complete),
              static_cast<unsigned long long>(r.contiguous),
              static_cast<unsigned long long>(f.span_count),
              static_cast<unsigned long long>(in.orphan_links),
              static_cast<unsigned long long>(in.dropped));

  const std::vector<std::string> headers = {"",          "journeys", "p50_ms", "p99_ms",
                                            "max_ms",    "queue_%",  "run_%",  "net_%",
                                            "offload_%"};
  df3::util::Table flows(headers, "per-flow latency breakdown (critical path)");
  flows.set_precision(1);
  for (const auto& [flow, agg] : r.by_flow) add_agg_row(flows, flow_label(flow), agg);
  flows.print(std::cout);

  if (!r.by_rung.empty()) {
    df3::util::Table rungs(headers, "per-rung attribution (journeys where the rung fired)");
    rungs.set_precision(1);
    for (const auto& [rung, agg] : r.by_rung) add_agg_row(rungs, obs::phase_name(rung), agg);
    std::printf("\n");
    rungs.print(std::cout);
  }
  if (!r.by_peer.empty()) {
    df3::util::Table peers(headers, "per-peer attribution (hand-off / offload targets)");
    peers.set_precision(1);
    for (const auto& [peer, agg] : r.by_peer) add_agg_row(peers, peer, agg);
    std::printf("\n");
    peers.print(std::cout);
  }

  const long n = std::min<long>(top, static_cast<long>(r.slowest.size()));
  for (long i = 0; i < n; ++i) {
    const obs::JourneyTree& t = *r.slowest[static_cast<std::size_t>(i)];
    std::printf("\nslow journey #%ld: id=%llu flow=%s latency=%.3f ms terminal=%s\n",
                i + 1, static_cast<unsigned long long>(t.id), flow_label(t.flow_attr),
                (t.t_end - t.t_begin) * 1e3, obs::phase_name(t.terminal));
    for (const std::uint32_t seq : t.critical) {
      const obs::JourneySpan& s = t.spans[seq];
      const std::string track =
          s.track < f.tracks.size() && !f.tracks[s.track].empty() ? f.tracks[s.track] : "?";
      std::printf("  %-18s %10.3f ms  @%s\n", obs::phase_name(s.phase), (s.t1 - s.t0) * 1e3,
                  track.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool json = false;
  bool partial = false;
  long top = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--json") {
      json = true;
    } else if (arg == "--partial") {
      partial = true;
    } else if (arg == "--top" && i + 1 < argc) {
      top = std::strtol(argv[++i], nullptr, 10);
    } else if (!arg.empty() && (arg[0] != '-' || arg == "-")) {
      path = arg;
    } else {
      std::fprintf(stderr, "df3trace: unknown flag %s\n", arg.c_str());
      return 1;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: df3trace <trace.json|-> [--json] [--partial] [--top N]\n"
                 "  reconstructs causal journey trees from a df3run --trace export\n");
    return 1;
  }

  std::string text;
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      std::fprintf(stderr, "df3trace: cannot read %s\n", path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    text = ss.str();
  }

  const ParsedTrace in = parse_trace(text);
  const obs::JourneyForest f = obs::build_journey_forest(
      in.spans, in.tracks, in.orphan_links, in.dropped, kGapTolerance);

  std::uint64_t incomplete = 0;
  for (const obs::JourneyTree& t : f.trees) {
    if (!t.complete) ++incomplete;
  }
  if ((incomplete > 0 || in.orphan_links > 0) && !partial) {
    std::fprintf(stderr,
                 "df3trace: %llu journey tree(s) are missing spans and %llu link(s) lost "
                 "their record (ring overwrote %llu events).\n"
                 "df3trace: refusing to report on incomplete trees; raise trace_capacity= "
                 "in df3run, or pass --partial to analyze anyway.\n",
                 static_cast<unsigned long long>(incomplete),
                 static_cast<unsigned long long>(in.orphan_links),
                 static_cast<unsigned long long>(in.dropped));
    return 2;
  }

  const Report r = aggregate(f);
  if (json) {
    print_json(in, f, r);
  } else {
    print_human(in, f, r, top);
  }
  return 0;
}
