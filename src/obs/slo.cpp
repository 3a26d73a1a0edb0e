#include "df3/obs/slo.hpp"

namespace df3::obs {

SloMonitor::SloMonitor(double window_s, std::size_t buckets)
    : window_s_(window_s > 0.0 ? window_s : 3600.0),
      buckets_(buckets > 0 ? buckets : 1),
      span_s_(window_s_ / static_cast<double>(buckets_)) {}

void SloMonitor::record(std::uint32_t flow, SloOutcome outcome, double response_s,
                        double now_s) {
  if (flow >= per_flow_.size()) per_flow_.resize(flow + 1);
  PerFlow& f = per_flow_[flow];
  if (f.ring.empty()) f.ring.resize(buckets_);
  f.last_event_s = now_s;

  const std::uint64_t epoch = epoch_of(now_s);
  Bucket& b = f.ring[epoch % buckets_];
  if (b.epoch != epoch) {
    b.epoch = epoch;
    b.total = 0;
    b.missed = 0;
    b.failed = 0;
    b.resp.clear();
  }
  ++b.total;
  switch (outcome) {
    case SloOutcome::kOk: b.resp.add(response_s); break;
    case SloOutcome::kMissed:
      ++b.missed;
      b.resp.add(response_s);
      break;
    case SloOutcome::kFailed: ++b.failed; break;
  }
}

SloMonitor::FlowReport SloMonitor::report(std::uint32_t flow, double now_s,
                                          double staleness_s) const {
  FlowReport r;
  if (staleness_s < 0.0) staleness_s = window_s_;
  if (flow >= per_flow_.size() || per_flow_[flow].ring.empty()) {
    r.stale = true;
    return r;
  }
  const PerFlow& f = per_flow_[flow];
  r.last_event_s = f.last_event_s;
  r.stale = f.last_event_s < 0.0 || (now_s - f.last_event_s) > staleness_s;

  // Buckets whose epoch is within the trailing window of `now_s`. The
  // current (possibly partial) bucket counts; anything older than
  // `buckets_` epochs has been lapped or expired.
  const std::uint64_t cur = epoch_of(now_s);
  const std::uint64_t oldest = cur >= buckets_ - 1 ? cur - (buckets_ - 1) : 0;
  merged_.clear();
  for (const Bucket& b : f.ring) {
    if (b.epoch == UINT64_MAX || b.epoch < oldest || b.epoch > cur) continue;
    r.total += b.total;
    r.missed += b.missed;
    r.failed += b.failed;
    merged_.merge(b.resp);
  }
  if (r.total > 0) {
    r.miss_ratio = static_cast<double>(r.missed) / static_cast<double>(r.total);
    r.fail_ratio = static_cast<double>(r.failed) / static_cast<double>(r.total);
  }
  r.p50_s = merged_.median();
  r.p99_s = merged_.p99();
  r.max_s = merged_.max();
  return r;
}

}  // namespace df3::obs
