#include "df3/metrics/audit.hpp"

namespace df3::metrics {

namespace {
std::string describe(const workload::CompletionRecord& rec, const char* what) {
  return std::string(what) + " terminal for request id " + std::to_string(rec.request.id) +
         " (app " + rec.request.app + ", outcome " + workload::outcome_name(rec.outcome) +
         ", served_by " + workload::served_by_name(rec.served_by) + ")";
}
}  // namespace

void LifecycleAuditor::on_submitted(const workload::Request& r) {
  if (level_ == AuditLevel::kOff) return;
  ++submitted_;
  if (level_ == AuditLevel::kFull) {
    const auto [it, inserted] = lifecycle_.emplace(r.id, false);
    if (!inserted) {
      // A re-submitted id would make exactly-once accounting ambiguous;
      // ids are unique by construction (source hash | sequence), so flag it.
      report("duplicate submission for request id " + std::to_string(r.id));
    }
  }
}

void LifecycleAuditor::on_terminal(const workload::CompletionRecord& rec) {
  if (level_ == AuditLevel::kOff) return;
  ++terminals_;
  switch (rec.outcome) {
    case workload::Outcome::kCompleted: ++completed_; break;
    case workload::Outcome::kRejected: ++rejected_; break;
    case workload::Outcome::kDropped: ++dropped_; break;
    case workload::Outcome::kDeadlineMissed: ++deadline_missed_; break;
  }
  if (level_ != AuditLevel::kFull) return;
  const auto it = lifecycle_.find(rec.request.id);
  if (it == lifecycle_.end()) {
    ++unknowns_;
    report(describe(rec, "unknown"));
    return;
  }
  if (it->second) {
    ++duplicates_;
    report(describe(rec, "duplicate"));
    return;
  }
  it->second = true;
}

void LifecycleAuditor::reset() {
  submitted_ = 0;
  terminals_ = 0;
  completed_ = 0;
  rejected_ = 0;
  dropped_ = 0;
  deadline_missed_ = 0;
  duplicates_ = 0;
  unknowns_ = 0;
  violation_count_ = 0;
  violations_.clear();
  lifecycle_.clear();
}

void LifecycleAuditor::report(std::string what) {
  ++violation_count_;
  if (violations_.size() < kMaxStoredViolations) violations_.push_back(std::move(what));
}

std::uint64_t LifecycleAuditor::open_requests() const {
  if (level_ == AuditLevel::kFull) {
    std::uint64_t open = 0;
    for (const auto& [id, resolved] : lifecycle_) {
      if (!resolved) ++open;
    }
    return open;
  }
  // Counter arithmetic: exact as long as no duplicates slipped through
  // (which kCounters cannot detect — that is what kFull is for).
  return terminals_ >= submitted_ ? 0 : submitted_ - terminals_;
}

std::vector<std::string> LifecycleAuditor::check_quiescent() const {
  std::vector<std::string> out = violations_;
  if (level_ == AuditLevel::kOff) return out;
  if (level_ == AuditLevel::kFull) {
    std::size_t named = 0;
    for (const auto& [id, resolved] : lifecycle_) {
      if (resolved) continue;
      if (named < 8) {
        out.push_back("request id " + std::to_string(id) + " never reached a terminal outcome");
      }
      ++named;
    }
    if (named > 8) {
      out.push_back("... and " + std::to_string(named - 8) + " more unresolved requests");
    }
  } else if (terminals_ != submitted_) {
    out.push_back("conservation: submitted " + std::to_string(submitted_) + " != terminals " +
                  std::to_string(terminals_));
  }
  return out;
}

}  // namespace df3::metrics
