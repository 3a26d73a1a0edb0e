// Decision-plane model checker (df3::mc, DESIGN.md §13): digest golden
// values, replay-based snapshot bit-exactness, exhaustive exploration of
// the small fleet, dedup accounting, and the planted-bug self-test that
// proves the checker detects a known-bad build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "df3/core/scheduler.hpp"
#include "df3/mc/explorer.hpp"
#include "df3/mc/fleet_world.hpp"
#include "df3/mc/snapshot.hpp"
#include "df3/metrics/audit.hpp"

namespace mc = df3::mc;
namespace metrics = df3::metrics;
namespace wl = df3::workload;

namespace {

/// Restores the TaskQueue fault plant even when an assertion fails.
struct PlantGuard {
  explicit PlantGuard(bool plant) { df3::core::TaskQueue::set_test_unsorted_push_front(plant); }
  ~PlantGuard() { df3::core::TaskQueue::set_test_unsorted_push_front(false); }
};

mc::ExplorerConfig depth(std::size_t d) {
  mc::ExplorerConfig ec;
  ec.max_depth = d;
  return ec;
}

}  // namespace

// ---------------------------------------------------------------- digests

TEST(StateDigest, GoldenFnv1aVectors) {
  // Empty digest is the FNV-1a 64-bit offset basis.
  mc::StateDigest empty;
  EXPECT_EQ(empty.value(), 0xcbf29ce484222325ULL);

  // Well-known FNV-1a 64 test vectors over raw bytes.
  mc::StateDigest a;
  a.mix_byte(std::uint8_t{'a'});
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);

  mc::StateDigest foobar;
  for (char c : std::string("foobar")) foobar.mix_byte(static_cast<std::uint8_t>(c));
  EXPECT_EQ(foobar.value(), 0x85944171f73967e8ULL);
}

TEST(StateDigest, U64MixesLittleEndianBytes) {
  mc::StateDigest via_u64;
  via_u64.mix_u64(0x0123456789abcdefULL);
  mc::StateDigest via_bytes;
  for (int i = 0; i < 8; ++i) {
    via_bytes.mix_byte(static_cast<std::uint8_t>(0x0123456789abcdefULL >> (8 * i)));
  }
  EXPECT_EQ(via_u64.value(), via_bytes.value());
}

TEST(StateDigest, F64MixesExactBitPattern) {
  mc::StateDigest d1, d2;
  d1.mix_f64(1.0);
  d2.mix_u64(0x3ff0000000000000ULL);  // IEEE-754 bit pattern of 1.0
  EXPECT_EQ(d1.value(), d2.value());
  // -0.0 and +0.0 compare equal but have different bit patterns: the digest
  // must distinguish them (bit-for-bit, not approximate equality).
  mc::StateDigest pz, nz;
  pz.mix_f64(0.0);
  nz.mix_f64(-0.0);
  EXPECT_NE(pz.value(), nz.value());
}

TEST(StateDigest, StringsAreLengthPrefixed) {
  mc::StateDigest ab_c, a_bc;
  ab_c.mix_str("ab");
  ab_c.mix_str("c");
  a_bc.mix_str("a");
  a_bc.mix_str("bc");
  EXPECT_NE(ab_c.value(), a_bc.value());
}

// ------------------------------------------- replay-based snapshot/restore

TEST(FleetWorld, ResetIsBitExact) {
  mc::FleetWorldConfig wc;
  mc::FleetWorld w1(wc), w2(wc);
  w1.reset();
  w2.reset();
  const auto root = w1.digest();
  EXPECT_EQ(root, w2.digest());
  // reset() after mutation restores the exact root state.
  w1.apply("edge(b1)");
  w1.apply("step");
  EXPECT_NE(w1.digest(), root);
  w1.reset();
  EXPECT_EQ(w1.digest(), root);
}

TEST(FleetWorld, ReplayingAPrefixReproducesTheDigest) {
  const std::vector<std::string> prefix = {"edge(b1)", "flap(up-b0)", "step", "gate(b1/w0)"};
  mc::FleetWorldConfig wc;
  mc::FleetWorld w1(wc), w2(wc);
  w1.reset();
  w2.reset();
  for (const auto& a : prefix) w1.apply(a);
  for (const auto& a : prefix) w2.apply(a);
  EXPECT_EQ(w1.digest(), w2.digest());
  // Restore = rebuild + replay: same world, round-tripped through reset().
  const auto snap = w1.digest();
  w1.reset();
  for (const auto& a : prefix) w1.apply(a);
  EXPECT_EQ(w1.digest(), snap);
  // A different schedule of the same actions is a different state when the
  // actions do not commute: submit-then-advance leaves the edge shard with
  // a second of progress that advance-then-submit does not have.
  mc::FleetWorld w3(wc), w4(wc);
  w3.reset();
  w3.apply("edge(b1)");
  w3.apply("step");
  w4.reset();
  w4.apply("step");
  w4.apply("edge(b1)");
  EXPECT_NE(w3.digest(), w4.digest());
}

TEST(FleetWorld, FleetShapeChangesTheRootDigest) {
  // The digest captures decision-plane state, so a structurally different
  // fleet (3 clusters vs 2) must fingerprint differently. (The experiment
  // seed alone need not: the root's background load and injector wiring are
  // fixed, not RNG-drawn.)
  mc::FleetWorldConfig wc2, wc3;
  wc3.clusters = 3;
  mc::FleetWorld w2(wc2), w3(wc3);
  w2.reset();
  w3.reset();
  EXPECT_NE(w2.digest(), w3.digest());
}

// ------------------------------------------------------------ exploration

TEST(Explorer, FullAlphabetDepth2IsCleanAndComplete) {
  mc::FleetWorldConfig wc;  // 2 clusters => 13-action alphabet
  mc::FleetWorld world(wc);
  const auto result = mc::Explorer(depth(2)).run(world);
  EXPECT_TRUE(result.clean()) << mc::format_witness(result.violations.at(0).witness);
  // Full 13-ary tree: 1 + 13 + 169 nodes, every one replayed and checked.
  EXPECT_EQ(result.states_explored, 183u);
  EXPECT_EQ(result.states_deduped, 0u);
  EXPECT_EQ(result.max_depth_reached, 2u);
  EXPECT_FALSE(result.truncated);
}

TEST(Explorer, RestrictedAlphabetCoversAllFourRungs) {
  // edge(b1) escalates preempt -> horizontal (and, once foreign at a
  // saturated peer, vertical); edge2(b1) is 2-task and cannot offload, so
  // it reaches the delay rung.
  mc::FleetWorldConfig wc;
  wc.alphabet = {"edge(b1)", "edge2(b1)", "step"};
  mc::FleetWorld world(wc);
  const auto result = mc::Explorer(depth(4)).run(world);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.states_explored, 121u);  // 1 + 3 + 9 + 27 + 81
  for (const char* rung : {"rung:preempt", "rung:horizontal", "rung:vertical", "rung:delay"}) {
    const auto it = result.coverage.find(rung);
    ASSERT_NE(it, result.coverage.end()) << rung;
    EXPECT_GT(it->second, 0u) << rung;
  }
}

TEST(Explorer, DedupCollapsesCommutingFlaps) {
  // flap(up-b0) and flap(up-b1) commute: [f0,f1] and [f1,f0] reach the same
  // captured state, as do the two double-toggles [f0,f0] and [f1,f1].
  mc::FleetWorldConfig wc;
  wc.alphabet = {"flap(up-b0)", "flap(up-b1)"};
  mc::FleetWorld world(wc);

  const auto full = mc::Explorer(depth(2)).run(world);
  EXPECT_TRUE(full.clean());
  EXPECT_EQ(full.states_explored, 7u);  // 1 + 2 + 4
  EXPECT_EQ(full.states_deduped, 0u);

  auto ec = depth(2);
  ec.dedup = true;
  const auto deduped = mc::Explorer(ec).run(world);
  EXPECT_TRUE(deduped.clean());
  EXPECT_EQ(deduped.states_explored, 7u);
  EXPECT_EQ(deduped.states_deduped, 2u);
}

TEST(Explorer, LocalLinkFlapsReachTheRouteCheck) {
  // flap(lan-b1) cuts gw-srv0 inside b1's {gw, dev, wifi, srv0} cycle, so
  // staging to srv0 reroutes through a back door: every branch's cached
  // routes, rerouted ones included, must equal a fresh whole-graph search.
  mc::FleetWorldConfig wc;
  wc.alphabet = {"edge(b1)", "flap(lan-b1)", "step"};
  mc::FleetWorld world(wc);
  const auto result = mc::Explorer(depth(3)).run(world);
  EXPECT_TRUE(result.clean()) << mc::format_witness(result.violations.at(0).witness);
  EXPECT_EQ(result.states_explored, 40u);  // 1 + 3 + 9 + 27
  const auto it = result.coverage.find("route_checks");
  ASSERT_NE(it, result.coverage.end());
  EXPECT_GT(it->second, 0u);
}

TEST(Explorer, MaxStatesTruncates) {
  mc::FleetWorldConfig wc;
  wc.alphabet = {"edge(b1)", "step"};
  mc::FleetWorld world(wc);
  auto ec = depth(3);
  ec.max_states = 5;  // full tree would be 1 + 2 + 4 + 8 = 15
  const auto result = mc::Explorer(ec).run(world);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.states_explored, 5u);
}

// ------------------------------------------------------- planted-bug self-test

TEST(Explorer, FindsThePlantedEdfRequeueBugWithShortWitness) {
  // Re-introduce the pre-fix blind EDF push_front (the PR-3 requeue-order
  // bug) behind the test-only flag: the checker must find it, and — BFS —
  // with a minimal schedule well under 6 events.
  mc::FleetWorldConfig wc;
  wc.alphabet = {"cloud_dl(b1)", "edge(b1)", "step"};
  mc::FleetWorld world(wc);

  {
    PlantGuard plant(true);
    const auto result = mc::Explorer(depth(3)).run(world);
    ASSERT_FALSE(result.clean());
    ASSERT_FALSE(result.violations.empty());
    const auto& first = result.violations.front();
    EXPECT_LE(first.witness.size(), 6u) << mc::format_witness(first.witness);
    // The breach is the EDF sorted-lane invariant on b1's gateway queue.
    ASSERT_FALSE(first.messages.empty());
    EXPECT_NE(first.messages.front().find("EDF cloud lane out of order"), std::string::npos)
        << first.messages.front();
  }

  // Same fleet, same alphabet, plant removed: the fixed build is clean.
  const auto fixed = mc::Explorer(depth(3)).run(world);
  EXPECT_TRUE(fixed.clean());
  EXPECT_EQ(fixed.states_explored, 40u);  // 1 + 3 + 9 + 27
}

TEST(Explorer, WitnessFormatting) {
  EXPECT_EQ(mc::format_witness({}), "<root>");
  EXPECT_EQ(mc::format_witness({"edge(b1)", "step", "<drain>"}),
            "edge(b1) -> step -> <drain>");
}

// -------------------------------------------------------- auditor branch reset

TEST(LifecycleAuditor, ResetClearsCountersAndLifecycleMap) {
  metrics::LifecycleAuditor auditor(metrics::AuditLevel::kFull);
  wl::Request r;
  r.id = 42;
  auditor.on_submitted(r);
  wl::CompletionRecord rec;
  rec.request = r;
  rec.outcome = wl::Outcome::kCompleted;
  auditor.on_terminal(rec);
  auditor.on_terminal(rec);  // duplicate terminal => violation
  EXPECT_EQ(auditor.submitted(), 1u);
  EXPECT_EQ(auditor.duplicate_terminals(), 1u);
  EXPECT_GT(auditor.violation_count(), 0u);

  auditor.reset();
  EXPECT_EQ(auditor.level(), metrics::AuditLevel::kFull);  // level survives
  EXPECT_EQ(auditor.submitted(), 0u);
  EXPECT_EQ(auditor.terminals(), 0u);
  EXPECT_EQ(auditor.completed(), 0u);
  EXPECT_EQ(auditor.duplicate_terminals(), 0u);
  EXPECT_EQ(auditor.violation_count(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_EQ(auditor.open_requests(), 0u);
  EXPECT_TRUE(auditor.check_quiescent().empty());
  // The per-id map was cleared too: the same id is a fresh lifecycle, and a
  // terminal for it no longer counts as a duplicate.
  auditor.on_submitted(r);
  auditor.on_terminal(rec);
  EXPECT_EQ(auditor.duplicate_terminals(), 0u);
  EXPECT_TRUE(auditor.check_quiescent().empty());
}
