// Differential validation of the event-driven cycle engine: the
// quiescent-cycle fast-forward must be *bit-identical* to the always-step
// loop (`CoreConfig::always_step`, samie_sim --no-skip) on every
// simulation statistic — cycles, IPC, every counter, every energy and
// area double — across all three LSQ organizations and under squash /
// full-flush / drain pressure.
//
// The engine skips a cycle only when the work ledgers prove every stage
// a no-op, so any divergence here means a ledger lied (a stage could
// have acted) or a wake source was missed (the jump overshot an event).
// The pressure configurations deliberately shrink queue geometries so
// mispredict squashes, deadlock-avoidance full flushes and AddrBuffer /
// retry-FIFO drains all fire; each scenario asserts the pressure it is
// named for actually occurred, so a regression cannot silently pass by
// never exercising the path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/fu_pool.h"
#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"
#include "src/sim/sim_config.h"
#include "src/sim/simulator.h"
#include "tests/expect_result_fields.h"

namespace samie::sim {
namespace {

/// Runs `cfg` twice — event-driven and always-step — and asserts every
/// simulation statistic matches exactly (doubles compared bit-for-bit).
/// Returns the event-driven result for scenario-specific assertions.
/// Both runs enable CoreConfig::check_quiescence, so every stepped cycle
/// of every scenario also asserts the incremental wake ledger against
/// the from-scratch quiescent() predicate (the core throws on the first
/// disagreement, failing the test loudly).
SimResult expect_engines_identical(SimConfig cfg, const std::string& program,
                                   std::uint64_t insts) {
  cfg.instructions = insts;
  cfg.core.check_quiescence = true;
  cfg.core.always_step = false;
  const SimResult fast = run_program(cfg, program);
  cfg.core.always_step = true;
  const SimResult step = run_program(cfg, program);

  const std::string what =
      std::string(lsq_choice_name(cfg.lsq)) + "/" + program;
  EXPECT_EQ(step.core.quiescent_cycles_skipped, 0U) << what;
  EXPECT_EQ(step.core.fast_forwards, 0U) << what;

  // Every simulation statistic; the engine counters differ by design.
  expect_fields_equal(fast, step,
                      {FieldKind::kStatistic, FieldKind::kEnergy}, what);
  EXPECT_EQ(fast.core.value_mismatches, 0U) << what << ": ordering bug";
  return fast;
}

constexpr std::uint64_t kInsts = 30'000;

TEST(EngineDifferential, PaperConfigAllLsqKindsAllProgramsMatch) {
  // The paper configuration over a branchy, a memory-bound and a
  // forwarding-heavy program; mispredict squashes fire everywhere.
  for (const LsqChoice lsq : {LsqChoice::kConventional, LsqChoice::kArb,
                              LsqChoice::kSamie, LsqChoice::kUnbounded}) {
    for (const char* program : {"gcc", "mcf", "ammp"}) {
      const SimResult r =
          expect_engines_identical(paper_config(lsq), program, kInsts);
      EXPECT_GT(r.core.mispredict_squashes, 0U)
          << lsq_choice_name(lsq) << "/" << program
          << ": squash recovery was not exercised";
    }
  }
}

TEST(EngineDifferential, MemoryBoundProgramsActuallyFastForward) {
  // On memory-latency-dominated programs the engine must engage — a
  // conservative-but-never-firing ledger would silently revert the PR.
  const SimResult r = expect_engines_identical(
      paper_config(LsqChoice::kConventional), "mcf", kInsts);
  EXPECT_GT(r.core.quiescent_cycles_skipped, r.core.cycles / 10)
      << "fast-forward never engaged on a memory-bound program";
  EXPECT_GT(r.core.fast_forwards, 0U);
}

TEST(EngineDifferential, SamieUnderAddrBufferPressureWithFullFlushes) {
  // Tiny SAMIE geometry: constant AddrBuffer drains and §3.3
  // deadlock-avoidance full flushes (the checkpointed-recovery path).
  SimConfig cfg = paper_config(LsqChoice::kSamie);
  cfg.samie.banks = 4;
  cfg.samie.entries_per_bank = 1;
  cfg.samie.slots_per_entry = 2;
  cfg.samie.shared_entries = 1;
  cfg.samie.addr_buffer_slots = 4;
  for (const char* program : {"ammp", "mcf", "swim"}) {
    const SimResult r = expect_engines_identical(cfg, program, kInsts);
    EXPECT_GT(r.core.deadlock_flushes, 0U)
        << program << ": full_flush was not exercised";
    EXPECT_GT(r.buffer_nonempty_frac, 0.0)
        << program << ": AddrBuffer drain was not exercised";
  }
}

TEST(EngineDifferential, ArbUnderBankConflictAndFlushPressure) {
  SimConfig cfg = paper_config(LsqChoice::kArb);
  cfg.arb.banks = 2;
  cfg.arb.rows_per_bank = 2;
  cfg.arb.max_inflight = 12;
  for (const char* program : {"ammp", "art"}) {
    const SimResult r = expect_engines_identical(cfg, program, kInsts);
    EXPECT_GT(r.core.deadlock_flushes, 0U)
        << program << ": full_flush was not exercised";
  }
}

TEST(EngineDifferential, ConventionalUnderCapacityPressure) {
  SimConfig cfg = paper_config(LsqChoice::kConventional);
  cfg.conventional.entries = 12;
  for (const char* program : {"gcc", "swim"}) {
    expect_engines_identical(cfg, program, kInsts);
  }
}

// Work-ledger hook contracts. The engine's quiescence proof leans on
// these invariants even where it does not *call* the hook: a busy
// OccupyingPool must never be a hidden wake source (its operation's
// completion is already on the wheel, and any waiter sits in a ready
// queue), and the LSQs must be purely call-driven (next_ready_cycle ==
// kNeverCycle — a time-triggered LSQ would need wiring into
// try_fast_forward's wake computation, like
// MemoryHierarchy::pending_completion_cycle).
TEST(EngineWorkLedger, FuPoolHooksReportBusynessAndFreeCycles) {
  core::OccupyingPool pool(2);
  EXPECT_FALSE(pool.has_pending_work(0));
  EXPECT_EQ(pool.busy_units(0), 0U);
  EXPECT_EQ(pool.next_ready_cycle(5), 5U) << "a free unit is ready now";
  ASSERT_TRUE(pool.try_issue(10, 20));  // busy until 30
  ASSERT_TRUE(pool.try_issue(10, 3));   // busy until 13
  EXPECT_FALSE(pool.try_issue(10, 1));
  EXPECT_EQ(pool.busy_units(10), 2U);
  EXPECT_TRUE(pool.has_pending_work(10));
  EXPECT_EQ(pool.next_ready_cycle(10), 13U) << "earliest unit to free";
  EXPECT_EQ(pool.busy_units(13), 1U) << "busy_until <= now means free";
  EXPECT_EQ(pool.next_ready_cycle(13), 13U);
  EXPECT_EQ(pool.busy_units(30), 0U);
  pool.reset();
  EXPECT_EQ(pool.busy_units(11), 0U);

  core::PipelinedPool pipe(1);
  EXPECT_FALSE(pipe.has_pending_work()) << "saturation lasts one cycle";
  EXPECT_EQ(pipe.next_ready_cycle(7), 7U);
  ASSERT_TRUE(pipe.try_issue());
  EXPECT_EQ(pipe.next_ready_cycle(7), 8U) << "full this cycle, free next";
  pipe.new_cycle();
  EXPECT_EQ(pipe.next_ready_cycle(8), 8U);
}

TEST(EngineWorkLedger, LsqsAreCallDrivenNotTimeTriggered) {
  lsq::ConventionalLsq conv(lsq::ConventionalLsqConfig{}, nullptr);
  lsq::ArbLsq arb(lsq::ArbConfig{});
  lsq::SamieLsq samie(lsq::SamieConfig{}, nullptr);
  EXPECT_EQ(conv.next_ready_cycle(123), kNeverCycle);
  EXPECT_EQ(arb.next_ready_cycle(123), kNeverCycle);
  EXPECT_EQ(samie.next_ready_cycle(123), kNeverCycle);
  EXPECT_FALSE(conv.has_pending_work());
  EXPECT_FALSE(arb.has_pending_work());
  EXPECT_FALSE(samie.has_pending_work());
  // SAMIE: any buffered op is pending work (failed retries charge
  // energy), and it stays pending until the buffer drains.
  lsq::SamieConfig tiny;
  tiny.banks = 1;
  tiny.entries_per_bank = 1;
  tiny.slots_per_entry = 1;
  tiny.shared_entries = 1;
  tiny.addr_buffer_slots = 4;
  lsq::SamieLsq pressed(tiny, nullptr);
  // Distinct lines exhaust the single bank entry + single shared entry;
  // the third op lands in the AddrBuffer.
  using lsq::MemOpDesc;
  pressed.on_address_ready(MemOpDesc{0, 0x000, 8, true, false});
  pressed.on_address_ready(MemOpDesc{1, 0x100, 8, true, false});
  pressed.on_address_ready(MemOpDesc{2, 0x200, 8, true, false});
  EXPECT_TRUE(pressed.has_pending_work());
}

// Quiescence-ledger differential: the incremental dirty-bit ledger must
// agree with the legacy from-scratch predicate on *every stepped cycle*
// (expect_engines_identical turns the in-core cross-check on, so the
// core throws at the first divergent cycle). This sweep drives it
// through the hard cases explicitly: all three LSQ kinds under shrunken
// geometries where mispredict squashes, §3.3 full flushes and
// AddrBuffer / retry-FIFO drain pressure all fire, in both engine
// modes, across randomized workload seeds.
class QuiescenceLedgerSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuiescenceLedgerSeeds, LedgerAgreesWithPredicateUnderPressure) {
  const std::uint64_t seed = GetParam();
  // SAMIE, tiny geometry: constant AddrBuffer pressure + full flushes.
  SimConfig samie = paper_config(LsqChoice::kSamie);
  samie.seed = seed;
  samie.samie.banks = 4;
  samie.samie.entries_per_bank = 1;
  samie.samie.slots_per_entry = 2;
  samie.samie.shared_entries = 1;
  samie.samie.addr_buffer_slots = 4;
  const SimResult sr = expect_engines_identical(samie, "mcf", 20'000);
  EXPECT_GT(sr.core.deadlock_flushes, 0U) << "full_flush not exercised";
  EXPECT_GT(sr.buffer_nonempty_frac, 0.0) << "AddrBuffer drain not exercised";

  // ARB, tiny geometry: bank-conflict retries keep the FIFO hot.
  SimConfig arb = paper_config(LsqChoice::kArb);
  arb.seed = seed;
  arb.arb.banks = 2;
  arb.arb.rows_per_bank = 2;
  arb.arb.max_inflight = 12;
  const SimResult ar = expect_engines_identical(arb, "ammp", 20'000);
  EXPECT_GT(ar.core.deadlock_flushes, 0U) << "full_flush not exercised";

  // Conventional under capacity pressure: dispatch stalls + squashes.
  SimConfig conv = paper_config(LsqChoice::kConventional);
  conv.seed = seed;
  conv.conventional.entries = 12;
  const SimResult cr = expect_engines_identical(conv, "gcc", 20'000);
  EXPECT_GT(cr.core.mispredict_squashes, 0U) << "squash not exercised";
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuiescenceLedgerSeeds,
                         ::testing::Values(3U, 911U, 424242U));

// Randomized sweep: seeds perturb the generated workloads (different
// dependence chains, branch patterns, address streams), so the two
// engines are compared across thousands of distinct squash/stall shapes.
class EngineDifferentialSeeds : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EngineDifferentialSeeds, RandomizedWorkloadsMatch) {
  for (const LsqChoice lsq :
       {LsqChoice::kConventional, LsqChoice::kArb, LsqChoice::kSamie}) {
    SimConfig cfg = paper_config(lsq);
    cfg.seed = GetParam();
    expect_engines_identical(cfg, "gcc", 15'000);
    expect_engines_identical(cfg, "mcf", 15'000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialSeeds,
                         ::testing::Values(7U, 1776U, 31337U));

}  // namespace
}  // namespace samie::sim
