// Sharded long-trace replay (src/sim/trace_shard.h): splitting one v2
// trace into N block-aligned shard jobs and reconciling their
// integer-ledger stats must reproduce the unsharded run EXACTLY in
// full-warm-up mode — every integer counter, every raw ledger count and
// every refolded energy, for every LSQ under test. The telescoping
// argument behind that exactness is documented in trace_shard.h; these
// tests are the proof obligation.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/experiment.h"
#include "src/sim/sim_config.h"
#include "src/sim/simulator.h"
#include "src/sim/trace_shard.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/workload.h"
#include "tests/expect_result_fields.h"

namespace samie {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kRecords = 6'000;
constexpr std::uint32_t kBlock = 512;

class ShardReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_shard_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 31);
    trace::Trace t = gen.generate(kRecords);
    v2_path_ = (dir_ / "gcc.samt").string();
    trace::write_samt_v2(v2_path_, trace::TraceView(t.ops.data(), t.ops.size()),
                         "gcc", 31, kBlock);
    v1_path_ = (dir_ / "gcc_v1.samt").string();
    trace::write_samt(v1_path_, trace::TraceView(t.ops.data(), t.ops.size()),
                      "gcc", 31);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] sim::Job base_job(sim::LsqChoice lsq) const {
    sim::Job job;
    job.program = "gcc";
    job.config = sim::paper_config(lsq);
    job.config.trace_path = v2_path_;
    job.config.instructions = kRecords;
    job.tag = sim::lsq_choice_name(lsq);
    return job;
  }

  /// Runs every shard job sequentially and reconciles.
  [[nodiscard]] static sim::SimResult run_sharded(
      const std::vector<sim::TraceShardJob>& shards,
      const sim::SimConfig& base_cfg) {
    std::vector<sim::SimResult> parts;
    parts.reserve(shards.size());
    for (const sim::TraceShardJob& s : shards) {
      parts.push_back(sim::run_trace_file(s.job.config));
    }
    return sim::merge_shard_results(parts, base_cfg);
  }

  /// Asserts every integer counter, maximum (the last shard's whole run
  /// is the unsharded run), raw ledger count and refolded energy of
  /// `got` equals `want` exactly, and ipc (committed/cycles of equal
  /// integers). FP occupancy means and the FP area integrals are
  /// documented-approximate under sharding and deliberately not
  /// compared here.
  static void expect_exact(const sim::SimResult& got,
                           const sim::SimResult& want) {
    sim::expect_fields_equal(
        got, want,
        {sim::FieldKind::kCounter, sim::FieldKind::kEngineCounter,
         sim::FieldKind::kMax, sim::FieldKind::kLedger,
         sim::FieldKind::kEnergy, sim::FieldKind::kRatio});
  }

  fs::path dir_;
  std::string v2_path_;
  std::string v1_path_;
};

TEST_F(ShardReplayTest, ShardJobsAreBlockAlignedAndPartitionTheTrace) {
  const sim::Job base = base_job(sim::LsqChoice::kSamie);
  const std::vector<sim::TraceShardJob> shards =
      sim::make_trace_shard_jobs(base, 4, UINT64_MAX);
  ASSERT_EQ(shards.size(), 4u);
  std::uint64_t expect_begin = 0;
  for (const sim::TraceShardJob& s : shards) {
    EXPECT_EQ(s.measure_begin, expect_begin);
    EXPECT_EQ(s.measure_begin % kBlock, 0u) << "shard cut off block grid";
    EXPECT_EQ(s.job.config.trace_measure_begin, s.measure_begin);
    EXPECT_EQ(s.job.config.trace_measure_end, s.measure_end);
    // Full warm-up: the effective warm prefix is everything before the
    // measured range.
    EXPECT_EQ(sim::effective_trace_warmup(s.job.config), s.measure_begin);
    expect_begin = s.measure_end;
  }
  EXPECT_EQ(expect_begin, kRecords);
}

TEST_F(ShardReplayTest, FullWarmupReconciliationIsExactForSamie) {
  const sim::Job base = base_job(sim::LsqChoice::kSamie);
  const sim::SimResult whole = sim::run_trace_file(base.config);
  for (const std::uint32_t n : {1u, 2u, 4u, 7u}) {
    const auto shards = sim::make_trace_shard_jobs(base, n, UINT64_MAX);
    const sim::SimResult merged = run_sharded(shards, base.config);
    SCOPED_TRACE("shards=" + std::to_string(n));
    expect_exact(merged, whole);
  }
}

TEST_F(ShardReplayTest, FullWarmupReconciliationIsExactForConventional) {
  const sim::Job base = base_job(sim::LsqChoice::kConventional);
  const sim::SimResult whole = sim::run_trace_file(base.config);
  const auto shards = sim::make_trace_shard_jobs(base, 3, UINT64_MAX);
  expect_exact(run_sharded(shards, base.config), whole);
}

TEST_F(ShardReplayTest, MoreShardsThanBlocksClampsToBlockCount) {
  const sim::Job base = base_job(sim::LsqChoice::kSamie);
  // 6000 records / 512-record blocks = 12 blocks: a 100-way split can
  // cut at most once per block boundary.
  const auto shards = sim::make_trace_shard_jobs(base, 100, UINT64_MAX);
  EXPECT_EQ(shards.size(), 12u);
  expect_exact(run_sharded(shards, base.config),
               sim::run_trace_file(base.config));
}

TEST_F(ShardReplayTest, PartialWarmupRunsAndCoversTheTrace) {
  // Bounded warm-up is the documented-approximate mode: each shard
  // replays only `warmup` records of context, so reconciled stats may
  // drift from the unsharded run — but the split must still partition
  // the trace and produce a sane result.
  const sim::Job base = base_job(sim::LsqChoice::kSamie);
  const auto shards = sim::make_trace_shard_jobs(base, 4, 512);
  ASSERT_EQ(shards.size(), 4u);
  for (const sim::TraceShardJob& s : shards) {
    EXPECT_LE(sim::effective_trace_warmup(s.job.config), 512u);
  }
  const sim::SimResult merged = run_sharded(shards, base.config);
  EXPECT_GT(merged.core.cycles, 0u);
  // The measured ranges tile the full trace, so the reconciled committed
  // count can never exceed the unsharded one and the first shard (no
  // warm-up to subtract) anchors it above zero.
  EXPECT_GT(merged.core.committed, 0u);
  EXPECT_LE(merged.core.committed, kRecords);
}

TEST_F(ShardReplayTest, V1TracesAreRejectedWithConversionHint) {
  sim::Job base = base_job(sim::LsqChoice::kSamie);
  base.config.trace_path = v1_path_;
  try {
    (void)sim::make_trace_shard_jobs(base, 4, UINT64_MAX);
    FAIL() << "v1 trace was accepted for sharding";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("samt_convert"), std::string::npos)
        << "error should tell the user how to convert: " << e.what();
  }
}

TEST_F(ShardReplayTest, MergeRejectsEmptyInput) {
  EXPECT_THROW(
      (void)sim::merge_shard_results({}, base_job(sim::LsqChoice::kSamie).config),
      std::invalid_argument);
}

}  // namespace
}  // namespace samie
