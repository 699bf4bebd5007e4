// Tests for the supervised sweep scheduler and the crash-safe checkpoint
// layer: failure classification and isolation, transient retry with
// capped backoff, cooperative deadline cancellation, max-failures drain,
// checkpoint/resume bit-identity (including torn-tail tolerance,
// wrong-sweep refusal and resume under the other runner), trace-damage
// quarantine, and the exact SimResult text round-trip. The job state
// machine is runner-agnostic, so every lifecycle test runs against both
// attempt runners — worker threads and forked children — as a test
// parameter. Faults are injected deterministically via SweepFaultPlan —
// no test here depends on timing races to reproduce, and every test that
// asserts an order pins one worker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/core.h"
#include "src/sim/checkpoint.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep_scheduler.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload.h"

namespace samie {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class SweepSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_sweep_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& file) const {
    return (dir_ / file).string();
  }

  /// Three small jobs over distinct programs (distinct trace-cache keys).
  [[nodiscard]] static std::vector<sim::Job> three_jobs(
      std::uint64_t insts = 3000) {
    sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
    cfg.instructions = insts;
    std::vector<sim::Job> jobs;
    for (const char* p : {"gcc", "ammp", "mcf"}) {
      jobs.push_back(sim::Job{p, cfg, "samie"});
    }
    return jobs;
  }

  /// Config-major list over shared traces, in the shape of the paper's
  /// figure sweeps: gcc, ammp, mcf under the conventional LSQ (jobs 0-2),
  /// then the same three traces under SAMIE (jobs 3-5).
  [[nodiscard]] static std::vector<sim::Job> config_major_jobs() {
    std::vector<sim::Job> jobs;
    for (const sim::LsqChoice lsq :
         {sim::LsqChoice::kConventional, sim::LsqChoice::kSamie}) {
      for (sim::Job j : three_jobs()) {
        j.config = sim::paper_config(lsq);
        j.config.instructions = 3000;
        j.tag = sim::lsq_choice_name(lsq);
        jobs.push_back(j);
      }
    }
    return jobs;
  }

  /// Journaled job indices in journal (completion) order — with one
  /// worker, the admission order.
  [[nodiscard]] static std::vector<std::size_t> journal_order(
      const std::string& ckpt) {
    std::vector<std::size_t> order;
    for (const std::string& r : sim::load_checkpoint(ckpt).records) {
      order.push_back(std::stoul(r.substr(0, r.find('\t'))));
    }
    return order;
  }

  fs::path dir_;
};

enum class Runner { kThreads, kChildren };

/// The lifecycle tests, instantiated once per attempt runner.
class SweepRunnerTest : public SweepSchedulerTest,
                        public ::testing::WithParamInterface<Runner> {
 protected:
  /// Sweep options on `runner` (default: the one under test) with
  /// `workers` worker threads or child processes.
  [[nodiscard]] static sim::SweepOptions options(unsigned workers,
                                                 Runner runner = GetParam()) {
    sim::SweepOptions opt;
    if (runner == Runner::kChildren) {
      opt.isolate_procs = workers;
    } else {
      opt.threads = workers;
    }
    return opt;
  }
  [[nodiscard]] static Runner other_runner() {
    return GetParam() == Runner::kThreads ? Runner::kChildren
                                          : Runner::kThreads;
  }
};

[[nodiscard]] std::string runner_name(
    const ::testing::TestParamInfo<Runner>& info) {
  return info.param == Runner::kThreads ? "Threads" : "Children";
}

/// Bit-exact SimResult equality via the hexfloat serialization (equal
/// strings <=> equal bits for every field).
void expect_results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(sim::serialize_sim_result(a), sim::serialize_sim_result(b));
}

TEST(RetryPolicy, BackoffDoublesFromBaseAndCaps) {
  sim::RetryPolicy p;
  p.backoff_base = 10ms;
  p.backoff_cap = 70ms;
  EXPECT_EQ(p.backoff_for(2), 10ms);  // first retry
  EXPECT_EQ(p.backoff_for(3), 20ms);
  EXPECT_EQ(p.backoff_for(4), 40ms);
  EXPECT_EQ(p.backoff_for(5), 70ms);  // capped, not 80
  EXPECT_EQ(p.backoff_for(6), 70ms);
}

TEST(ClassifyFailure, SeparatesTransientFromDeterministic) {
  auto classify = [](auto&& make) {
    try {
      throw make();
    } catch (...) {
      return sim::classify_failure(std::current_exception());
    }
  };
  EXPECT_EQ(classify([] { return sim::TransientFault("flake"); }),
            sim::FailureClass::kTransient);
  EXPECT_EQ(classify([] { return std::bad_alloc(); }),
            sim::FailureClass::kTransient);
  EXPECT_EQ(classify([] { return trace::TraceFormatError("torn"); }),
            sim::FailureClass::kTransient);
  // Classified damage is deterministic — replaying corrupt blocks will
  // corrupt again; retrying would just reread the same bad bytes.
  EXPECT_EQ(classify([] {
              return trace::TraceCorruptError(
                  "bad block", trace::TraceDamage::kInteriorCorrupt, 3, 4096);
            }),
            sim::FailureClass::kDeterministic);
  EXPECT_EQ(classify([] { return std::logic_error("bug"); }),
            sim::FailureClass::kDeterministic);
  EXPECT_EQ(classify([] { return std::runtime_error("watchdog"); }),
            sim::FailureClass::kDeterministic);
  EXPECT_EQ(sim::classify_failure(nullptr), sim::FailureClass::kNone);
}

TEST_P(SweepRunnerTest, CleanSweepMatchesRunJobs) {
  const auto jobs = three_jobs();
  const auto direct = sim::run_jobs(jobs, 2);
  sim::SweepOptions opt = options(2);
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.completed, 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(rep.jobs[i].outcome.attempts, 1u);
    expect_results_identical(rep.jobs[i].result, direct[i].result);
  }
}

TEST_P(SweepRunnerTest, TransientFaultIsRetriedToSuccess) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kThrowTransient, 0ms},
                 {1, 2, sim::SweepFault::Kind::kThrowTransient, 0ms}};
  sim::SweepOptions opt = options(2);
  opt.retry.max_attempts = 3;
  opt.retry.backoff_base = 1ms;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.jobs[1].outcome.attempts, 3u);
  EXPECT_EQ(rep.jobs[0].outcome.attempts, 1u);
  // A retried job's statistics are still the deterministic ones.
  const auto clean = sim::run_jobs(jobs, 1);
  expect_results_identical(rep.jobs[1].result, clean[1].result);
}

TEST_P(SweepRunnerTest, TransientExhaustionReportsFailedTransient) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  for (std::uint32_t a = 1; a <= 3; ++a) {
    plan.faults.push_back({0, a, sim::SweepFault::Kind::kThrowTransient, 0ms});
  }
  sim::SweepOptions opt = options(2);
  opt.retry.max_attempts = 3;
  opt.retry.backoff_base = 1ms;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.failed, 1u);
  const sim::SweepJobResult& bad = rep.jobs[0];
  EXPECT_EQ(bad.outcome.status, sim::JobStatus::kFailed);
  EXPECT_EQ(bad.outcome.failure, sim::FailureClass::kTransient);
  EXPECT_EQ(bad.outcome.attempts, 3u);
  ASSERT_TRUE(bad.error);
  EXPECT_THROW(std::rethrow_exception(bad.error), sim::TransientFault);
}

TEST_P(SweepRunnerTest, DeterministicFaultIsolatesOnlyThatJob) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt = options(3);
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.jobs[1].outcome.status, sim::JobStatus::kFailed);
  EXPECT_EQ(rep.jobs[1].outcome.failure, sim::FailureClass::kDeterministic);
  EXPECT_EQ(rep.jobs[1].outcome.attempts, 1u);  // never retried
  // Siblings completed with the exact clean-run statistics.
  const auto clean = sim::run_jobs(jobs, 1);
  expect_results_identical(rep.jobs[0].result, clean[0].result);
  expect_results_identical(rep.jobs[2].result, clean[2].result);
}

TEST_P(SweepRunnerTest, DeadlineCancelsOverrunningJob) {
  // The injected 200ms delay runs inside the armed 30ms deadline, so the
  // token is set before the simulation's first stepped cycle: the
  // timeout is deterministic, not a race on simulation speed.
  auto jobs = three_jobs(200'000);
  jobs.resize(1);
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kDelay, 200ms}};
  sim::SweepOptions opt = options(1);
  opt.job_deadline = 30ms;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.timed_out, 1u);
  const sim::SweepJobResult& jr = rep.jobs[0];
  EXPECT_EQ(jr.outcome.status, sim::JobStatus::kTimedOut);
  EXPECT_EQ(jr.outcome.attempts, 1u);  // terminal: no retry
  ASSERT_TRUE(jr.error);
  EXPECT_THROW(std::rethrow_exception(jr.error), core::SimulationAborted);
}

TEST_P(SweepRunnerTest, SpuriousWakeIsHarmless) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kSpuriousWake, 0ms},
                 {2, 1, sim::SweepFault::Kind::kSpuriousWake, 0ms}};
  sim::SweepOptions opt = options(2);
  opt.job_deadline = 60s;  // generous: nothing should actually expire
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_TRUE(rep.all_completed());
}

TEST_P(SweepRunnerTest, MaxFailuresDrainsRemainingJobsToSkipped) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  // One worker: jobs start in order, so job 0 fails before 1 and 2 start.
  sim::SweepOptions opt = options(1);
  opt.max_failures = 1;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.skipped, 2u);
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_EQ(rep.jobs[1].outcome.status, sim::JobStatus::kSkipped);
  EXPECT_EQ(rep.jobs[2].outcome.status, sim::JobStatus::kSkipped);
  EXPECT_EQ(rep.jobs[1].outcome.attempts, 0u);  // never attempted
}

TEST_P(SweepRunnerTest, ResumedSweepIsBitIdenticalToUninterrupted) {
  const auto jobs = three_jobs();
  const std::string ck = path("sweep.ckpt");

  // First run: job 2 fails deterministically, 0 and 1 are journaled.
  sim::SweepFaultPlan plan;
  plan.faults = {{2, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt = options(2);
  opt.checkpoint_path = ck;
  opt.faults = &plan;
  const sim::SweepReport partial = sim::run_sweep(jobs, opt);
  EXPECT_EQ(partial.completed, 2u);
  EXPECT_EQ(partial.failed, 1u);

  // Resume without the fault: only job 2 re-runs.
  sim::SweepOptions res = options(2);
  res.checkpoint_path = ck;
  res.resume = true;
  const sim::SweepReport rep = sim::run_sweep(jobs, res);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.resumed, 2u);
  EXPECT_TRUE(rep.jobs[0].outcome.from_checkpoint);
  EXPECT_TRUE(rep.jobs[1].outcome.from_checkpoint);
  EXPECT_FALSE(rep.jobs[2].outcome.from_checkpoint);

  const auto clean = sim::run_jobs(jobs, 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_results_identical(rep.jobs[i].result, clean[i].result);
  }
}

TEST_P(SweepRunnerTest, ResumeIgnoresTornTailLine) {
  const auto jobs = three_jobs();
  const std::string ck = path("sweep.ckpt");
  sim::SweepOptions opt = options(2);
  opt.checkpoint_path = ck;
  (void)sim::run_sweep(jobs, opt);

  // Simulate a kill mid-append: a record line cut off before its
  // payload survives the FNV guard.
  {
    std::ofstream torn(ck, std::ios::app | std::ios::binary);
    torn << "R\t0123456789abcdef\t2\tgcc\tsamie\ttruncat";  // no newline
  }
  sim::SweepOptions res = options(2);
  res.checkpoint_path = ck;
  res.resume = true;
  const sim::SweepReport rep = sim::run_sweep(jobs, res);
  EXPECT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.resumed, 3u);
  EXPECT_EQ(rep.checkpoint_lines_ignored, 1u);
}

TEST_P(SweepRunnerTest, CheckpointResumesUnderTheOtherRunner) {
  // Runner choice is excluded from the sweep fingerprint by design: a
  // journal written under one runner resumes under the other to the
  // clean run's exact results.
  const auto jobs = three_jobs();
  const std::string ck = path("sweep.ckpt");
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt = options(2);
  opt.checkpoint_path = ck;
  opt.faults = &plan;
  ASSERT_EQ(sim::run_sweep(jobs, opt).completed, 2u);

  sim::SweepOptions res = options(2, other_runner());
  res.checkpoint_path = ck;
  res.resume = true;
  const sim::SweepReport rep = sim::run_sweep(jobs, res);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.resumed, 2u);
  EXPECT_FALSE(rep.jobs[1].outcome.from_checkpoint);
  const auto clean = sim::run_jobs(jobs, 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_results_identical(rep.jobs[i].result, clean[i].result);
  }
}

TEST_P(SweepRunnerTest, DeadlineCancelDoesNotStallSiblingJobs) {
  // Job 1 sleeps through its deadline; the cancellation is contained —
  // its siblings complete normally on the other worker and the sweep
  // terminates.
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kDelay, 1200ms}};
  sim::SweepOptions opt = options(2);
  opt.retry.max_attempts = 1;
  opt.job_deadline = 400ms;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.jobs[1].outcome.status, sim::JobStatus::kTimedOut);
  EXPECT_TRUE(rep.jobs[0].completed());
  EXPECT_TRUE(rep.jobs[2].completed());
  EXPECT_EQ(rep.timed_out, 1u);
}

TEST_P(SweepRunnerTest, WorkerCountNeverChangesResults) {
  // Parallelism is a throughput knob, never an outcome knob: one worker
  // and four workers emit the same results, for every LSQ kind.
  for (const sim::LsqChoice lsq :
       {sim::LsqChoice::kConventional, sim::LsqChoice::kUnbounded,
        sim::LsqChoice::kArb, sim::LsqChoice::kSamie}) {
    auto jobs = three_jobs();
    for (sim::Job& j : jobs) {
      j.config = sim::paper_config(lsq);
      j.config.instructions = 3000;
      j.tag = sim::lsq_choice_name(lsq);
    }
    const sim::SweepReport one = sim::run_sweep(jobs, options(1));
    const sim::SweepReport four = sim::run_sweep(jobs, options(4));
    ASSERT_TRUE(one.all_completed());
    ASSERT_TRUE(four.all_completed());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_results_identical(one.jobs[i].result, four.jobs[i].result);
    }
  }
}

// -- trace-affine admission ---------------------------------------------------
//
// A fresh job whose trace is already built goes first, then one that
// opens a trace nobody holds, else job order. These tests pin one worker
// wherever they assert an order.

TEST_P(SweepRunnerTest, DistinctTracesAreAdmittedInJobOrder) {
  const auto jobs = three_jobs();
  const std::string ck = path("sweep.ckpt");
  sim::SweepOptions opt = options(1);
  opt.checkpoint_path = ck;
  ASSERT_TRUE(sim::run_sweep(jobs, opt).all_completed());
  EXPECT_EQ(journal_order(ck), (std::vector<std::size_t>{0, 1, 2}));
}

TEST_P(SweepRunnerTest, SharedTraceConsumersAreAdmittedTogether) {
  // Each SAMIE job runs right after the conventional job that built its
  // trace, so the trace is released before the next one is opened.
  const auto jobs = config_major_jobs();
  const std::string ck = path("sweep.ckpt");
  sim::SweepOptions opt = options(1);
  opt.checkpoint_path = ck;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(journal_order(ck), (std::vector<std::size_t>{0, 3, 1, 4, 2, 5}));
  EXPECT_EQ(rep.trace_resident_high_water, 1u);
}

TEST_P(SweepRunnerTest, MaxFailuresDrainOverSharedTracesSkipsOnlyUnstartedJobs) {
  // Admission runs 0, 3, 1, 4: job 4's failure drains jobs 2 and 5 —
  // not job 3, which ran already though it comes after job 2.
  const auto jobs = config_major_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{4, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt = options(1);
  opt.max_failures = 1;
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.completed, 3u);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.skipped, 2u);
  EXPECT_EQ(rep.jobs[2].outcome.status, sim::JobStatus::kSkipped);
  EXPECT_EQ(rep.jobs[5].outcome.status, sim::JobStatus::kSkipped);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(rep.jobs[i].outcome.status == sim::JobStatus::kSkipped,
              rep.jobs[i].outcome.attempts == 0)
        << "job " << i << ": Skipped must mean never started";
  }
}

TEST_P(SweepRunnerTest, ConfigMajorCheckpointResumesUnderTheOtherRunner) {
  // Interrupted midway (drained after job 4 fails), the journal holds
  // jobs 0, 3 and 1: one trace with both consumers done, one with one
  // left, one untouched. The other runner finishes the rest to the clean
  // run's exact results.
  const auto jobs = config_major_jobs();
  const std::string ck = path("sweep.ckpt");
  sim::SweepFaultPlan plan;
  plan.faults = {{4, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt = options(1);
  opt.checkpoint_path = ck;
  opt.max_failures = 1;
  opt.faults = &plan;
  ASSERT_EQ(sim::run_sweep(jobs, opt).completed, 3u);

  sim::SweepOptions res = options(2, other_runner());
  res.checkpoint_path = ck;
  res.resume = true;
  const sim::SweepReport rep = sim::run_sweep(jobs, res);
  ASSERT_TRUE(rep.all_completed());
  EXPECT_EQ(rep.resumed, 3u);
  const auto clean = sim::run_jobs(jobs, 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(rep.jobs[i].outcome.from_checkpoint, i == 0 || i == 1 || i == 3)
        << "job " << i;
    expect_results_identical(rep.jobs[i].result, clean[i].result);
  }
}

TEST_F(SweepSchedulerTest, ResumeRefusesADifferentSweep) {
  const auto jobs = three_jobs();
  const std::string ck = path("sweep.ckpt");
  sim::SweepOptions opt;
  opt.checkpoint_path = ck;
  (void)sim::run_sweep(jobs, opt);

  // Same file, different workload length => different fingerprint.
  const auto other = three_jobs(4000);
  sim::SweepOptions res;
  res.checkpoint_path = ck;
  res.resume = true;
  EXPECT_THROW((void)sim::run_sweep(other, res), sim::CheckpointError);

  // Different job count is refused too.
  auto fewer = three_jobs();
  fewer.pop_back();
  EXPECT_THROW((void)sim::run_sweep(fewer, res), sim::CheckpointError);
}

TEST_F(SweepSchedulerTest, CancellationTokenAbortsASimulationDirectly) {
  sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
  cfg.instructions = 50'000;
  const trace::TraceSource src = trace::TraceSource::generate(
      trace::spec2000_profile("gcc"), cfg.seed, cfg.instructions);
  std::atomic<bool> cancel{true};  // pre-set: aborts on the first cycle
  cfg.core.should_abort = &cancel;
  EXPECT_THROW((void)sim::run_simulation(cfg, src.view()),
               core::SimulationAborted);

  // An unset token changes nothing — bit-identical to no token at all.
  cancel.store(false);
  const sim::SimResult with_token = sim::run_simulation(cfg, src.view());
  cfg.core.should_abort = nullptr;
  const sim::SimResult without = sim::run_simulation(cfg, src.view());
  expect_results_identical(with_token, without);
}

TEST_P(SweepRunnerTest, FailureReportNamesEveryNonCompletedJob) {
  const auto jobs = three_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kThrowDeterministic, 0ms}};
  sim::SweepOptions opt = options(1);
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  std::ostringstream os;
  sim::print_failure_report(os, rep);
  const std::string text = os.str();
  EXPECT_NE(text.find("job=1"), std::string::npos);
  EXPECT_NE(text.find("program=ammp"), std::string::npos);
  EXPECT_NE(text.find("outcome=failed"), std::string::npos);
  EXPECT_NE(text.find("class=deterministic"), std::string::npos);
  EXPECT_NE(text.find("2/3 completed"), std::string::npos);
  EXPECT_EQ(text.find("job=0"), std::string::npos);  // completed: no line
}

// -- checkpoint layer --------------------------------------------------------

TEST_F(SweepSchedulerTest, CheckpointRoundTripsRecords) {
  const std::string ck = path("plain.ckpt");
  {
    auto w = sim::CheckpointWriter::create(ck, 7, 0xdeadbeefULL);
    w.append_record("first");
    w.append_record("second\twith\ttabs");
  }
  const sim::CheckpointContents c = sim::load_checkpoint(ck);
  EXPECT_EQ(c.njobs, 7u);
  EXPECT_EQ(c.fingerprint, 0xdeadbeefULL);
  ASSERT_EQ(c.records.size(), 2u);
  EXPECT_EQ(c.records[0], "first");
  EXPECT_EQ(c.records[1], "second\twith\ttabs");
  EXPECT_EQ(c.ignored_lines, 0u);
}

TEST_F(SweepSchedulerTest, CheckpointRejectsCorruptGuardAndBadHeader) {
  const std::string ck = path("guard.ckpt");
  {
    auto w = sim::CheckpointWriter::create(ck, 1, 1);
    w.append_record("payload");
  }
  // Flip a payload byte: the record's FNV guard must reject it.
  {
    std::fstream f(ck, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('X');
  }
  const sim::CheckpointContents c = sim::load_checkpoint(ck);
  EXPECT_TRUE(c.records.empty());
  EXPECT_EQ(c.ignored_lines, 1u);

  // A wrong magic line is fatal, not skippable.
  const std::string bad = path("bad.ckpt");
  std::ofstream(bad) << "not a checkpoint\n";
  EXPECT_THROW((void)sim::load_checkpoint(bad), sim::CheckpointError);
  EXPECT_THROW((void)sim::load_checkpoint(path("missing.ckpt")),
               sim::CheckpointError);
}

TEST(SimResultRoundTrip, IsBitExactForAwkwardDoubles) {
  sim::SimResult r{};
  r.core.cycles = 123456789;
  r.core.committed = 0xffffffffffffffffULL;
  r.core.ipc = 1.0 / 3.0;
  r.lsq_energy_nj = 0.1;
  r.lsq_distrib_nj = 1e-300;          // subnormal-adjacent
  r.lsq_shared_nj = 5e-324;           // smallest denormal
  r.lsq_addrbuf_nj = 1.7976931348623157e308;  // DBL_MAX
  r.lsq_bus_nj = -0.0;
  r.dcache_energy_nj = 2.5;
  r.shared_occupancy_mean = 0.30000000000000004;
  r.buffer_nonempty_frac = 1.0 - 1e-16;
  r.shared_occupancy_max = 42;
  const std::string text = sim::serialize_sim_result(r);
  sim::SimResult back{};
  ASSERT_TRUE(sim::parse_sim_result(text, back));
  EXPECT_EQ(sim::serialize_sim_result(back), text);
  // Negative zero survives (hexfloat keeps the sign bit).
  EXPECT_TRUE(std::signbit(back.lsq_bus_nj));
  EXPECT_EQ(back.core.committed, 0xffffffffffffffffULL);

  // Wrong field count or a garbage token parses as torn, never as a
  // silently-misassigned result.
  EXPECT_FALSE(sim::parse_sim_result(text + " 7", back));
  EXPECT_FALSE(sim::parse_sim_result("1 2 3", back));
  std::string mangled = text;
  mangled.replace(mangled.find(' ') + 1, 1, "q");
  EXPECT_FALSE(sim::parse_sim_result(mangled, back));
}

TEST(SimResultWire, SerializedStringIsPinned) {
  // Every field holds a different value, set by member name, so the
  // literal pins the token ORDER as well as the count: a reordered field
  // table keeps kSimResultFields but would load journals and frames
  // written by older builds into the wrong fields. Changing this string
  // means bumping kSimResultFields and kFrameVersion together.
  sim::SimResult r;
  r.core.cycles = 101;
  r.core.committed = 102;
  r.core.ipc = 1.5;
  r.core.mispredict_squashes = 103;
  r.core.deadlock_flushes = 104;
  r.core.loads_executed = 105;
  r.core.stores_committed = 106;
  r.core.forwarded_loads = 107;
  r.core.partial_forward_waits = 108;
  r.core.agen_gated = 109;
  r.core.value_mismatches = 110;
  r.core.dcache_way_known = 111;
  r.core.dcache_full = 112;
  r.core.dtlb_accesses = 113;
  r.core.dtlb_cached = 114;
  r.core.quiescent_cycles_skipped = 115;
  r.core.fast_forwards = 116;
  r.lsq_energy_nj = 2.25;
  r.lsq_distrib_nj = 3.25;
  r.lsq_shared_nj = 4.25;
  r.lsq_addrbuf_nj = 5.25;
  r.lsq_bus_nj = 6.25;
  r.dcache_energy_nj = 7.25;
  r.dtlb_energy_nj = 8.25;
  r.area_total = 9.5;
  r.area_distrib = 10.5;
  r.area_shared = 11.5;
  r.area_addrbuf = 12.5;
  r.shared_occupancy_mean = 0.125;
  r.shared_occupancy_max = 117;
  r.buffer_nonempty_frac = 0.375;
  r.buffer_occupancy_mean = 0.625;
  r.l1d_hits = 118;
  r.l1d_misses = 119;
  r.dtlb_hits = 120;
  r.dtlb_misses = 121;
  r.branch_mispredicts = 122;
  r.branch_lookups = 123;
  for (std::size_t i = 0; i < sim::LedgerCounts::kCount; ++i) {
    r.ledgers.v[i] = 200 + i;
  }
  EXPECT_EQ(sim::serialize_sim_result(r),
            "101 102 0x1.8p+0 103 104 105 106 107 108 109 110 111 112 113 "
            "114 115 116 0x1.2p+1 0x1.ap+1 0x1.1p+2 0x1.5p+2 0x1.9p+2 "
            "0x1.dp+2 0x1.08p+3 0x1.3p+3 0x1.5p+3 0x1.7p+3 0x1.9p+3 0x1p-3 "
            "117 0x1.8p-2 0x1.4p-1 118 119 120 121 122 123 200 201 202 203 "
            "204 205 206 207 208 209 210 211 212 213 214 215 216 217 218 "
            "219 220 221 222 223 224 225 226 227");
}

TEST(SweepFingerprint, IsPinned) {
  // A checkpoint journal records this hash and resume refuses any other,
  // so a changed value strands every journal written by older builds.
  // Every hashed knob is off its default, on a generated job and on a
  // trace-file job (the path is hashed, never opened).
  sim::SimConfig gen = sim::paper_config(sim::LsqChoice::kSamie);
  gen.instructions = 12'345;
  gen.seed = 7;
  gen.core.exploit_known_line_latency = true;
  gen.samie.banks = 32;
  gen.samie.entries_per_bank = 4;
  gen.samie.slots_per_entry = 6;
  gen.samie.shared_entries = 16;
  gen.samie.addr_buffer_slots = 32;
  gen.samie.unbounded_shared = true;
  sim::SimConfig file = sim::paper_config(sim::LsqChoice::kConventional);
  file.instructions = 4'000;
  file.trace_path = "traces/gzip.samt";
  file.paper_energy_constants = false;
  file.conventional.entries = 64;
  file.arb.banks = 4;
  file.arb.rows_per_bank = 16;
  file.arb.max_inflight = 32;
  const std::vector<sim::Job> jobs = {sim::Job{"mcf", gen, "32x4"},
                                      sim::Job{"gzip", file, "conv"}};
  EXPECT_EQ(sim::sweep_fingerprint(jobs), 0x8D4BE22C093A62C2ULL);
}

// ------------------------------------------------- trace-damage outcomes --
//
// Injected I/O faults (short-read, bit-flip) surface as the structured
// kTraceDamaged outcome: deterministic (never retried), quarantining
// only the job whose replay touched the damage, journaled as a 'D'
// record and sealed on resume — while every undamaged job's results
// stay byte-identical to a clean sweep's.

class TraceDamageSweepTest : public SweepRunnerTest {
 protected:
  /// Three replay jobs over small recorded v2 traces.
  [[nodiscard]] std::vector<sim::Job> trace_jobs() const {
    std::vector<sim::Job> jobs;
    for (const char* p : {"gcc", "ammp", "mcf"}) {
      trace::WorkloadGenerator gen(trace::spec2000_profile(p), 5);
      const trace::Trace t = gen.generate(3000);
      const std::string f = path(std::string(p) + ".samt");
      trace::write_samt_v2(f, trace::TraceView(t.ops.data(), t.ops.size()), p,
                           5, 512);
      sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
      cfg.instructions = 3000;
      cfg.trace_path = f;
      jobs.push_back(sim::Job{p, cfg, "samie"});
    }
    return jobs;
  }
};

TEST_P(TraceDamageSweepTest, ShortReadFaultQuarantinesOnlyThatJob) {
  const auto jobs = trace_jobs();
  const auto clean = sim::run_jobs(jobs, 1);
  sim::SweepFaultPlan plan;
  plan.faults = {{1, 1, sim::SweepFault::Kind::kShortRead, 0ms, 100}};
  sim::SweepOptions opt = options(2);
  opt.retry.max_attempts = 3;  // damage must NOT consume retries
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);

  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.trace_damaged, 1u);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kTraceDamaged);
  EXPECT_EQ(oc.failure, sim::FailureClass::kDeterministic);
  EXPECT_EQ(oc.attempts, 1u);  // deterministic: one attempt, no retry
  EXPECT_EQ(oc.damage, trace::TraceDamage::kTornTail);
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
  // The undamaged jobs are byte-identical to a clean run.
  expect_results_identical(rep.jobs[0].result, clean[0].result);
  expect_results_identical(rep.jobs[2].result, clean[2].result);
  // The failure report names the damage.
  std::ostringstream os;
  sim::print_failure_report(os, rep);
  EXPECT_NE(os.str().find("trace-damaged"), std::string::npos);
  EXPECT_NE(os.str().find("damage=torn-tail"), std::string::npos);
}

TEST_P(TraceDamageSweepTest, BitFlipFaultReportsBlockAndOffset) {
  const auto jobs = trace_jobs();
  sim::SweepFaultPlan plan;
  plan.faults = {{0, 1, sim::SweepFault::Kind::kBitFlipBlock, 0ms, 2}};
  sim::SweepOptions opt = options(1);
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  const sim::JobOutcome& oc = rep.jobs[0].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kTraceDamaged);
  EXPECT_EQ(oc.damage, trace::TraceDamage::kInteriorCorrupt);
  EXPECT_EQ(oc.damage_block, 2u);
  EXPECT_GT(oc.damage_offset, 0u);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
}

TEST_P(TraceDamageSweepTest, DamageIsJournaledAndSealedOnResume) {
  const auto jobs = trace_jobs();
  const std::string ckpt = path("sweep.ckpt");
  sim::SweepFaultPlan plan;
  plan.faults = {{2, 1, sim::SweepFault::Kind::kShortRead, 0ms, 0}};
  {
    sim::SweepOptions opt = options(1);
    opt.checkpoint_path = ckpt;
    opt.faults = &plan;
    const sim::SweepReport rep = sim::run_sweep(jobs, opt);
    EXPECT_EQ(rep.trace_damaged, 1u);
    EXPECT_EQ(rep.damage_sealed, 0u);  // found live, not from the journal
  }
  // The journal carries a guarded 'D' record for the damaged job.
  const sim::CheckpointContents c = sim::load_checkpoint(ckpt);
  EXPECT_EQ(c.records.size(), 2u);
  ASSERT_EQ(c.damaged.size(), 1u);
  EXPECT_NE(c.damaged[0].find("mcf"), std::string::npos);

  // Resume with no faults, under the other runner: the damaged job is
  // sealed from the journal, not re-run (the trace is clean now — a
  // resume must still not trust it, because the damage decision was
  // already journaled).
  sim::SweepOptions opt = options(1, other_runner());
  opt.checkpoint_path = ckpt;
  opt.resume = true;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(rep.resumed, 2u);
  EXPECT_EQ(rep.trace_damaged, 1u);
  EXPECT_EQ(rep.damage_sealed, 1u);
  EXPECT_TRUE(rep.jobs[2].outcome.from_checkpoint);
  EXPECT_EQ(rep.jobs[2].outcome.status, sim::JobStatus::kTraceDamaged);
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
}

TEST_P(TraceDamageSweepTest, RejectsImportOnlyAndTracelessIoFaults) {
  // Import-only kinds never belong in a sweep (a sweep replays, it does
  // not import) ...
  {
    sim::SweepFaultPlan plan;
    plan.faults = {{0, 1, sim::SweepFault::Kind::kEnospcOnImport, 0ms, 0}};
    sim::SweepOptions opt;
    opt.faults = &plan;
    EXPECT_THROW((void)sim::run_sweep(trace_jobs(), opt),
                 std::invalid_argument);
  }
  // ... and a read-side I/O fault aimed at a job with no trace file has
  // nothing to corrupt: misconfiguration, fail fast.
  {
    sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
    cfg.instructions = 1000;
    const std::vector<sim::Job> generated{sim::Job{"gcc", cfg, "samie"}};
    sim::SweepFaultPlan plan;
    plan.faults = {{0, 1, sim::SweepFault::Kind::kShortRead, 0ms, 0}};
    sim::SweepOptions opt;
    opt.faults = &plan;
    EXPECT_THROW((void)sim::run_sweep(generated, opt), std::invalid_argument);
  }
}

TEST_P(TraceDamageSweepTest, V1DamageIsQuarantinedLikeV2) {
  // Four v1 traces: gcc stays intact, ammp gets a flipped record byte,
  // mcf loses its last 13 bytes, and art is cut by an injected short
  // read. Each damaged job must end trace-damaged on its first attempt,
  // with the damage class trace_health reports for the same file.
  std::vector<sim::Job> jobs;
  for (const char* p : {"gcc", "ammp", "mcf", "art"}) {
    trace::WorkloadGenerator gen(trace::spec2000_profile(p), 5);
    const trace::Trace t = gen.generate(3000);
    const std::string f = path(std::string(p) + ".samt");
    trace::write_samt(f, t, p, 5);
    sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
    cfg.instructions = 3000;
    cfg.trace_path = f;
    jobs.push_back(sim::Job{p, cfg, "samie"});
  }
  const auto clean = sim::run_jobs(jobs, 1);
  {
    std::fstream f(path("ammp.samt"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(sizeof(trace::SamtHeader)) + 200);
    f.put('\x5a');
  }
  std::filesystem::resize_file(path("mcf.samt"),
                               std::filesystem::file_size(path("mcf.samt")) - 13);
  std::vector<trace::TraceDamage> want = {
      trace::TraceDamage::kNone, trace::trace_health(path("ammp.samt")).damage,
      trace::trace_health(path("mcf.samt")).damage};
  trace::set_io_fault(path("art.samt"),
                      {trace::IoFault::Kind::kShortRead, 100});
  want.push_back(trace::trace_health(path("art.samt")).damage);
  EXPECT_EQ(want[1], trace::TraceDamage::kInteriorCorrupt);
  EXPECT_EQ(want[2], trace::TraceDamage::kTornTail);
  EXPECT_EQ(want[3], trace::TraceDamage::kTornTail);

  sim::SweepFaultPlan plan;
  plan.faults = {{3, 1, sim::SweepFault::Kind::kShortRead, 0ms, 100}};
  sim::SweepOptions opt = options(2);
  opt.retry.max_attempts = 3;  // damage must NOT consume retries
  opt.faults = &plan;
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);

  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.trace_damaged, 3u);
  EXPECT_EQ(sim::sweep_exit_code(rep), 3);
  expect_results_identical(rep.jobs[0].result, clean[0].result);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].program);
    const sim::JobOutcome& oc = rep.jobs[i].outcome;
    EXPECT_EQ(oc.status, sim::JobStatus::kTraceDamaged);
    EXPECT_EQ(oc.failure, sim::FailureClass::kDeterministic);
    EXPECT_EQ(oc.attempts, 1u);
    EXPECT_EQ(oc.damage, want[i]);
  }
}

TEST_P(TraceDamageSweepTest, StraddlingRecordFailsOnceNamingTheRecord) {
  // An intact, guard-checked trace whose store moves 8 bytes at
  // 0x10000FFC, across a 64-byte block. Replay must refuse the record
  // before the core writes memory with it: a deterministic failure on
  // the first attempt that names the record, the other jobs untouched.
  const auto jobs = trace_jobs();
  const auto clean = sim::run_jobs(jobs, 1);
  const std::string& file = jobs[1].config.trace_path;
  trace::Trace t = trace::read_samt(file);
  std::size_t k = 0;
  while (t.ops[k].op != trace::OpClass::kStore) ++k;
  t.ops[k].mem_addr = 0x10000FFC;
  t.ops[k].mem_size = 8;
  trace::write_samt_v2(file, t, t.name, t.seed, 512);

  sim::SweepOptions opt = options(2);
  opt.retry.max_attempts = 3;  // must not be retried
  const sim::SweepReport rep = sim::run_sweep(jobs, opt);
  const sim::JobOutcome& oc = rep.jobs[1].outcome;
  EXPECT_EQ(oc.status, sim::JobStatus::kFailed);
  EXPECT_EQ(oc.failure, sim::FailureClass::kDeterministic);
  EXPECT_EQ(oc.attempts, 1u);
  EXPECT_NE(oc.what.find("record " + std::to_string(k) +
                         ": 8-byte access at 0x10000ffc"),
            std::string::npos)
      << oc.what;
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_EQ(sim::sweep_exit_code(rep), 2);
  expect_results_identical(rep.jobs[0].result, clean[0].result);
  expect_results_identical(rep.jobs[2].result, clean[2].result);
}

INSTANTIATE_TEST_SUITE_P(BothRunners, SweepRunnerTest,
                         ::testing::Values(Runner::kThreads, Runner::kChildren),
                         runner_name);
INSTANTIATE_TEST_SUITE_P(BothRunners, TraceDamageSweepTest,
                         ::testing::Values(Runner::kThreads, Runner::kChildren),
                         runner_name);

}  // namespace
}  // namespace samie
