// Residency tests for the sweep's trace cache (src/sim/trace_cache.h):
// the per-consumer release discipline must drop each source the moment
// its *last* consumer finishes — not at cache destruction — and a
// sweep's resident high-water mark must track the workers in flight, not
// every trace the sweep ever touched. This is the regression fence for
// the 458 MB suite RSS leak: before the fix the cache pinned every
// generated workload until the sweep returned. Release alone is not
// enough for a config-major sweep, whose traces each have consumers at
// both ends of the job list; the sweep's trace-affine admission is what
// keeps those bounded too.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/checkpoint.h"
#include "src/sim/experiment.h"
#include "src/sim/sweep_scheduler.h"
#include "src/sim/trace_cache.h"
#include "src/trace/trace_source.h"

namespace samie {
namespace {

[[nodiscard]] sim::Job job_for(const std::string& program,
                               std::uint64_t insts = 2000) {
  sim::Job j;
  j.program = program;
  j.config = sim::paper_config(sim::LsqChoice::kSamie);
  j.config.instructions = insts;
  j.tag = "cache-test";
  return j;
}

TEST(TraceCache, ReleasesEachSourceWhenItsLastConsumerFinishes) {
  // Jobs 0 and 1 share one trace (same program/seed/length); job 2 has
  // its own. The shared source must survive the first finished() and
  // drop on the second; the lone source drops immediately.
  const std::vector<sim::Job> jobs = {job_for("gcc"), job_for("gcc"),
                                      job_for("mcf")};
  sim::TraceCache cache(jobs, std::vector<bool>(jobs.size(), false));
  EXPECT_EQ(cache.pending_consumers(jobs[0]), 2U);
  EXPECT_EQ(cache.pending_consumers(jobs[2]), 1U);
  EXPECT_EQ(cache.resident_sources(), 0U);

  auto shared = cache.get(jobs[0]);
  auto lone = cache.get(jobs[2]);
  EXPECT_EQ(cache.get(jobs[1]).get(), shared.get())
      << "identical keys must share one build";
  EXPECT_EQ(cache.resident_sources(), 2U);

  cache.finished(jobs[2]);
  EXPECT_EQ(cache.resident_sources(), 1U)
      << "a lone consumer's trace must drop at its finished()";
  EXPECT_EQ(cache.pending_consumers(jobs[2]), 0U);

  cache.finished(jobs[0]);
  EXPECT_EQ(cache.resident_sources(), 1U)
      << "a shared trace must survive until the last consumer";
  cache.finished(jobs[1]);
  EXPECT_EQ(cache.resident_sources(), 0U);
  EXPECT_EQ(cache.pending_consumers(jobs[0]), 0U);

  // The handed-out shared_ptrs still keep the storage alive — only the
  // cache's own reference is gone.
  EXPECT_NE(shared->view().size(), 0U);
  EXPECT_NE(lone->view().size(), 0U);
  EXPECT_EQ(cache.resident_high_water(), 2U);
}

TEST(TraceCache, ResumeSkippedJobsNeverRegisterAsConsumers) {
  // A resumed job's trace is never requested; registering it would pin
  // the source forever (the consumer count could not reach zero).
  const std::vector<sim::Job> jobs = {job_for("gcc"), job_for("gcc"),
                                      job_for("mcf")};
  sim::TraceCache cache(jobs, {false, true, true});
  EXPECT_EQ(cache.pending_consumers(jobs[0]), 1U);
  EXPECT_EQ(cache.pending_consumers(jobs[2]), 0U);
  (void)cache.get(jobs[0]);
  cache.finished(jobs[0]);
  EXPECT_EQ(cache.resident_sources(), 0U);
}

TEST(TraceCache, SweepHighWaterTracksWorkersNotSuiteSize) {
  // Six distinct traces through two workers of either runner: with the
  // release discipline at most workers + 1 sources are ever resident
  // (the +1 is the window where the next trace is built before the
  // finished attempt's finished() lands). Before the fix this read 6.
  std::vector<sim::Job> jobs;
  for (const char* p : {"gcc", "mcf", "ammp", "art", "crafty", "gzip"}) {
    jobs.push_back(job_for(p));
  }
  sim::SweepOptions pool;
  pool.threads = 2;
  sim::SweepOptions isolated;
  isolated.isolate_procs = 2;
  for (const sim::SweepOptions& opt : {pool, isolated}) {
    const sim::SweepReport rep = sim::run_sweep(jobs, opt);
    ASSERT_TRUE(rep.all_completed());
    EXPECT_GE(rep.trace_resident_high_water, 1U);
    EXPECT_LE(rep.trace_resident_high_water, 3U)
        << "sweep pinned more traces than workers in flight (isolate_procs="
        << opt.isolate_procs << ")";
  }
}

/// Eight contrasting programs: enough that pinning every trace (8) is
/// well above workers + 1 at every worker count the tests use.
const std::vector<std::string> kPrograms = {"gcc", "mcf",    "ammp", "art",
                                            "crafty", "gzip", "swim", "vpr"};

/// The paper's figure sweeps: every program under the conventional LSQ,
/// then every program under SAMIE — each trace's two consumers are a
/// whole program list apart.
[[nodiscard]] std::vector<sim::Job> lsq_major_jobs() {
  std::vector<sim::Job> jobs;
  for (const sim::LsqChoice lsq :
       {sim::LsqChoice::kConventional, sim::LsqChoice::kSamie}) {
    for (const std::string& p : kPrograms) {
      sim::Job j = job_for(p);
      j.config = sim::paper_config(lsq);
      j.config.instructions = 2000;
      j.tag = sim::lsq_choice_name(lsq);
      jobs.push_back(j);
    }
  }
  return jobs;
}

/// The design-grid sweeps (Figures 3/4, the sizing study): every program
/// under one SAMIE geometry, then the next — three consumers per trace.
[[nodiscard]] std::vector<sim::Job> geometry_major_jobs() {
  std::vector<sim::Job> jobs;
  for (const std::uint32_t slots : {4U, 8U, 16U}) {
    for (const std::string& p : kPrograms) {
      sim::Job j = job_for(p);
      j.config.samie.slots_per_entry = slots;
      j.tag = "slots" + std::to_string(slots);
      jobs.push_back(j);
    }
  }
  return jobs;
}

TEST(TraceCache, ConfigMajorSweepKeepsOnlyTracesInFlightResident) {
  // Trace-affine admission: a trace's later consumers run as soon as it
  // is built, so it is released long before the sweep ends. Job-order
  // admission would pin all eight traces until the last configuration.
  for (const auto& jobs : {lsq_major_jobs(), geometry_major_jobs()}) {
    sim::SweepOptions serial;
    serial.threads = 1;
    const sim::SweepReport ref = sim::run_sweep(jobs, serial);
    ASSERT_TRUE(ref.all_completed());
    for (const unsigned workers : {1U, 2U, 4U}) {
      sim::SweepOptions pool;
      pool.threads = workers;
      sim::SweepOptions isolated;
      isolated.isolate_procs = workers;
      for (const sim::SweepOptions& opt : {pool, isolated}) {
        const sim::SweepReport rep = sim::run_sweep(jobs, opt);
        ASSERT_TRUE(rep.all_completed());
        EXPECT_LE(rep.trace_resident_high_water, workers + 1)
            << "workers=" << workers << " isolate_procs=" << opt.isolate_procs
            << " first tag=" << jobs.front().tag;
        // Admission order never leaks into the report: slots stay in job
        // order with bit-identical results.
        ASSERT_EQ(rep.jobs.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          EXPECT_EQ(rep.jobs[i].job.program, jobs[i].program);
          EXPECT_EQ(rep.jobs[i].job.tag, jobs[i].tag);
          EXPECT_EQ(sim::serialize_sim_result(rep.jobs[i].result),
                    sim::serialize_sim_result(ref.jobs[i].result))
              << "job " << i << " workers=" << workers
              << " isolate_procs=" << opt.isolate_procs;
        }
      }
    }
  }
}

}  // namespace
}  // namespace samie
