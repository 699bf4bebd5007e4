// Parallel experiment runner: fans (program, config) jobs out over worker
// threads. Traces are materialized once per (program, length, seed) — or
// read once per recorded trace file when `config.trace_path` is set —
// and shared read-only between workers (Core Guidelines CP.1: workers
// share only immutable traces and write disjoint result slots).
//
// run_jobs is the simple all-or-nothing interface: every job runs, and
// the first failure is rethrown after the pool drains. Sweeps that need
// per-job outcomes, retries, deadlines or checkpoint/resume use
// run_sweep (src/sim/sweep_scheduler.h), which this is a wrapper over.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/sim/sim_config.h"
#include "src/sim/simulator.h"

namespace samie::sim {

struct Job {
  /// SPEC2000 profile name; when `config.trace_path` is set this is only
  /// a display label (usually the recorded trace's header name).
  std::string program;
  SimConfig config;
  /// Free-form tag benches use to group results (e.g. "64x2", "samie").
  std::string tag;
};

struct JobResult {
  Job job;
  SimResult result;
};

/// Runs all jobs; results are returned in job order. `threads == 0` picks
/// bench_threads().
[[nodiscard]] std::vector<JobResult> run_jobs(const std::vector<Job>& jobs,
                                              unsigned threads = 0);

/// Convenience: one job per SPEC2000 program with a shared config.
[[nodiscard]] std::vector<Job> jobs_for_suite(const SimConfig& cfg,
                                              const std::string& tag);

}  // namespace samie::sim
