// Shared infrastructure for the reproduction benches: the paper's stated
// reference numbers, suite helpers, and consistent headers.
//
// Reference values come from two sources:
//   * exact numbers stated in the paper's text/tables (marked "paper");
//   * per-program values digitized approximately from the figures (marked
//     "~paper" in output) — bar charts only support coarse reading, so
//     these carry generous uncertainty and serve shape comparison only.
#pragma once

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/trace/spec2000.h"

namespace samie::bench {

/// Paper-stated aggregate results (Abstract / Section 4).
struct PaperAggregates {
  double lsq_energy_saving_pct = 82.0;
  double dcache_energy_saving_pct = 42.0;
  double dtlb_energy_saving_pct = 73.0;
  double ipc_loss_pct = 0.6;
  double dcache_saving_max_pct = 58.0;  // ammp, swim
  double dcache_saving_min_pct = 21.0;  // sixtrack
  double dtlb_saving_max_pct = 84.0;    // ammp
  double dtlb_saving_min_pct = 55.0;    // mcf
  double area_saving_pct = 5.0;         // accumulated active area
};

/// Coarse per-program IPC-loss readings from Figure 5 (percent; positive =
/// SAMIE slower). Programs absent from the map read ~0 in the figure.
inline const std::map<std::string, double>& fig5_ipc_loss_approx() {
  static const std::map<std::string, double> m = {
      {"ammp", 7.0},   {"apsi", 2.5},    {"mgrid", 1.5},
      {"facerec", -2.0}, {"fma3d", -2.0},
  };
  return m;
}

/// Coarse per-program deadlock readings from Figure 6 (per million cycles).
inline const std::map<std::string, double>& fig6_deadlocks_approx() {
  static const std::map<std::string, double> m = {
      {"ammp", 280.0}, {"apsi", 15.0}, {"mgrid", 10.0},
  };
  return m;
}

inline void print_header(const std::string& what) {
  std::cout << "\n=== SAMIE-LSQ reproduction: " << what << " ===\n"
            << "(paper: Abella & Gonzalez, IPDPS 2006; see perfbench/README.md)\n\n";
}

inline void print_footnote(std::uint64_t insts) {
  std::cout << "\n[" << insts << " instructions/program"
            << "; scale with SAMIE_BENCH_INSTS; threads with"
            << " SAMIE_BENCH_THREADS]\n";
}

/// Builds (program x LsqChoice) jobs over the whole suite.
inline std::vector<sim::Job> suite_jobs(sim::LsqChoice choice,
                                        std::uint64_t insts,
                                        const std::string& tag) {
  sim::SimConfig cfg = sim::paper_config(choice);
  cfg.instructions = insts;
  return sim::jobs_for_suite(cfg, tag);
}

}  // namespace samie::bench
