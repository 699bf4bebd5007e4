// Whole-simulation configuration: the paper's processor (Table 2),
// SAMIE-LSQ shape (Table 3) and the LSQ organization under test.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/core.h"
#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"
#include "src/mem/hierarchy.h"

namespace samie::sim {

enum class LsqChoice : std::uint8_t {
  kConventional,  ///< 128-entry fully-associative baseline
  kUnbounded,     ///< never-stalling reference (Figure 1 normalization)
  kArb,           ///< Franklin & Sohi banked baseline
  kSamie,         ///< the paper's contribution
};

[[nodiscard]] const char* lsq_choice_name(LsqChoice c) noexcept;

struct SimConfig {
  core::CoreConfig core;          ///< defaults == paper Table 2
  mem::HierarchyConfig memory;    ///< defaults == paper Table 2
  LsqChoice lsq = LsqChoice::kSamie;
  lsq::ConventionalLsqConfig conventional;  ///< 128 entries
  lsq::SamieConfig samie;                   ///< defaults == paper Table 3
  lsq::ArbConfig arb;
  /// Account energy with the paper's published constants (default) or
  /// with this repository's analytical surrogate model.
  bool paper_energy_constants = true;
  std::uint64_t instructions = 300'000;
  std::uint64_t seed = 42;
  /// When non-empty, the workload is the recorded SAMT trace at this path
  /// (read and verified into RAM) instead of a (profile, seed, length)
  /// triple; `instructions` then caps how much of the trace is replayed.
  std::string trace_path;

  // -- sharded long-trace replay (docs/SWEEP_ROBUSTNESS.md) --------------------
  /// Measured record range [trace_measure_begin, trace_measure_end) of
  /// `trace_path`; trace_measure_end == 0 means "to the end of the
  /// trace". The defaults (0, 0) replay the whole trace: the classic
  /// single-job path, bit-identical to before these fields existed.
  std::uint64_t trace_measure_begin = 0;
  std::uint64_t trace_measure_end = 0;
  /// Warm-up records replayed ahead of trace_measure_begin and excluded
  /// from the statistics by the two-run subtraction (trace_shard.h).
  /// Clamped to trace_measure_begin; UINT64_MAX means "the whole prefix"
  /// — the exact-reconciliation mode, where sharded stats telescope to
  /// the unsharded run's bit for bit.
  std::uint64_t trace_warmup = 0;
};

/// Warm-up records actually replayed ahead of the measured range: the
/// prefix cannot extend before record 0.
[[nodiscard]] inline std::uint64_t effective_trace_warmup(
    const SimConfig& cfg) noexcept {
  return cfg.trace_warmup < cfg.trace_measure_begin ? cfg.trace_warmup
                                                    : cfg.trace_measure_begin;
}

/// Records [begin, end) of `trace_path` a job opens: its measured range
/// plus the warm-up prefix ahead of it. Whole-trace jobs open [0, ~0).
struct TraceRange {
  std::uint64_t begin = 0;
  std::uint64_t end = ~std::uint64_t{0};
};
[[nodiscard]] inline TraceRange trace_open_range(const SimConfig& cfg) noexcept {
  return {cfg.trace_measure_begin - effective_trace_warmup(cfg),
          cfg.trace_measure_end != 0 ? cfg.trace_measure_end
                                     : ~std::uint64_t{0}};
}

/// The paper's evaluation configuration with the given LSQ choice.
[[nodiscard]] SimConfig paper_config(LsqChoice lsq);

/// Number of instructions for bench binaries: the built-in default can be
/// scaled with the SAMIE_BENCH_INSTS environment variable.
[[nodiscard]] std::uint64_t bench_instructions(std::uint64_t fallback = 300'000);

/// Worker-thread count for suite runs; honours SAMIE_BENCH_THREADS.
[[nodiscard]] unsigned bench_threads();

}  // namespace samie::sim
