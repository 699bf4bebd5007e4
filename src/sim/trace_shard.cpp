#include "src/sim/trace_shard.h"

#include <algorithm>
#include <stdexcept>

#include "src/sim/result_fields.h"
#include "src/trace/trace_io.h"

namespace samie::sim {

namespace {

// Fills the derived kinds from the fields they derive from: energies
// re-fold from r.ledgers through the constants `cfg` selects (the fold a
// plain run does, so counts that match an unsharded run's give
// bit-identical energy), and ipc is committed / cycles.
void derive(SimResult& r, const SimConfig& cfg) {
  fold_energies(r, cfg);
  r.core.ipc = r.core.cycles == 0 ? 0.0
                                  : static_cast<double>(r.core.committed) /
                                        static_cast<double>(r.core.cycles);
}

// Interpret a wrap-space cycle delta as a signed weight for the FP
// occupancy reconstructions (a tiny shard's drain overhead can push an
// individual delta negative; the signed weights still sum to the true
// total).
double signed_weight(std::uint64_t wrap_delta) {
  return static_cast<double>(static_cast<std::int64_t>(wrap_delta));
}

}  // namespace

SimResult subtract_measured(const SimResult& whole, const SimResult& base,
                            const SimConfig& cfg) {
  // Cycle-weighted mean reconstruction: mean over the measured cycles is
  // (mean_w * cyc_w - mean_b * cyc_b) / (cyc_w - cyc_b). FP, hence
  // approximate — the exactness guarantee covers integer fields and the
  // energies re-folded from them.
  const double cyc_w = static_cast<double>(whole.core.cycles);
  const double cyc_b = static_cast<double>(base.core.cycles);
  const double dcyc = cyc_w - cyc_b;
  SimResult r;
  for (const ResultField& f : result_fields()) {
    switch (f.kind) {
      case FieldKind::kCounter:
      case FieldKind::kEngineCounter:
      case FieldKind::kLedger:
        f.u64(r) = f.u64(whole) - f.u64(base);  // wrap space (see header)
        break;
      case FieldKind::kMax:
        f.u64(r) = f.u64(whole);
        break;
      case FieldKind::kMean:
        f.f64(r) = dcyc == 0.0 ? 0.0
                               : (f.f64(whole) * cyc_w - f.f64(base) * cyc_b) /
                                     dcyc;
        break;
      case FieldKind::kArea:
        f.f64(r) = f.f64(whole) - f.f64(base);
        break;
      case FieldKind::kEnergy:
      case FieldKind::kRatio:
        break;
    }
  }
  derive(r, cfg);
  return r;
}

SimResult merge_shard_results(const std::vector<SimResult>& shards,
                              const SimConfig& cfg) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_shard_results: no shard results");
  }
  SimResult r;
  double cyc_sum = 0.0;
  for (const SimResult& s : shards) {
    const double w = signed_weight(s.core.cycles);
    cyc_sum += w;
    for (const ResultField& f : result_fields()) {
      switch (f.kind) {
        case FieldKind::kCounter:
        case FieldKind::kEngineCounter:
        case FieldKind::kLedger:
          f.u64(r) += f.u64(s);
          break;
        case FieldKind::kMax:
          f.u64(r) = std::max(f.u64(r), f.u64(s));
          break;
        case FieldKind::kMean:
          f.f64(r) += f.f64(s) * w;  // numerator; divided below
          break;
        case FieldKind::kArea:
          f.f64(r) += f.f64(s);
          break;
        case FieldKind::kEnergy:
        case FieldKind::kRatio:
          break;
      }
    }
  }
  for (const ResultField& f : result_fields()) {
    if (f.kind == FieldKind::kMean) {
      f.f64(r) = cyc_sum == 0.0 ? 0.0 : f.f64(r) / cyc_sum;
    }
  }
  derive(r, cfg);
  return r;
}

std::vector<TraceShardJob> make_trace_shard_jobs(const Job& base,
                                                 std::uint32_t shards,
                                                 std::uint64_t warmup) {
  if (shards == 0) {
    throw std::invalid_argument("make_trace_shard_jobs: shards must be >= 1");
  }
  if (base.config.trace_path.empty()) {
    throw std::invalid_argument(
        "make_trace_shard_jobs: job has no trace_path");
  }
  if (trace::read_samt_header(base.config.trace_path).version !=
      trace::kSamtVersion2) {
    throw std::invalid_argument(
        "make_trace_shard_jobs: sharding needs a SAMT v2 trace (the v1 "
        "format has no block index); convert with samt_convert");
  }
  const trace::TraceV2Reader reader(base.config.trace_path);
  const std::uint64_t total =
      std::min<std::uint64_t>(reader.record_count(), base.config.instructions);
  if (total == 0) return {};

  // Candidate boundaries are block starts — the v2 unit of random
  // access — so every shard's measured range begins on a block it can
  // decode independently.
  std::vector<std::uint64_t> starts;
  starts.reserve(reader.index().size());
  for (const trace::SamtIndexEntry& e : reader.index()) {
    if (e.first_record < total) starts.push_back(e.first_record);
  }

  std::vector<std::uint64_t> bounds;
  bounds.push_back(0);
  for (std::uint32_t i = 1; i < shards; ++i) {
    const std::uint64_t ideal =
        static_cast<std::uint64_t>((__uint128_t{total} * i) / shards);
    // Snap to the start of the block containing the ideal cut.
    const auto it =
        std::upper_bound(starts.begin(), starts.end(), ideal) - 1;
    if (*it > bounds.back()) bounds.push_back(*it);
  }
  bounds.push_back(total);

  std::vector<TraceShardJob> out;
  out.reserve(bounds.size() - 1);
  const std::size_t n = bounds.size() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t begin = bounds[i];
    const std::uint64_t end = bounds[i + 1];
    TraceShardJob shard;
    shard.measure_begin = begin;
    shard.measure_end = end;
    shard.job = base;
    shard.job.program = base.program + "#" + std::to_string(i + 1) + "/" +
                        std::to_string(n);
    SimConfig& cfg = shard.job.config;
    cfg.trace_measure_begin = begin;
    cfg.trace_measure_end = end;
    cfg.trace_warmup = warmup;
    cfg.instructions = effective_trace_warmup(cfg) + (end - begin);
    out.push_back(std::move(shard));
  }
  return out;
}

}  // namespace samie::sim
