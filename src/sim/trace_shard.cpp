#include "src/sim/trace_shard.h"

#include <algorithm>
#include <stdexcept>

#include "src/energy/ledger.h"
#include "src/energy/lsq_model.h"
#include "src/trace/trace_io.h"

namespace samie::sim {

namespace {

// Re-fold every energy field of `r` from r.ledgers through the constants
// `cfg` selects — the same constants, the same O(1) fold a plain run does,
// so counts that match an unsharded run's produce bit-identical energy.
void refold_energies(SimResult& r, const SimConfig& cfg) {
  const energy::LsqEnergyConstants k =
      cfg.paper_energy_constants
          ? energy::paper_constants()
          : energy::derived_constants(energy::tech_100nm());
  energy::DcacheLedger dcache(k);
  dcache.load(r.ledgers.v + LedgerCounts::kDcache);
  r.dcache_energy_nj = dcache.energy_pj() / 1e3;
  energy::DtlbLedger dtlb(k);
  dtlb.load(r.ledgers.v + LedgerCounts::kDtlb);
  r.dtlb_energy_nj = dtlb.energy_pj() / 1e3;

  r.lsq_energy_nj = 0.0;
  r.lsq_distrib_nj = 0.0;
  r.lsq_shared_nj = 0.0;
  r.lsq_addrbuf_nj = 0.0;
  r.lsq_bus_nj = 0.0;
  switch (cfg.lsq) {
    case LsqChoice::kConventional: {
      energy::ConvLsqLedger conv(k);
      conv.load(r.ledgers.v + LedgerCounts::kConv);
      r.lsq_energy_nj = conv.energy_pj() / 1e3;
      break;
    }
    case LsqChoice::kSamie: {
      energy::SamieLsqLedger samie(k);
      samie.load(r.ledgers.v + LedgerCounts::kSamie);
      r.lsq_energy_nj = samie.energy_pj() / 1e3;
      r.lsq_distrib_nj = samie.distrib_pj() / 1e3;
      r.lsq_shared_nj = samie.shared_pj() / 1e3;
      r.lsq_addrbuf_nj = samie.addrbuf_pj() / 1e3;
      r.lsq_bus_nj = samie.bus_pj() / 1e3;
      break;
    }
    case LsqChoice::kUnbounded:
    case LsqChoice::kArb:
      break;
  }
}

void recompute_ipc(SimResult& r) {
  r.core.ipc = r.core.cycles == 0
                   ? 0.0
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
  SimResult r;
  // Integer counters: wrap-space subtraction (see header).
  r.core.cycles = whole.core.cycles - base.core.cycles;
  r.core.committed = whole.core.committed - base.core.committed;
  r.core.mispredict_squashes =
      whole.core.mispredict_squashes - base.core.mispredict_squashes;
  r.core.deadlock_flushes =
      whole.core.deadlock_flushes - base.core.deadlock_flushes;
  r.core.loads_executed = whole.core.loads_executed - base.core.loads_executed;
  r.core.stores_committed =
      whole.core.stores_committed - base.core.stores_committed;
  r.core.forwarded_loads =
      whole.core.forwarded_loads - base.core.forwarded_loads;
  r.core.partial_forward_waits =
      whole.core.partial_forward_waits - base.core.partial_forward_waits;
  r.core.agen_gated = whole.core.agen_gated - base.core.agen_gated;
  r.core.value_mismatches =
      whole.core.value_mismatches - base.core.value_mismatches;
  r.core.dcache_way_known =
      whole.core.dcache_way_known - base.core.dcache_way_known;
  r.core.dcache_full = whole.core.dcache_full - base.core.dcache_full;
  r.core.dtlb_accesses = whole.core.dtlb_accesses - base.core.dtlb_accesses;
  r.core.dtlb_cached = whole.core.dtlb_cached - base.core.dtlb_cached;
  r.core.quiescent_cycles_skipped = whole.core.quiescent_cycles_skipped -
                                    base.core.quiescent_cycles_skipped;
  r.core.fast_forwards = whole.core.fast_forwards - base.core.fast_forwards;

  r.l1d_hits = whole.l1d_hits - base.l1d_hits;
  r.l1d_misses = whole.l1d_misses - base.l1d_misses;
  r.dtlb_hits = whole.dtlb_hits - base.dtlb_hits;
  r.dtlb_misses = whole.dtlb_misses - base.dtlb_misses;
  r.branch_mispredicts = whole.branch_mispredicts - base.branch_mispredicts;
  r.branch_lookups = whole.branch_lookups - base.branch_lookups;
  r.shared_occupancy_max = whole.shared_occupancy_max;

  for (std::size_t i = 0; i < LedgerCounts::kCount; ++i) {
    r.ledgers.v[i] = whole.ledgers.v[i] - base.ledgers.v[i];
  }

  refold_energies(r, cfg);
  recompute_ipc(r);

  // Cycle-weighted mean reconstruction: mean over the measured cycles is
  // (mean_w * cyc_w - mean_b * cyc_b) / (cyc_w - cyc_b). FP, hence
  // approximate — the exactness guarantee covers integer fields and the
  // energies re-folded from them.
  const double cyc_w = static_cast<double>(whole.core.cycles);
  const double cyc_b = static_cast<double>(base.core.cycles);
  const double dcyc = cyc_w - cyc_b;
  const auto weighted_delta = [&](double mw, double mb) {
    return dcyc == 0.0 ? 0.0 : (mw * cyc_w - mb * cyc_b) / dcyc;
  };
  r.shared_occupancy_mean =
      weighted_delta(whole.shared_occupancy_mean, base.shared_occupancy_mean);
  r.buffer_nonempty_frac =
      weighted_delta(whole.buffer_nonempty_frac, base.buffer_nonempty_frac);
  r.buffer_occupancy_mean =
      weighted_delta(whole.buffer_occupancy_mean, base.buffer_occupancy_mean);

  r.area_total = whole.area_total - base.area_total;
  r.area_distrib = whole.area_distrib - base.area_distrib;
  r.area_shared = whole.area_shared - base.area_shared;
  r.area_addrbuf = whole.area_addrbuf - base.area_addrbuf;
  return r;
}

SimResult merge_shard_results(const std::vector<SimResult>& shards,
                              const SimConfig& cfg) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_shard_results: no shard results");
  }
  SimResult r;
  double occ_num = 0.0, busy_num = 0.0, buf_num = 0.0, cyc_sum = 0.0;
  for (const SimResult& s : shards) {
    r.core.cycles += s.core.cycles;
    r.core.committed += s.core.committed;
    r.core.mispredict_squashes += s.core.mispredict_squashes;
    r.core.deadlock_flushes += s.core.deadlock_flushes;
    r.core.loads_executed += s.core.loads_executed;
    r.core.stores_committed += s.core.stores_committed;
    r.core.forwarded_loads += s.core.forwarded_loads;
    r.core.partial_forward_waits += s.core.partial_forward_waits;
    r.core.agen_gated += s.core.agen_gated;
    r.core.value_mismatches += s.core.value_mismatches;
    r.core.dcache_way_known += s.core.dcache_way_known;
    r.core.dcache_full += s.core.dcache_full;
    r.core.dtlb_accesses += s.core.dtlb_accesses;
    r.core.dtlb_cached += s.core.dtlb_cached;
    r.core.quiescent_cycles_skipped += s.core.quiescent_cycles_skipped;
    r.core.fast_forwards += s.core.fast_forwards;

    r.l1d_hits += s.l1d_hits;
    r.l1d_misses += s.l1d_misses;
    r.dtlb_hits += s.dtlb_hits;
    r.dtlb_misses += s.dtlb_misses;
    r.branch_mispredicts += s.branch_mispredicts;
    r.branch_lookups += s.branch_lookups;
    r.shared_occupancy_max =
        std::max(r.shared_occupancy_max, s.shared_occupancy_max);

    for (std::size_t i = 0; i < LedgerCounts::kCount; ++i) {
      r.ledgers.v[i] += s.ledgers.v[i];
    }

    const double w = signed_weight(s.core.cycles);
    occ_num += s.shared_occupancy_mean * w;
    busy_num += s.buffer_nonempty_frac * w;
    buf_num += s.buffer_occupancy_mean * w;
    cyc_sum += w;

    r.area_total += s.area_total;
    r.area_distrib += s.area_distrib;
    r.area_shared += s.area_shared;
    r.area_addrbuf += s.area_addrbuf;
  }

  refold_energies(r, cfg);
  recompute_ipc(r);
  if (cyc_sum != 0.0) {
    r.shared_occupancy_mean = occ_num / cyc_sum;
    r.buffer_nonempty_frac = busy_num / cyc_sum;
    r.buffer_occupancy_mean = buf_num / cyc_sum;
  }
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
