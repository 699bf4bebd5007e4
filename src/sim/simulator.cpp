#include "src/sim/simulator.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "src/branch/predictor.h"
#include "src/common/stats.h"
#include "src/core/core.h"
#include "src/energy/ledger.h"
#include "src/energy/lsq_model.h"
#include "src/lsq/arb_lsq.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/lsq_interface.h"
#include "src/lsq/samie_lsq.h"
#include "src/sim/result_fields.h"
#include "src/sim/trace_shard.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload.h"

namespace samie::sim {

namespace {

/// Integrates occupancy-dependent statistics once per cycle: the paper's
/// active-area policy (Section 4.2) and the Figure 3/4 occupancy series.
///
/// Core is templated over this concrete type, so on_cycle is a direct,
/// inlinable call — no virtual dispatch in the cycle loop. The per-cycle
/// work itself is batched: occupancy changes much slower than cycles, so
/// identical consecutive samples are run-length collected and the area /
/// occupancy math runs once per distinct sample at flush time. The
/// flush replays the accumulator updates once per covered cycle in the
/// original order, so every statistic stays bit-identical to the
/// unbatched per-cycle version.
class StatsCollector final {
 public:
  /// Keeps a reference to `cfg`, which must outlive the collector.
  StatsCollector(const SimConfig& cfg, const energy::LsqEnergyConstants& k)
      : cfg_(cfg),
        conv_entry_area_(energy::conv_entry_area_um2(k)),
        samie_fixed_area_(energy::samie_entry_fixed_area_um2(k)),
        samie_slot_area_(energy::samie_slot_area_um2(k)),
        addrbuf_slot_area_(energy::addrbuf_slot_area_um2(k)) {}

  void on_cycle(Cycle /*cycle*/, const lsq::OccupancySample& occ) {
    if (run_len_ != 0 && occ == run_sample_) {
      ++run_len_;
      return;
    }
    flush_run();
    run_sample_ = occ;
    run_len_ = 1;
  }

  /// Batched hook for the engine's quiescent-cycle fast-forward: `count`
  /// cycles sharing one occupancy sample extend the run-length directly.
  /// Identical by construction to `count` on_cycle calls — the flush
  /// still replays the accumulator updates once per covered cycle.
  void on_cycles(Cycle /*first*/, std::uint64_t count,
                 const lsq::OccupancySample& occ) {
    if (count == 0) return;
    if (run_len_ != 0 && occ == run_sample_) {
      run_len_ += count;
      return;
    }
    flush_run();
    run_sample_ = occ;
    run_len_ = count;
  }

  void fold_into(SimResult& r) {
    flush_run();
    r.area_total = cfg_.lsq == LsqChoice::kSamie ? area_.samie_total()
                                                 : area_.conventional();
    r.area_distrib = area_.distrib();
    r.area_shared = area_.shared();
    r.area_addrbuf = area_.addrbuf();
    r.shared_occupancy_mean = shared_occ_.mean();
    r.shared_occupancy_max = shared_max_;
    r.buffer_occupancy_mean = buffer_occ_.mean();
    r.buffer_nonempty_frac =
        cycles_ == 0 ? 0.0
                     : static_cast<double>(buffer_nonempty_) /
                           static_cast<double>(cycles_);
  }

 private:
  /// Applies the pending run: the occ-derived terms are computed once,
  /// then the accumulators advance one step per covered cycle (the exact
  /// FP operation sequence of the per-cycle version — Welford means and
  /// the area integrals round per cycle, so a single fused multiply
  /// would drift the low bits).
  void flush_run() {
    if (run_len_ == 0) return;
    const lsq::OccupancySample& occ = run_sample_;
    cycles_ += run_len_;
    if (cfg_.lsq == LsqChoice::kSamie) {
      // DistribLSQ: in-use entries plus one spare entry per non-full bank;
      // in-use slots plus one spare slot per active entry.
      const double spare_entries =
          static_cast<double>(cfg_.samie.banks - occ.distrib_banks_full);
      const double entries_active =
          static_cast<double>(occ.distrib_entries_used) + spare_entries;
      const double slots_active =
          static_cast<double>(occ.distrib_slots_used) +
          static_cast<double>(occ.distrib_entries_used -
                              occ.distrib_entries_full) +
          spare_entries;
      const double distrib =
          entries_active * samie_fixed_area_ + slots_active * samie_slot_area_;
      const double shared = shared_area(occ);
      const double addrbuf =
          addrbuf_slot_area_ *
          static_cast<double>(
              std::min(occ.buffer_used + 4, cfg_.samie.addr_buffer_slots));
      const double shared_used = static_cast<double>(occ.shared_entries_used);
      const double buffer_used = static_cast<double>(occ.buffer_used);
      for (std::uint64_t i = 0; i < run_len_; ++i) {
        area_.add_cycle(distrib, shared, addrbuf);
        shared_occ_.add(shared_used);
        buffer_occ_.add(buffer_used);
      }
      shared_max_ =
          std::max<std::uint64_t>(shared_max_, occ.shared_entries_used);
      if (occ.buffer_used > 0) buffer_nonempty_ += run_len_;
    } else {
      // Conventional policy: in-use entries plus four spare entries.
      const double active =
          static_cast<double>(
              std::min(occ.entries_used + 4, cfg_.conventional.entries)) *
          conv_entry_area_;
      for (std::uint64_t i = 0; i < run_len_; ++i) {
        area_.add_cycle_conventional(active);
      }
    }
    run_len_ = 0;
  }

  [[nodiscard]] double shared_area(const lsq::OccupancySample& occ) const {
    const std::uint32_t capacity = cfg_.samie.unbounded_shared
                                       ? occ.shared_entries_used + 1
                                       : cfg_.samie.shared_entries;
    const double spare = occ.shared_entries_used < capacity ? 1.0 : 0.0;
    const double entries_active =
        static_cast<double>(occ.shared_entries_used) + spare;
    const double slots_active =
        static_cast<double>(occ.shared_slots_used) +
        static_cast<double>(occ.shared_entries_used - occ.shared_entries_full) +
        spare;
    return entries_active * samie_fixed_area_ + slots_active * samie_slot_area_;
  }

  const SimConfig& cfg_;
  double conv_entry_area_;
  double samie_fixed_area_;
  double samie_slot_area_;
  double addrbuf_slot_area_;
  energy::AreaIntegrator area_;
  RunningStat shared_occ_;
  RunningStat buffer_occ_;
  std::uint64_t shared_max_ = 0;
  std::uint64_t buffer_nonempty_ = 0;
  std::uint64_t cycles_ = 0;
  lsq::OccupancySample run_sample_;
  std::uint64_t run_len_ = 0;
};

// Each LSQ kind bundles its queue with the ledger it reports to (if
// any). The bundle is all that varies across LSQ kinds; the rest of the
// machine is uniform.

struct ConvBundle {
  using Queue = lsq::ConventionalLsq;
  energy::ConvLsqLedger ledger;
  Queue queue;
  ConvBundle(const SimConfig& cfg, const energy::LsqEnergyConstants& k)
      : ledger(k), queue(cfg.conventional, &ledger) {}
  Queue& get() { return queue; }
  void save_counts(LedgerCounts& c) const {
    ledger.save(c.v + LedgerCounts::kConv);
  }
};

struct UnboundedBundle {
  using Queue = lsq::LoadStoreQueue;
  std::unique_ptr<Queue> queue;
  UnboundedBundle(const SimConfig& cfg, const energy::LsqEnergyConstants&)
      : queue(lsq::make_unbounded_lsq(cfg.core.rob_size)) {}
  Queue& get() { return *queue; }
  void save_counts(LedgerCounts&) const {}
};

struct ArbBundle {
  using Queue = lsq::ArbLsq;
  Queue queue;
  ArbBundle(const SimConfig& cfg, const energy::LsqEnergyConstants&)
      : queue(cfg.arb) {}
  Queue& get() { return queue; }
  void save_counts(LedgerCounts&) const {}
};

struct SamieBundle {
  using Queue = lsq::SamieLsq;
  energy::SamieLsqLedger ledger;
  Queue queue;
  SamieBundle(const SimConfig& cfg, const energy::LsqEnergyConstants& k)
      : ledger(k), queue(cfg.samie, &ledger) {}
  Queue& get() { return queue; }
  void save_counts(LedgerCounts& c) const {
    ledger.save(c.v + LedgerCounts::kSamie);
  }
};

/// Builds the machine for `cfg` and runs it to completion. The LSQ types
/// are all `final` and the observer is the concrete StatsCollector, so
/// Core<Queue, StatsCollector> statically dispatches every LSQ call and
/// the per-cycle observer hook — zero virtual calls in the cycle loop.
template <typename Bundle>
SimResult run_machine(const SimConfig& cfg, trace::TraceView trace) {
  const energy::LsqEnergyConstants constants = energy_constants(cfg);
  energy::DcacheLedger dcache_ledger(constants);
  energy::DtlbLedger dtlb_ledger(constants);
  Bundle bundle(cfg, constants);
  mem::MemoryHierarchy memory(cfg.memory);
  branch::HybridPredictor predictor;
  branch::Btb btb;
  StatsCollector collector(cfg, constants);
  core::Core<typename Bundle::Queue, StatsCollector> machine(
      cfg.core, trace, bundle.get(), memory, predictor, btb, &dcache_ledger,
      &dtlb_ledger, &collector);

  SimResult r;
  r.core = machine.run(cfg.instructions);
  collector.fold_into(r);
  r.l1d_hits = memory.l1d().hits();
  r.l1d_misses = memory.l1d().misses();
  r.dtlb_hits = memory.dtlb().hits();
  r.dtlb_misses = memory.dtlb().misses();
  r.branch_mispredicts = predictor.mispredicts();
  r.branch_lookups = predictor.lookups();
  dcache_ledger.save(r.ledgers.v + LedgerCounts::kDcache);
  dtlb_ledger.save(r.ledgers.v + LedgerCounts::kDtlb);
  bundle.save_counts(r.ledgers);
  fold_energies(r, cfg);
  return r;
}

/// Runs one job: a plain run, or — for a shard of a sharded replay — the
/// warm-up-excluding difference of two complete runs over the same view
/// (trace_shard.h): first the warm-up prefix alone (the "base" run),
/// then prefix plus measured range (the "whole" run). Two complete runs,
/// rather than one run with a stats reset, keep the subtraction exact:
/// under full warm-up, shard i's base run is bit-identical to shard
/// i-1's whole run, so the per-shard differences telescope to the
/// unsharded totals.
template <typename Bundle>
SimResult run_job(const SimConfig& cfg, trace::TraceView trace) {
  const std::uint64_t warm = effective_trace_warmup(cfg);
  if (warm == 0) return run_machine<Bundle>(cfg, trace);
  const std::uint64_t total =
      std::min<std::uint64_t>(cfg.instructions, trace.size());
  // The sub-runs replay plain prefixes: shard fields zeroed, so they are
  // bit-identical to standalone runs over the same records.
  SimConfig sub = cfg;
  sub.trace_measure_begin = 0;
  sub.trace_measure_end = 0;
  sub.trace_warmup = 0;
  sub.instructions = std::min(warm, total);
  const SimResult base =
      run_machine<Bundle>(sub, trace.subview(0, sub.instructions));
  sub.instructions = total;
  const SimResult whole = run_machine<Bundle>(sub, trace.subview(0, total));
  return subtract_measured(whole, base, cfg);
}

}  // namespace

SimResult run_simulation(const SimConfig& cfg, trace::TraceView trace) {
  switch (cfg.lsq) {
    case LsqChoice::kConventional: return run_job<ConvBundle>(cfg, trace);
    case LsqChoice::kUnbounded: return run_job<UnboundedBundle>(cfg, trace);
    case LsqChoice::kArb: return run_job<ArbBundle>(cfg, trace);
    case LsqChoice::kSamie: return run_job<SamieBundle>(cfg, trace);
  }
  throw std::logic_error("run_simulation: unknown LsqChoice");
}

SimResult run_program(const SimConfig& cfg, const std::string& program) {
  if (!cfg.trace_path.empty()) return run_trace_file(cfg);
  trace::WorkloadGenerator gen(trace::spec2000_profile(program), cfg.seed);
  const trace::Trace t = gen.generate(cfg.instructions);
  return run_simulation(cfg, t);
}

SimResult run_trace_file(const SimConfig& cfg) {
  if (cfg.trace_path.empty()) {
    throw std::invalid_argument("run_trace_file: cfg.trace_path is empty");
  }
  const TraceRange range = trace_open_range(cfg);
  const trace::TraceSource source =
      trace::TraceSource::open_samt(cfg.trace_path, range.begin, range.end);
  return run_simulation(cfg, source.view());
}

}  // namespace samie::sim
