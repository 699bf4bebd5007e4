#include "src/sim/result_fields.h"

#include <iterator>
#include <stdexcept>
#include <string>

#include "src/energy/ledger.h"
#include "src/sim/checkpoint.h"

namespace samie::sim {

namespace {

using energy::LsqEnergyConstants;
using Ref = ResultField::Ref;

template <auto Member>
Ref in_core(SimResult& r) {
  return &(r.core.*Member);
}
template <auto Member>
Ref in_result(SimResult& r) {
  return &(r.*Member);
}
template <std::size_t I>
Ref ledger(SimResult& r) {
  return &r.ledgers.v[I];
}

/// `Part` of the ledger saved at r.ledgers.v[At], in nJ.
template <typename Ledger, std::size_t At, double (Ledger::*Part)() const>
double part_nj(const LedgerCounts& c, const LsqEnergyConstants& k) {
  Ledger l(k);
  l.load(c.v + At);
  return (l.*Part)() / 1e3;
}

// An LSQ ledger is fed only under its own LSQ kind; the D-cache and
// DTLB ledgers under every kind.
template <double (energy::SamieLsqLedger::*Part)() const>
double samie_nj(const LedgerCounts& c, const LsqEnergyConstants& k,
                LsqChoice lsq) {
  return lsq == LsqChoice::kSamie
             ? part_nj<energy::SamieLsqLedger, LedgerCounts::kSamie, Part>(c, k)
             : 0.0;
}

double lsq_nj(const LedgerCounts& c, const LsqEnergyConstants& k,
              LsqChoice lsq) {
  if (lsq != LsqChoice::kConventional) {
    return samie_nj<&energy::SamieLsqLedger::energy_pj>(c, k, lsq);
  }
  return part_nj<energy::ConvLsqLedger, LedgerCounts::kConv,
                 &energy::ConvLsqLedger::energy_pj>(c, k);
}

template <typename Ledger, std::size_t At>
double memory_nj(const LedgerCounts& c, const LsqEnergyConstants& k,
                 LsqChoice) {
  return part_nj<Ledger, At, &Ledger::energy_pj>(c, k);
}

using C = core::CoreResult;
using S = SimResult;
using L = LedgerCounts;
using energy::SamieLsqLedger;
using enum FieldKind;

// Row order is the journal token order: reordering rows silently
// misassigns fields of older journals (SimResultWire pins it).
constexpr ResultField kFields[] = {
    {"cycles", kStatistic, in_core<&C::cycles>},
    {"committed", kStatistic, in_core<&C::committed>},
    {"ipc", kStatistic, in_core<&C::ipc>},
    {"mispredict_squashes", kStatistic, in_core<&C::mispredict_squashes>},
    {"deadlock_flushes", kStatistic, in_core<&C::deadlock_flushes>},
    {"loads_executed", kStatistic, in_core<&C::loads_executed>},
    {"stores_committed", kStatistic, in_core<&C::stores_committed>},
    {"forwarded_loads", kStatistic, in_core<&C::forwarded_loads>},
    {"partial_forward_waits", kStatistic, in_core<&C::partial_forward_waits>},
    {"agen_gated", kStatistic, in_core<&C::agen_gated>},
    {"value_mismatches", kStatistic, in_core<&C::value_mismatches>},
    {"dcache_way_known", kStatistic, in_core<&C::dcache_way_known>},
    {"dcache_full", kStatistic, in_core<&C::dcache_full>},
    {"dtlb_accesses", kStatistic, in_core<&C::dtlb_accesses>},
    {"dtlb_cached", kStatistic, in_core<&C::dtlb_cached>},
    {"quiescent_cycles_skipped", kEngineCounter,
     in_core<&C::quiescent_cycles_skipped>},
    {"fast_forwards", kEngineCounter, in_core<&C::fast_forwards>},
    {"lsq_energy_nj", kEnergy, in_result<&S::lsq_energy_nj>, lsq_nj},
    {"lsq_distrib_nj", kEnergy, in_result<&S::lsq_distrib_nj>,
     samie_nj<&SamieLsqLedger::distrib_pj>},
    {"lsq_shared_nj", kEnergy, in_result<&S::lsq_shared_nj>,
     samie_nj<&SamieLsqLedger::shared_pj>},
    {"lsq_addrbuf_nj", kEnergy, in_result<&S::lsq_addrbuf_nj>,
     samie_nj<&SamieLsqLedger::addrbuf_pj>},
    {"lsq_bus_nj", kEnergy, in_result<&S::lsq_bus_nj>,
     samie_nj<&SamieLsqLedger::bus_pj>},
    {"dcache_energy_nj", kEnergy, in_result<&S::dcache_energy_nj>,
     memory_nj<energy::DcacheLedger, L::kDcache>},
    {"dtlb_energy_nj", kEnergy, in_result<&S::dtlb_energy_nj>,
     memory_nj<energy::DtlbLedger, L::kDtlb>},
    {"area_total", kStatistic, in_result<&S::area_total>},
    {"area_distrib", kStatistic, in_result<&S::area_distrib>},
    {"area_shared", kStatistic, in_result<&S::area_shared>},
    {"area_addrbuf", kStatistic, in_result<&S::area_addrbuf>},
    {"shared_occupancy_mean", kStatistic, in_result<&S::shared_occupancy_mean>},
    {"shared_occupancy_max", kStatistic, in_result<&S::shared_occupancy_max>},
    {"buffer_nonempty_frac", kStatistic, in_result<&S::buffer_nonempty_frac>},
    {"buffer_occupancy_mean", kStatistic, in_result<&S::buffer_occupancy_mean>},
    {"l1d_hits", kStatistic, in_result<&S::l1d_hits>},
    {"l1d_misses", kStatistic, in_result<&S::l1d_misses>},
    {"dtlb_hits", kStatistic, in_result<&S::dtlb_hits>},
    {"dtlb_misses", kStatistic, in_result<&S::dtlb_misses>},
    {"branch_mispredicts", kStatistic, in_result<&S::branch_mispredicts>},
    {"branch_lookups", kStatistic, in_result<&S::branch_lookups>},
    // Raw ledger counts, in each ledger's save() order.
    {"conv.searches", kStatistic, ledger<L::kConv + 0>},
    {"conv.addrs_compared", kStatistic, ledger<L::kConv + 1>},
    {"conv.addr_rw", kStatistic, ledger<L::kConv + 2>},
    {"conv.datum_rw", kStatistic, ledger<L::kConv + 3>},
    {"samie.bus_sends", kStatistic, ledger<L::kSamie + 0>},
    {"samie.d_addr_searches", kStatistic, ledger<L::kSamie + 1>},
    {"samie.d_addrs_compared", kStatistic, ledger<L::kSamie + 2>},
    {"samie.d_age_searches", kStatistic, ledger<L::kSamie + 3>},
    {"samie.d_age_ids_compared", kStatistic, ledger<L::kSamie + 4>},
    {"samie.d_addr_rw", kStatistic, ledger<L::kSamie + 5>},
    {"samie.d_age_rw", kStatistic, ledger<L::kSamie + 6>},
    {"samie.d_datum_rw", kStatistic, ledger<L::kSamie + 7>},
    {"samie.d_translation_rw", kStatistic, ledger<L::kSamie + 8>},
    {"samie.d_line_id_rw", kStatistic, ledger<L::kSamie + 9>},
    {"samie.s_addr_searches", kStatistic, ledger<L::kSamie + 10>},
    {"samie.s_addrs_compared", kStatistic, ledger<L::kSamie + 11>},
    {"samie.s_age_searches", kStatistic, ledger<L::kSamie + 12>},
    {"samie.s_age_ids_compared", kStatistic, ledger<L::kSamie + 13>},
    {"samie.s_addr_rw", kStatistic, ledger<L::kSamie + 14>},
    {"samie.s_age_rw", kStatistic, ledger<L::kSamie + 15>},
    {"samie.s_datum_rw", kStatistic, ledger<L::kSamie + 16>},
    {"samie.s_translation_rw", kStatistic, ledger<L::kSamie + 17>},
    {"samie.s_line_id_rw", kStatistic, ledger<L::kSamie + 18>},
    {"samie.addrbuf_accesses", kStatistic, ledger<L::kSamie + 19>},
    {"dcache.full", kStatistic, ledger<L::kDcache + 0>},
    {"dcache.way_known", kStatistic, ledger<L::kDcache + 1>},
    {"dtlb.accesses", kStatistic, ledger<L::kDtlb + 0>},
    {"dtlb.cached", kStatistic, ledger<L::kDtlb + 1>},
};
static_assert(std::size(kFields) == kSimResultFields,
              "a new row changes the wire format: bump kSimResultFields "
              "and kFrameVersion together");

}  // namespace

std::span<const ResultField> result_fields() { return kFields; }

const ResultField& result_field(std::string_view name) {
  for (const ResultField& f : kFields) {
    if (name == f.name) return f;
  }
  throw std::out_of_range("result_field: no field '" + std::string(name) +
                          "'");
}

energy::LsqEnergyConstants energy_constants(const SimConfig& cfg) {
  return cfg.paper_energy_constants
             ? energy::paper_constants()
             : energy::derived_constants(energy::tech_100nm());
}

void fold_energies(SimResult& r, const SimConfig& cfg) {
  const LsqEnergyConstants k = energy_constants(cfg);
  for (const ResultField& f : kFields) {
    if (f.kind == kEnergy) f.f64(r) = f.fold(r.ledgers, k, cfg.lsq);
  }
}

}  // namespace samie::sim
