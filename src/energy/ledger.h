// Runtime energy and active-area accounting.
//
// The simulator emits one ledger event per microarchitectural activity.
// Hooks are pure 64-bit counter increments — no floating point runs on
// the hot path. Variable-cost associative searches keep a sufficient
// statistic (search count, total operands compared), which makes the
// energy fold exact:
//
//   sum over N searches of (base + per * n_i)  ==  N*base + (sum n_i)*per
//
// Energy is computed once, at fold time, as `count * pj` from the
// constants in lsq_model.h; the fold is O(1) in the number of events.
// save()/load() move the raw counts to and from a flat array
// (LedgerCounts), which SimResult carries and the energy fold reads.
// docs/ENERGY_LEDGER.md documents the fold semantics and why the golden
// statistics were re-frozen when this scheme replaced per-event FP
// accumulation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/energy/lsq_model.h"

namespace samie::energy {

/// The `N` raw event counts of one ledger, indexed by the ledger's
/// count enum (which is also the save() order).
template <std::size_t N>
class CountLedger {
 public:
  static constexpr std::size_t kSavedCounts = N;
  explicit CountLedger(const LsqEnergyConstants& k) : k_(&k) {}

  /// Raw counts out to / in from a flat array (SimResult carries them;
  /// fold_energies re-folds energy from them).
  void save(std::uint64_t* out) const { std::copy_n(n_, N, out); }
  void load(const std::uint64_t* in) { std::copy_n(in, N, n_); }

 protected:
  /// Count `i` as a double, for the fold.
  [[nodiscard]] double d(std::size_t i) const {
    return static_cast<double>(n_[i]);
  }

  const LsqEnergyConstants* k_;
  std::uint64_t n_[N] = {};
};

/// Events of the conventional fully-associative LSQ (Table 4 rows).
class ConvLsqLedger : public CountLedger<4> {
 public:
  enum : std::size_t { kSearches, kAddrsCompared, kAddrRw, kDatumRw };
  using CountLedger::CountLedger;

  /// One associative search comparing against `compared` addresses.
  void on_addr_search(std::uint64_t compared) {
    ++n_[kSearches];
    n_[kAddrsCompared] += compared;
  }
  void on_addr_write() { ++n_[kAddrRw]; }
  void on_addr_read() { ++n_[kAddrRw]; }
  void on_datum_write() { ++n_[kDatumRw]; }
  void on_datum_read() { ++n_[kDatumRw]; }

  /// Fold the event counts into picojoules. Called once per run.
  [[nodiscard]] double energy_pj() const {
    return d(kSearches) * k_->conv.addr_cmp_base_pj +
           d(kAddrsCompared) * k_->conv.addr_cmp_per_addr_pj +
           d(kAddrRw) * k_->conv.addr_rw_pj +
           d(kDatumRw) * k_->conv.datum_rw_pj;
  }
  [[nodiscard]] std::uint64_t searches() const { return n_[kSearches]; }
  [[nodiscard]] std::uint64_t addresses_compared() const {
    return n_[kAddrsCompared];
  }
  [[nodiscard]] std::uint64_t addr_accesses() const { return n_[kAddrRw]; }
  [[nodiscard]] std::uint64_t datum_accesses() const { return n_[kDatumRw]; }
};

/// Events of the SAMIE-LSQ (Table 5 rows), with the Figure 8 breakdown.
class SamieLsqLedger : public CountLedger<20> {
 public:
  enum : std::size_t {
    kBusSends,
    kDAddrSearches, kDAddrsCompared, kDAgeSearches, kDAgeIdsCompared,
    kDAddrRw, kDAgeRw, kDDatumRw, kDTranslationRw, kDLineIdRw,
    kSAddrSearches, kSAddrsCompared, kSAgeSearches, kSAgeIdsCompared,
    kSAddrRw, kSAgeRw, kSDatumRw, kSTranslationRw, kSLineIdRw,
    kAddrbufAccesses,
  };
  using CountLedger::CountLedger;

  // --- bus -----------------------------------------------------------------
  void on_bus_send() { ++n_[kBusSends]; }

  // --- DistribLSQ ------------------------------------------------------------
  void on_distrib_addr_search(std::uint64_t compared) {
    ++n_[kDAddrSearches];
    n_[kDAddrsCompared] += compared;
  }
  void on_distrib_age_search(std::uint64_t ids_compared) {
    ++n_[kDAgeSearches];
    n_[kDAgeIdsCompared] += ids_compared;
  }
  void on_distrib_addr_write() { ++n_[kDAddrRw]; }
  void on_distrib_age_write() { ++n_[kDAgeRw]; }
  void on_distrib_datum_rw() { ++n_[kDDatumRw]; }
  void on_distrib_translation_rw() { ++n_[kDTranslationRw]; }
  void on_distrib_line_id_rw() { ++n_[kDLineIdRw]; }

  // --- SharedLSQ -------------------------------------------------------------
  void on_shared_addr_search(std::uint64_t compared) {
    ++n_[kSAddrSearches];
    n_[kSAddrsCompared] += compared;
  }
  void on_shared_age_search(std::uint64_t ids_compared) {
    ++n_[kSAgeSearches];
    n_[kSAgeIdsCompared] += ids_compared;
  }
  void on_shared_addr_write() { ++n_[kSAddrRw]; }
  void on_shared_age_write() { ++n_[kSAgeRw]; }
  void on_shared_datum_rw() { ++n_[kSDatumRw]; }
  void on_shared_translation_rw() { ++n_[kSTranslationRw]; }
  void on_shared_line_id_rw() { ++n_[kSLineIdRw]; }

  /// Fused Table-5 charge for one SAMIE placement search (try_place):
  /// one bus send, then in the target bank one address search over
  /// `bank_entries` valid entries plus one age search per valid entry
  /// (their in-use slot counts summing to `bank_ids`), and the mirrored
  /// SharedLSQ search over `shared_entries` entries / `shared_ids` ids.
  /// Identical counts to the equivalent sequence of per-event hooks —
  /// the sufficient statistics make the batching exact.
  void on_placement_search(std::uint64_t bank_entries, std::uint64_t bank_ids,
                           std::uint64_t shared_entries,
                           std::uint64_t shared_ids) {
    ++n_[kBusSends];
    ++n_[kDAddrSearches];
    n_[kDAddrsCompared] += bank_entries;
    n_[kDAgeSearches] += bank_entries;
    n_[kDAgeIdsCompared] += bank_ids;
    ++n_[kSAddrSearches];
    n_[kSAddrsCompared] += shared_entries;
    n_[kSAgeSearches] += shared_entries;
    n_[kSAgeIdsCompared] += shared_ids;
  }

  // --- AddrBuffer ------------------------------------------------------------
  /// One FIFO slot write or read (address word + age id).
  void on_addrbuf_write() { ++n_[kAddrbufAccesses]; }
  void on_addrbuf_read() { ++n_[kAddrbufAccesses]; }

  // --- fold ----------------------------------------------------------------
  [[nodiscard]] double energy_pj() const {
    return distrib_pj() + shared_pj() + addrbuf_pj() + bus_pj();
  }
  [[nodiscard]] double distrib_pj() const {
    return d(kDAddrSearches) * k_->samie.d_addr_cmp_base_pj +
           d(kDAddrsCompared) * k_->samie.d_addr_cmp_per_addr_pj +
           d(kDAgeSearches) * k_->samie.d_age_cmp_base_pj +
           d(kDAgeIdsCompared) * k_->samie.d_age_cmp_per_id_pj +
           d(kDAddrRw) * k_->samie.d_addr_rw_pj +
           d(kDAgeRw) * k_->samie.d_age_rw_pj +
           d(kDDatumRw) * k_->samie.d_datum_rw_pj +
           d(kDTranslationRw) * k_->samie.d_translation_rw_pj +
           d(kDLineIdRw) * k_->samie.d_line_id_rw_pj;
  }
  [[nodiscard]] double shared_pj() const {
    return d(kSAddrSearches) * k_->samie.s_addr_cmp_base_pj +
           d(kSAddrsCompared) * k_->samie.s_addr_cmp_per_addr_pj +
           d(kSAgeSearches) * k_->samie.s_age_cmp_base_pj +
           d(kSAgeIdsCompared) * k_->samie.s_age_cmp_per_id_pj +
           d(kSAddrRw) * k_->samie.s_addr_rw_pj +
           d(kSAgeRw) * k_->samie.s_age_rw_pj +
           d(kSDatumRw) * k_->samie.s_datum_rw_pj +
           d(kSTranslationRw) * k_->samie.s_translation_rw_pj +
           d(kSLineIdRw) * k_->samie.s_line_id_rw_pj;
  }
  [[nodiscard]] double addrbuf_pj() const {
    return d(kAddrbufAccesses) *
           (k_->samie.ab_datum_rw_pj + k_->samie.ab_age_rw_pj);
  }
  [[nodiscard]] double bus_pj() const {
    return d(kBusSends) * k_->samie.bus_send_addr_pj;
  }
  [[nodiscard]] std::uint64_t bus_sends() const { return n_[kBusSends]; }
  [[nodiscard]] std::uint64_t distrib_searches() const {
    return n_[kDAddrSearches];
  }
  [[nodiscard]] std::uint64_t shared_searches() const {
    return n_[kSAddrSearches];
  }
  [[nodiscard]] std::uint64_t addrbuf_accesses() const {
    return n_[kAddrbufAccesses];
  }
};

/// L1 data cache access energy (full vs way-known accesses, Figure 9).
class DcacheLedger : public CountLedger<2> {
 public:
  enum : std::size_t { kFull, kWayKnown };
  using CountLedger::CountLedger;

  void on_full_access() { ++n_[kFull]; }
  void on_way_known_access() { ++n_[kWayKnown]; }

  [[nodiscard]] double energy_pj() const {
    return d(kFull) * k_->mem.dcache_full_access_pj +
           d(kWayKnown) * k_->mem.dcache_way_known_pj;
  }
  [[nodiscard]] std::uint64_t full_accesses() const { return n_[kFull]; }
  [[nodiscard]] std::uint64_t way_known_accesses() const {
    return n_[kWayKnown];
  }
};

/// Data TLB access energy (Figure 10). Cached translations cost nothing in
/// the DTLB (the LSQ-side read is booked by SamieLsqLedger).
class DtlbLedger : public CountLedger<2> {
 public:
  enum : std::size_t { kAccesses, kCached };
  using CountLedger::CountLedger;

  void on_access() { ++n_[kAccesses]; }
  void on_cached_translation() { ++n_[kCached]; }

  [[nodiscard]] double energy_pj() const {
    return d(kAccesses) * k_->mem.dtlb_access_pj;
  }
  [[nodiscard]] std::uint64_t accesses() const { return n_[kAccesses]; }
  [[nodiscard]] std::uint64_t cached_translations() const {
    return n_[kCached];
  }
};

/// Integrates active area over cycles (Figures 11 and 12). Units are
/// um^2 * cycles; the figures' shapes are invariant to the unit choice.
/// Deliberately FP: the integrand varies per cycle with occupancy, so
/// there is no integer sufficient statistic; StatsCollector batches the
/// per-cycle adds run-length-wise instead.
class AreaIntegrator {
 public:
  void add_cycle(double distrib_um2, double shared_um2, double addrbuf_um2) {
    distrib_ += distrib_um2;
    shared_ += shared_um2;
    addrbuf_ += addrbuf_um2;
  }
  void add_cycle_conventional(double um2) { conventional_ += um2; }

  [[nodiscard]] double conventional() const { return conventional_; }
  [[nodiscard]] double distrib() const { return distrib_; }
  [[nodiscard]] double shared() const { return shared_; }
  [[nodiscard]] double addrbuf() const { return addrbuf_; }
  [[nodiscard]] double samie_total() const { return distrib_ + shared_ + addrbuf_; }

 private:
  double conventional_ = 0.0;
  double distrib_ = 0.0;
  double shared_ = 0.0;
  double addrbuf_ = 0.0;
};

}  // namespace samie::energy
