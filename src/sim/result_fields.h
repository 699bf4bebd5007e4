// The result-field table: one row per SimResult statistic, in journal
// token order. The journal and isolate frame (checkpoint.cpp), the
// energy fold, the samie_sim CSV and the perf_report JSON loop over it
// instead of listing fields by hand: the named-statistic registry idiom
// of esesc's GStats.
//
// Adding a statistic:
//   1. Add the member and one row (result_fields.cpp) with its kind;
//      journal, frame and the table-driven test comparisons pick it up.
//   2. Add a CSV column (kCsvColumns in tools/samie_sim.cpp) only if it
//      belongs in the CSV; that changes the goldens, so regenerate them
//      with tools/regen_goldens.sh and review the diff.
//   3. A new row changes the string SimResultWire.SerializedStringIsPinned
//      pins and the token count: bump kSimResultFields (checkpoint.h) and
//      kFrameVersion (proc_frame.h) together, so older journals and
//      frames parse as torn instead of loading shifted fields.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <variant>

#include "src/energy/lsq_model.h"
#include "src/sim/sim_config.h"
#include "src/sim/simulator.h"

namespace samie::sim {

/// How a statistic is produced.
enum class FieldKind : std::uint8_t {
  kStatistic,      ///< simulated: counters, ratios, means, area, ledger counts
  kEngineCounter,  ///< engine metric, not a simulation statistic
  kEnergy,         ///< nJ, folded from the ledger counts
};

struct ResultField {
  using Ref = std::variant<std::uint64_t*, double*>;
  using Value = std::variant<std::uint64_t, double>;

  const char* name;  ///< member name; ledger rows "<ledger>.<count>"
  FieldKind kind;
  Ref (*at)(SimResult& r);
  /// kEnergy rows only: the field's value folded from raw ledger counts
  /// (0 for LSQ kinds that do not feed the ledger behind it).
  double (*fold)(const LedgerCounts& c, const energy::LsqEnergyConstants& k,
                 LsqChoice lsq) = nullptr;

  [[nodiscard]] Value value(const SimResult& r) const {
    return std::visit([](auto* p) -> Value { return *p; },
                      at(const_cast<SimResult&>(r)));
  }
  [[nodiscard]] double& f64(SimResult& r) const {
    return *std::get<double*>(at(r));
  }
};

/// Every SimResult statistic, in journal token order.
[[nodiscard]] std::span<const ResultField> result_fields();

/// The row named `name`; throws std::out_of_range for an unknown name.
[[nodiscard]] const ResultField& result_field(std::string_view name);

/// An output column over one table row: `label` is the CSV header or
/// JSON key, when it differs from the row name.
struct ResultColumn {
  const char* field;
  const char* label = nullptr;
  [[nodiscard]] const char* name() const { return label ? label : field; }
};

/// The energy constants `cfg` selects (paper or derived).
[[nodiscard]] energy::LsqEnergyConstants energy_constants(const SimConfig& cfg);

/// Folds every kEnergy field of `r` from r.ledgers through `cfg`'s
/// constants, so equal counts give bit-identical energies.
void fold_energies(SimResult& r, const SimConfig& cfg);

}  // namespace samie::sim
