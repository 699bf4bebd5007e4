// Table-driven SimResult comparison shared by the tests: walks
// result_fields() (src/sim/result_fields.h), so a new statistic is
// compared everywhere as soon as it has a table row.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>

#include "src/sim/result_fields.h"

namespace samie::sim {

/// Expects every field of `got` whose kind is in `kinds` (default: all)
/// to equal `want`'s exactly (doubles with ==, no tolerance).
inline void expect_fields_equal(const SimResult& got, const SimResult& want,
                                std::initializer_list<FieldKind> kinds =
                                    {FieldKind::kStatistic,
                                     FieldKind::kEngineCounter,
                                     FieldKind::kEnergy},
                                const std::string& what = "") {
  for (const ResultField& f : result_fields()) {
    if (std::find(kinds.begin(), kinds.end(), f.kind) == kinds.end()) continue;
    EXPECT_EQ(f.value(got), f.value(want)) << what << ": " << f.name;
  }
}

}  // namespace samie::sim
