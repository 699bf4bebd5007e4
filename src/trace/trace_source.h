// TraceSource: one owner type for trace storage of any provenance.
//
// The simulator, tools and benches all consume TraceView; a TraceSource
// pairs such a view with the owned in-RAM Trace that keeps it alive,
// whether generated, imported or read from a SAMT file. Sweep
// infrastructure holds `shared_ptr<const TraceSource>` so N workers
// replaying one program share a single copy (src/sim/trace_cache.h).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "src/trace/trace_io.h"
#include "src/trace/trace_view.h"
#include "src/trace/workload.h"

namespace samie::trace {

class TraceSource {
 public:
  /// Generates `n` instructions of the given profile in RAM.
  [[nodiscard]] static TraceSource generate(const WorkloadProfile& profile,
                                            std::uint64_t seed,
                                            std::uint64_t n);
  /// Takes ownership of an existing trace.
  [[nodiscard]] static TraceSource from_trace(Trace t);
  /// Reads a whole SAMT file (v1 or v2) through read_samt(), which
  /// verifies everything it reads. Throws TraceFormatError on malformed
  /// files and TraceCorruptError on damaged ones.
  [[nodiscard]] static TraceSource open_samt(const std::string& path);
  /// Imports a plain-text trace (grammar: docs/TRACE_FORMAT.md).
  [[nodiscard]] static TraceSource import_text(const std::string& path);

  [[nodiscard]] TraceView view() const noexcept { return trace_; }
  [[nodiscard]] std::size_t size() const noexcept { return trace_.size(); }
  [[nodiscard]] const std::string& name() const noexcept {
    return trace_.name;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return trace_.seed; }

 private:
  explicit TraceSource(Trace t) : trace_(std::move(t)) {}

  Trace trace_;
};

}  // namespace samie::trace
