#include "src/trace/trace_source.h"

#include <utility>

namespace samie::trace {

TraceSource TraceSource::generate(const WorkloadProfile& profile,
                                  std::uint64_t seed, std::uint64_t n) {
  WorkloadGenerator gen(profile, seed);
  return from_trace(gen.generate(n));
}

TraceSource TraceSource::from_trace(Trace t) { return TraceSource(std::move(t)); }

TraceSource TraceSource::open_samt(const std::string& path,
                                   std::uint64_t begin, std::uint64_t end) {
  return from_trace(read_samt(path, begin, end));
}

TraceSource TraceSource::import_text(const std::string& path) {
  return from_trace(import_text_trace(path));
}

}  // namespace samie::trace
