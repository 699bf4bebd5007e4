#include "src/trace/trace_source.h"

#include <stdexcept>
#include <utility>

#include "src/common/sparse_memory.h"

namespace samie::trace {

TraceSource TraceSource::generate(const WorkloadProfile& profile,
                                  std::uint64_t seed, std::uint64_t n) {
  WorkloadGenerator gen(profile, seed);
  return from_trace(gen.generate(n));
}

TraceSource TraceSource::from_trace(Trace t) { return TraceSource(std::move(t)); }

TraceSource TraceSource::open_samt(const std::string& path) {
  Trace t = read_samt(path);
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    const MicroOp& op = t.ops[i];
    if (is_mem(op.op) && !mem_access_ok(op.mem_addr, op.mem_size)) {
      throw std::invalid_argument(
          path + ": record " + std::to_string(i) + ": " +
          bad_access_message(op.mem_addr, op.mem_size));
    }
  }
  return from_trace(std::move(t));
}

TraceSource TraceSource::import_text(const std::string& path) {
  return from_trace(import_text_trace(path));
}

}  // namespace samie::trace
