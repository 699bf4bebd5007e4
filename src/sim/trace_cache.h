// Thread-safe cache of trace sources with a once-per-key build latch
// and per-consumer release discipline.
//
// Generated workloads are keyed by (program, length, seed); recorded
// SAMT files by (path, opened record range) — trace_open_range(), so
// shard jobs over the same file get distinct keys per range and each
// materializes only its own blocks. The first worker to request a key
// builds it *outside* the cache lock (distinct keys materialize
// concurrently) while later requesters wait on the latch instead of
// generating or reading the same multi-MB workload a second time. Every
// worker thread shares the one owned copy, and forked children inherit
// it. A failed build releases the latch so a retry attempt rebuilds
// rather than being poisoned forever.
//
// Residency: the constructor registers every job that will actually run
// (resume-skipped jobs excluded), and finished() counts them back down.
// When a key's last consumer finishes, the cache drops its own
// shared_ptr — so the trace's buffer frees the moment the last
// worker/child over it lets go of its reference. Release alone bounds
// nothing when a trace's consumers are spread across the job list (a
// config-major sweep runs every program under one configuration before
// the next); the sweep's state machine therefore admits jobs by trace
// affinity through key_of() and ready(): after due retries, a job whose
// trace is already built goes first, then one that opens a trace nobody
// holds, else the earliest job in job order (which waits on the build
// latch). Together they keep a sweep's resident sources at about one per
// worker, plus one while a build overlaps, rather than every trace the
// sweep touches; resident_high_water() is the regression probe for
// exactly that.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "src/sim/experiment.h"
#include "src/trace/trace_source.h"

namespace samie::sim {

class TraceCache {
 public:
  /// Registers the jobs that will actually run (resume-skipped jobs are
  /// excluded) so finished() can release the source the moment a
  /// trace's last consumer completes.
  TraceCache(const std::vector<Job>& jobs, const std::vector<bool>& resumed);

  /// Returns the (built-once) source for the job's trace. The returned
  /// shared_ptr keeps the storage alive even after the cache releases
  /// its own reference.
  std::shared_ptr<const trace::TraceSource> get(const Job& job);

  /// A job is done with its trace (success, failure or skip) — called
  /// exactly once per job. When it was the last consumer, the cache
  /// drops its reference, so the source is destroyed as soon as the
  /// caller's own shared_ptr goes.
  void finished(const Job& job);

  /// The job's trace is built and resident: a consumer admitted now
  /// starts without waiting on a build latch. O(log keys).
  [[nodiscard]] bool ready(const Job& job) const;

  // -- residency probes (regression tests; all O(log keys)) ------------------
  /// Sources the cache currently holds (built or mid-build).
  [[nodiscard]] std::size_t resident_sources() const;
  /// High-water mark of resident_sources() over the cache's lifetime.
  [[nodiscard]] std::size_t resident_high_water() const;
  /// Consumers still registered against this job's trace.
  [[nodiscard]] std::size_t pending_consumers(const Job& job) const;

  /// One trace per key; jobs with equal keys share one build. The sweep's
  /// admission groups jobs by this same key.
  using Key = std::tuple<std::string, std::uint64_t, std::uint64_t>;
  [[nodiscard]] static Key key_of(const Job& job);

 private:
  struct Slot {
    std::shared_ptr<const trace::TraceSource> src;
    bool building = false;
    bool ready = false;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Key, Slot> slots_;
  std::map<Key, std::size_t> pending_;
  std::size_t high_water_ = 0;
};

}  // namespace samie::sim
