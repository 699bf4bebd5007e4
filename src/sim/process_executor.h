// Process-isolated job execution: fork a child per job, jail it with
// rlimits, and read its SimResult back over a guarded pipe frame
// (src/sim/proc_frame.h).
//
// This is the containment layer under `samie_sim --isolate` /
// SweepOptions::isolate_procs. The in-process runner survives
// anything a job can *throw*; this one survives anything a job can *do
// to the process* — SIGSEGV, a glibc abort, an allocation bomb, a
// runaway loop that never reaches the cooperative cancel check. The
// child is fork() without exec: it inherits the parent's mappings (the
// trace view stays valid, and crash backtrace addresses symbolize in
// the parent), runs exactly the run_simulation the in-process runner
// runs, serializes the result through the same hexfloat text as the
// checkpoint journal, and _exit()s. That round trip is bit-exact, which
// is what makes isolated sweeps byte-identical to in-process sweeps.
//
// Child lifecycle:
//   1. install async-signal-safe crash handlers (SIGSEGV/SIGBUS/SIGILL/
//      SIGFPE/SIGABRT) writing a CrashWire record to a pre-opened pipe,
//      and a SIGTERM handler that flips the cooperative cancel token
//   2. apply ChildLimits (RLIMIT_AS / RLIMIT_CPU)
//   3. run the in-attempt injected fault, if any, then run_simulation
//   4. write one result or error frame, _exit(0)
//
// The parent polls children with waitpid(WNOHANG) and decodes each fate
// into an Event; policy (retry, quarantine, journaling) stays in the
// sweep scheduler. ProcessExecutor itself is single-threaded and
// must only be used from a single-threaded parent: fork() in a
// multi-threaded process clones only the calling thread, so a child
// forked while another thread holds (say) the malloc lock can deadlock.
// The sweep scheduler's child runner guarantees this: it drives
// deadlines from its own polling loop and starts no thread.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/sweep_scheduler.h"
#include "src/trace/trace_view.h"

namespace samie::sim {

/// Per-child resource jail; 0 = unlimited.
struct ChildLimits {
  std::uint64_t mem_mb = 0;  ///< RLIMIT_AS, MiB (whole address space)
  std::uint64_t cpu_s = 0;   ///< RLIMIT_CPU, seconds
};

class ProcessExecutor {
 public:
  /// How a child ended, decoded into the sweep's outcome terms.
  struct Event {
    std::uint64_t key = 0;
    SimResult result;  ///< valid when neither `error` nor `fate` is set
    /// The child's error frame rebuilt as the exception the in-process
    /// runner would have caught (SimulationAborted for a deadline
    /// unwind, TransientFault, std::runtime_error) — or, with `fate`
    /// set, the fate's description.
    std::exception_ptr error;
    /// An outcome only the process boundary decides: Crashed (a fatal
    /// signal we did not send), ResourceExceeded (SIGXCPU, a SIGKILL we
    /// did not send — the OOM killer — or allocation failure inside the
    /// RLIMIT_AS jail), TimedOut (our own SIGTERM/SIGKILL landed) or
    /// Failed (a torn or corrupt frame, a bad exit).
    std::optional<JobStatus> fate;
    int signal = 0;     ///< terminating signal, if any
    CrashRecord crash;  ///< Crashed only, best effort
  };

  ProcessExecutor() = default;
  ProcessExecutor(const ProcessExecutor&) = delete;
  ProcessExecutor& operator=(const ProcessExecutor&) = delete;
  /// SIGKILLs and reaps any children still alive (abnormal unwind only —
  /// the scheduler drains via poll()).
  ~ProcessExecutor();

  /// Forks one child for `key`. The trace view must stay valid in the
  /// parent until the child's Event is returned (the child reads the
  /// inherited mapping). `fault` may be nullptr; in-attempt fault kinds
  /// (delay and the isolation-only kinds) execute inside the child.
  /// Throws TransientFault when pipe(2) or fork(2) fail (EAGAIN/ENOMEM
  /// are load conditions — the scheduler retries with backoff).
  void spawn(std::uint64_t key, const SimConfig& cfg, trace::TraceView trace,
             const SweepFault* fault, const ChildLimits& limits);

  /// SIGKILLs every child whose SIGTERM grace has run out, then reaps
  /// at most one exited child (non-blocking) and decodes its fate.
  /// Returns nullopt when every child is still running.
  [[nodiscard]] std::optional<Event> poll();

  /// Deadline escalation: SIGTERM now (the child's handler flips its
  /// cancel token and it unwinds into an "aborted" error frame), then
  /// SIGKILL from poll() once `grace` has passed, for children that
  /// ignore it.
  void term(std::uint64_t key, std::chrono::milliseconds grace) noexcept;

 private:
  struct Child {
    std::uint64_t key = 0;
    pid_t pid = -1;
    int result_fd = -1;  ///< read end of the result-frame pipe
    int crash_fd = -1;   ///< read end of the crash-forensics pipe
    bool sent_term = false;
    bool sent_kill = false;
    std::chrono::steady_clock::time_point kill_at;  ///< once sent_term
  };

  [[nodiscard]] Event decode_fate(const Child& ch, int status);

  std::vector<Child> children_;
};

}  // namespace samie::sim
