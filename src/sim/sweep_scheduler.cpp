#include "src/sim/sweep_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "src/core/core.h"
#include "src/sim/checkpoint.h"
#include "src/sim/process_executor.h"
#include "src/sim/trace_cache.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"

namespace samie::sim {

namespace {

using Clock = std::chrono::steady_clock;
constexpr Clock::time_point kNever = Clock::time_point::max();

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] std::string what_of(const std::exception_ptr& error) {
  if (!error) return "unknown error";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

// -- journal payloads --------------------------------------------------------
//
// Every payload (TAB-separated) opens with the same five fields —
//   index, program, tag, attempts, wall
// — followed by its kind's own fields:
//   R (completed)   serialized SimResult
//   Q (crashed)     signal, fault_addr (hex), backtrace frames joined by
//                   '\x1f' (the crash decoder scrubbed tabs/newlines)
//   D (damaged)     damage kind name, block (decimal; TraceCorruptError::
//                   kNoBlock when unattributable), byte offset

[[nodiscard]] std::string encode_head(std::size_t index, const Job& job,
                                      const JobOutcome& oc) {
  std::ostringstream os;
  os << index << '\t' << job.program << '\t' << job.tag << '\t' << oc.attempts
     << '\t' << hexfloat(oc.wall_seconds) << '\t';
  return os.str();
}

/// A decoded payload: the shared head plus the kind's remaining fields
/// (`rest` holds `n` TAB-terminated fields, then the unterminated tail).
struct DecodedHead {
  std::size_t index = 0;
  std::string program;
  std::string tag;
  std::uint32_t attempts = 0;
  double wall_seconds = 0.0;
  std::vector<std::string> rest;
};

[[nodiscard]] bool parse_uint(const std::string& s, int base,
                              std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s.c_str(), &end, base);
  return errno == 0 && end == s.c_str() + s.size();
}

/// Splits `payload` into the head and `n` more fields plus the tail;
/// false on a torn or malformed line.
[[nodiscard]] bool decode_head(const std::string& payload, std::size_t n,
                               DecodedHead& out) {
  std::vector<std::string> fields;
  std::size_t at = 0;
  while (fields.size() < 5 + n) {
    const std::size_t tab = payload.find('\t', at);
    if (tab == std::string::npos) return false;
    fields.push_back(payload.substr(at, tab - at));
    at = tab + 1;
  }
  std::uint64_t index = 0;
  std::uint64_t attempts = 0;
  if (!parse_uint(fields[0], 10, index) || !parse_uint(fields[3], 10, attempts)) {
    return false;
  }
  char* end = nullptr;
  out.wall_seconds = std::strtod(fields[4].c_str(), &end);
  if (end != fields[4].c_str() + fields[4].size()) return false;
  out.index = index;
  out.program = fields[1];
  out.tag = fields[2];
  out.attempts = static_cast<std::uint32_t>(attempts);
  out.rest.assign(fields.begin() + 5, fields.end());
  out.rest.push_back(payload.substr(at));
  return true;
}

/// Seals a TraceCorruptError into the outcome's damage fields.
void fill_damage(JobOutcome& oc, const trace::TraceCorruptError& e) {
  oc.status = JobStatus::kTraceDamaged;
  oc.failure = FailureClass::kDeterministic;
  oc.what = e.what();
  oc.damage = e.damage;
  oc.damage_block = e.block;
  oc.damage_offset = e.offset;
}

/// Arms a read-side I/O fault kind on the job's trace path; the attempt's
/// next open of that path consumes it.
void arm_io_fault(const Job& job, const SweepFault& f) {
  trace::IoFault io;
  io.param = f.param;
  io.kind = f.kind == SweepFault::Kind::kShortRead
                ? trace::IoFault::Kind::kShortRead
                : trace::IoFault::Kind::kBitFlipBlock;
  trace::set_io_fault(job.config.trace_path, io);
}

/// Journalable names must survive the TAB-separated record grammar.
void require_journalable(const std::vector<Job>& jobs) {
  for (const Job& job : jobs) {
    for (const std::string* s : {&job.program, &job.tag}) {
      if (s->find('\t') != std::string::npos ||
          s->find('\n') != std::string::npos) {
        throw std::invalid_argument(
            "job name/tag '" + *s + "' cannot be journaled (contains a "
            "tab or newline)");
      }
    }
  }
}

/// Fills the report's outcome counters from the per-job slots.
void tally(SweepReport& rep) {
  for (const SweepJobResult& jr : rep.jobs) {
    switch (jr.outcome.status) {
      case JobStatus::kCompleted:
        ++rep.completed;
        if (jr.outcome.from_checkpoint) ++rep.resumed;
        break;
      case JobStatus::kFailed: ++rep.failed; break;
      case JobStatus::kTimedOut: ++rep.timed_out; break;
      case JobStatus::kSkipped: ++rep.skipped; break;
      case JobStatus::kCrashed:
        ++rep.crashed;
        if (jr.outcome.from_checkpoint) ++rep.quarantined;
        break;
      case JobStatus::kResourceExceeded: ++rep.resource_exceeded; break;
      case JobStatus::kTraceDamaged:
        ++rep.trace_damaged;
        if (jr.outcome.from_checkpoint) ++rep.damage_sealed;
        break;
    }
  }
}

// -- attempt runners ---------------------------------------------------------

/// How one attempt ended, as a runner reports it to the state machine.
struct AttemptEnd {
  unsigned slot = 0;
  SimResult result;          ///< valid when neither `error` nor `fate` is set
  std::exception_ptr error;  ///< what ended the attempt, if it did not complete
  /// Child runner only: an outcome the process boundary itself decided
  /// (ProcessExecutor::Event::fate); `error` then carries its description.
  std::optional<JobStatus> fate;
  int signal = 0;     ///< signal that ended the child, if any
  CrashRecord crash;  ///< Crashed only
};

/// Executes attempts for the state machine, one per slot. Every method is
/// called from the state machine's (the calling) thread.
class AttemptRunner {
 public:
  AttemptRunner() = default;
  AttemptRunner(const AttemptRunner&) = delete;
  AttemptRunner& operator=(const AttemptRunner&) = delete;
  virtual ~AttemptRunner() = default;
  /// Starts job `index` in the free `slot`; `fault`, when set, is an
  /// in-attempt kind (delay, or an isolation-only kind) to perform inside
  /// the attempt. A throw is a parent-side failure that ends the attempt.
  virtual void start(unsigned slot, std::size_t index,
                     const SweepFault* fault) = 0;
  /// Waits until an attempt ends (its event) or `until` passes (nullopt).
  virtual std::optional<AttemptEnd> wait(Clock::time_point until) = 0;
  /// The attempt in `slot` overran its deadline.
  virtual void cancel(unsigned slot) = 0;
};

/// N worker threads run run_simulation under per-slot cooperative cancel
/// tokens (the core polls its token on stepped cycles, off the
/// fast-forward path, so statistics are bit-identical with or without
/// one). Workers acquire the trace themselves, so generation and SAMT
/// reads run in parallel, and post completion events back.
class ThreadRunner final : public AttemptRunner {
 public:
  ThreadRunner(unsigned workers, const std::vector<Job>& jobs,
               TraceCache& traces)
      : jobs_(jobs), traces_(traces), cancel_(workers) {
    pool_.reserve(workers);
    try {
      for (unsigned w = 0; w < workers; ++w) {
        pool_.emplace_back([this] { work(); });
      }
    } catch (...) {
      stop();  // joins the workers already started
      throw;
    }
  }
  ~ThreadRunner() override { stop(); }

  void start(unsigned slot, std::size_t index, const SweepFault* fault) override {
    cancel_[slot].store(false, std::memory_order_relaxed);
    {
      std::scoped_lock lock(mu_);
      todo_.push_back(Start{slot, index, fault});
    }
    todo_cv_.notify_one();
  }

  std::optional<AttemptEnd> wait(Clock::time_point until) override {
    std::unique_lock lock(mu_);
    const auto ready = [this] { return !done_.empty(); };
    if (until == kNever) {
      done_cv_.wait(lock, ready);
    } else if (!done_cv_.wait_until(lock, until, ready)) {
      return std::nullopt;
    }
    AttemptEnd end = std::move(done_.front());
    done_.pop_front();
    return end;
  }

  void cancel(unsigned slot) override {
    cancel_[slot].store(true, std::memory_order_relaxed);
  }

 private:
  struct Start {
    unsigned slot = 0;
    std::size_t index = 0;
    const SweepFault* fault = nullptr;
  };

  void stop() {
    // Normally every attempt has ended; on an infrastructure throw the
    // tokens cut the attempts still running short.
    for (std::atomic<bool>& c : cancel_) c.store(true, std::memory_order_relaxed);
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    todo_cv_.notify_all();
    for (std::thread& t : pool_) t.join();
  }

  void work() {
    for (;;) {
      Start s;
      {
        std::unique_lock lock(mu_);
        todo_cv_.wait(lock, [this] { return stop_ || !todo_.empty(); });
        if (stop_) return;
        s = todo_.front();
        todo_.pop_front();
      }
      AttemptEnd end;
      end.slot = s.slot;
      try {
        // The only in-attempt kind an in-process sweep accepts.
        if (s.fault != nullptr) std::this_thread::sleep_for(s.fault->delay);
        const Job& job = jobs_[s.index];
        const auto t = traces_.get(job);
        SimConfig cfg = job.config;
        cfg.core.should_abort = &cancel_[s.slot];
        end.result = run_simulation(cfg, t->view());
      } catch (...) {
        end.error = std::current_exception();
      }
      {
        std::scoped_lock lock(mu_);
        done_.push_back(std::move(end));
      }
      done_cv_.notify_one();
    }
  }

  const std::vector<Job>& jobs_;
  TraceCache& traces_;
  std::vector<std::atomic<bool>> cancel_;  ///< one token per slot
  std::mutex mu_;  ///< guards todo_, done_, stop_
  std::condition_variable todo_cv_;
  std::condition_variable done_cv_;
  std::deque<Start> todo_;
  std::deque<AttemptEnd> done_;
  bool stop_ = false;
  std::vector<std::thread> pool_;
};

/// Each attempt runs in a forked child under rlimit jails (src/sim/
/// process_executor.h). The parent acquires the trace — the child
/// inherits the copy, so I/O damage surfaces here without forking —
/// and holds it until the child is reaped. Deadlines escalate by signal:
/// SIGTERM (the child's handler flips its cancel token and it unwinds
/// with its outcome intact), then SIGKILL once `kill_grace` expires.
/// Starts no thread: fork() stays safe only in a single-threaded parent.
class ChildRunner final : public AttemptRunner {
 public:
  ChildRunner(unsigned procs, const std::vector<Job>& jobs, TraceCache& traces,
              const SweepOptions& opt)
      : jobs_(jobs), traces_(traces), opt_(opt), held_(procs) {}

  void start(unsigned slot, std::size_t index, const SweepFault* fault) override {
    const Job& job = jobs_[index];
    auto trace = traces_.get(job);
    exec_.spawn(slot, job.config, trace->view(), fault,
                ChildLimits{opt_.job_mem_mb, opt_.job_cpu_s});
    held_[slot] = std::move(trace);
  }

  std::optional<AttemptEnd> wait(Clock::time_point until) override {
    for (;;) {
      if (std::optional<ProcessExecutor::Event> ev = exec_.poll()) {
        const auto slot = static_cast<unsigned>(ev->key);
        held_[slot].reset();
        return AttemptEnd{slot, std::move(ev->result), ev->error, ev->fate,
                          ev->signal, std::move(ev->crash)};
      }
      const Clock::time_point now = Clock::now();
      if (now >= until) return std::nullopt;
      std::this_thread::sleep_for(
          std::min<Clock::duration>(std::chrono::milliseconds(2), until - now));
    }
  }

  void cancel(unsigned slot) override { exec_.term(slot, opt_.kill_grace); }

 private:
  const std::vector<Job>& jobs_;
  TraceCache& traces_;
  const SweepOptions& opt_;
  ProcessExecutor exec_;
  std::vector<std::shared_ptr<const trace::TraceSource>> held_;
};

// -- the job state machine ---------------------------------------------------

/// Owns every job's lifecycle, on the calling thread, whichever runner
/// executes the attempts: trace-affine admission, the due-time retry list
/// (no worker sleeps out a backoff), the pre-run fault hooks, deadline
/// expiry, attempt-end classification, drain-to-Skipped, and finalize —
/// wall time, trace release, report slot, journal line, failure count.
class SweepMachine {
 public:
  /// Queues every job not in `done`: one FIFO per trace key, in job
  /// order, with the keys in order of first appearance.
  SweepMachine(const std::vector<Job>& jobs, const std::vector<bool>& done,
               const SweepOptions& opt, SweepReport& rep, TraceCache& traces,
               std::optional<CheckpointWriter>& journal)
      : jobs_(jobs), opt_(opt), rep_(rep), traces_(traces), journal_(journal) {
    std::map<TraceCache::Key, std::size_t> key_ids;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (done[i]) continue;
      const auto [it, first] =
          key_ids.try_emplace(TraceCache::key_of(jobs[i]), queues_.size());
      if (first) queues_.emplace_back();
      queues_[it->second].push_back(i);
    }
  }

  /// Runs every job to an outcome through `runner`'s `slots` slots.
  void run(AttemptRunner& runner, unsigned slots) {
    runner_ = &runner;
    slots_.assign(slots, std::nullopt);
    for (unsigned s = slots; s-- > 0;) free_.push_back(s);
    for (;;) {
      admit();
      if (free_.size() == slots_.size() && retries_.empty() && !pending()) {
        return;
      }
      if (std::optional<AttemptEnd> end = runner.wait(next_wake())) {
        settle(*end);
      }
      expire_deadlines();
    }
  }

 private:
  struct JobState {
    std::size_t index = 0;
    JobOutcome oc;         ///< attempts so far, carried across retries
    Clock::time_point t0;  ///< first attempt start
    Clock::time_point deadline = kNever;  ///< running attempt's deadline
    Clock::time_point due;                ///< waiting retry's start time
  };

  /// Fills free slots: due retries first (a backed-off job re-enters
  /// ahead of fresh work), then fresh jobs by trace affinity.
  void admit() {
    while (!free_.empty()) {
      std::optional<JobState> js = take_next();
      if (!js) return;
      const unsigned slot = free_.back();
      free_.pop_back();
      start(slot, std::move(*js));
    }
  }

  [[nodiscard]] std::optional<JobState> take_next() {
    const Clock::time_point now = Clock::now();
    for (auto it = retries_.begin(); it != retries_.end(); ++it) {
      if (it->due > now) continue;
      JobState js = std::move(*it);
      retries_.erase(it);
      return js;
    }
    if (!pending()) return std::nullopt;
    // Drain: past the failure budget, every job not yet started reports
    // Skipped — an explicit outcome, never a zero-stat row.
    if (opt_.max_failures != 0 && failures_ >= opt_.max_failures) {
      while (pending()) {
        const std::size_t i = take_fresh();
        rep_.jobs[i].outcome.status = JobStatus::kSkipped;
        traces_.finished(jobs_[i]);
      }
      return std::nullopt;
    }
    JobState js;
    js.index = take_fresh();
    js.t0 = now;
    return js;
  }

  [[nodiscard]] bool pending() const {
    return !open_.empty() || next_key_ < queues_.size();
  }

  /// Trace-affine admission keeps a trace's consumers together: the
  /// earliest queued job whose trace is built and ready; else the first
  /// key nobody holds yet; else the earliest queued job (its attempt waits
  /// on the build latch). With all traces distinct this is job order.
  [[nodiscard]] std::size_t take_fresh() {
    const auto earliest = [this](bool need_ready) {
      std::size_t best = open_.size();
      for (std::size_t k = 0; k < open_.size(); ++k) {
        const std::size_t i = queues_[open_[k]].front();
        if ((best == open_.size() || i < queues_[open_[best]].front()) &&
            (!need_ready || traces_.ready(jobs_[i]))) {
          best = k;
        }
      }
      return best;
    };
    std::size_t k = earliest(true);
    if (k == open_.size() && next_key_ < queues_.size()) {
      open_.push_back(next_key_++);
    } else if (k == open_.size()) {
      k = earliest(false);
    }
    std::deque<std::size_t>& q = queues_[open_[k]];
    const std::size_t i = q.front();
    q.pop_front();
    if (q.empty()) open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(k));
    return i;
  }

  /// Starts the job's next attempt: the pre-run fault hook, then the
  /// runner. Injected throws and parent-side runner failures end the
  /// attempt right here, through the same classification as any other.
  void start(unsigned slot, JobState js) {
    const std::size_t i = js.index;
    const std::uint32_t attempt = ++js.oc.attempts;
    slots_[slot] = std::move(js);
    const SweepFault* in_attempt = nullptr;
    try {
      const SweepFault* f =
          opt_.faults != nullptr ? opt_.faults->find(i, attempt) : nullptr;
      if (f != nullptr) {
        switch (f->kind) {
          case SweepFault::Kind::kThrowTransient:
            throw TransientFault("injected transient fault (job " +
                                 std::to_string(i) + ", attempt " +
                                 std::to_string(attempt) + ")");
          case SweepFault::Kind::kThrowDeterministic:
            throw std::logic_error("injected deterministic fault (job " +
                                   std::to_string(i) + ", attempt " +
                                   std::to_string(attempt) + ")");
          case SweepFault::Kind::kSpuriousWake:
            wake_now_ = true;  // the next wait times out at once
            break;
          case SweepFault::Kind::kShortRead:
          case SweepFault::Kind::kBitFlipBlock:
            // The attempt's trace open consumes it and surfaces the
            // damage as TraceCorruptError.
            arm_io_fault(jobs_[i], *f);
            break;
          case SweepFault::Kind::kDelay:
          case SweepFault::Kind::kCrash:
          case SweepFault::Kind::kOom:
          case SweepFault::Kind::kSpin:
          case SweepFault::Kind::kTornFrame:
            in_attempt = f;
            break;
          case SweepFault::Kind::kEnospcOnImport:
          case SweepFault::Kind::kTornImport:
            break;  // unreachable: run_sweep rejects import-only kinds
        }
      }
      runner_->start(slot, i, in_attempt);
    } catch (...) {
      AttemptEnd end;
      end.slot = slot;
      end.error = std::current_exception();
      settle(end);
      return;
    }
    if (opt_.job_deadline.count() > 0) {
      slots_[slot]->deadline = Clock::now() + opt_.job_deadline;
    }
  }

  /// The earliest moment the loop must act without a runner event: a
  /// deadline, a due retry when a slot is free to take it, or — after an
  /// injected spurious wake — now.
  [[nodiscard]] Clock::time_point next_wake() {
    if (std::exchange(wake_now_, false)) return Clock::now();
    Clock::time_point t = kNever;
    for (const std::optional<JobState>& s : slots_) {
      if (s) t = std::min(t, s->deadline);
    }
    if (!free_.empty()) {
      for (const JobState& r : retries_) t = std::min(t, r.due);
    }
    return t;
  }

  void expire_deadlines() {
    const Clock::time_point now = Clock::now();
    for (unsigned slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot] && slots_[slot]->deadline <= now) {
        slots_[slot]->deadline = kNever;  // cancelled once
        runner_->cancel(slot);
      }
    }
  }

  /// Attempt-end classification: a cancelled attempt is a deadline
  /// expiry (only deadlines cancel, and the same job would spend the
  /// same wall clock again), trace damage is deterministic, a transient
  /// failure within the retry budget requeues after backoff, and
  /// anything else fails the job.
  void settle(AttemptEnd& end) {
    JobState js = std::move(*slots_[end.slot]);
    slots_[end.slot].reset();
    free_.push_back(end.slot);
    JobOutcome& oc = js.oc;
    oc.term_signal = end.signal;
    if (end.fate) {
      oc.status = *end.fate;
      oc.failure = oc.status == JobStatus::kTimedOut
                       ? FailureClass::kNone
                       : FailureClass::kDeterministic;
      oc.what = what_of(end.error);
      oc.crash = std::move(end.crash);
      finalize(js, end.error, nullptr);
      return;
    }
    if (!end.error) {
      oc.status = JobStatus::kCompleted;
      finalize(js, nullptr, &end.result);
      return;
    }
    try {
      std::rethrow_exception(end.error);
    } catch (const core::SimulationAborted& e) {
      oc.status = JobStatus::kTimedOut;
      oc.what = e.what();
      finalize(js, end.error, nullptr);
      return;
    } catch (const trace::TraceCorruptError& e) {
      fill_damage(oc, e);
      finalize(js, end.error, nullptr);
      return;
    } catch (...) {
    }
    const FailureClass cls = classify_failure(end.error);
    if (cls == FailureClass::kTransient &&
        oc.attempts < opt_.retry.max_attempts) {
      js.due = Clock::now() + opt_.retry.backoff_for(oc.attempts + 1);
      retries_.push_back(std::move(js));
      return;
    }
    oc.status = JobStatus::kFailed;
    oc.failure = cls;
    oc.what = what_of(end.error);
    finalize(js, end.error, nullptr);
  }

  /// Seals the job's report slot and journals it: 'R' for a completed
  /// job, 'Q' (quarantine) for a crashed one so a resume skips the
  /// known-poison job, 'D' for trace damage so a resume seals it.
  void finalize(JobState& js, const std::exception_ptr& error,
                const SimResult* result) {
    js.oc.wall_seconds = seconds_since(js.t0);
    const Job& job = jobs_[js.index];
    traces_.finished(job);
    SweepJobResult& out = rep_.jobs[js.index];
    out.outcome = std::move(js.oc);
    out.error = error;
    const JobOutcome& oc = out.outcome;
    if (oc.status == JobStatus::kCompleted) {
      out.result = *result;
      if (journal_) {
        journal_->append_record(encode_head(js.index, job, oc) +
                                serialize_sim_result(*result));
      }
      return;
    }
    ++failures_;
    if (!journal_) return;
    std::ostringstream os;
    os << encode_head(js.index, job, oc);
    if (oc.status == JobStatus::kCrashed) {
      os << oc.crash.signal << '\t' << std::hex << oc.crash.fault_addr
         << std::dec << '\t';
      for (std::size_t f = 0; f < oc.crash.frames.size(); ++f) {
        os << (f != 0 ? "\x1f" : "") << oc.crash.frames[f];
      }
      journal_->append_quarantine(os.str());
    } else if (oc.status == JobStatus::kTraceDamaged) {
      os << trace::trace_damage_name(oc.damage) << '\t' << oc.damage_block
         << '\t' << oc.damage_offset;
      journal_->append_damaged(os.str());
    }
  }

  const std::vector<Job>& jobs_;
  const SweepOptions& opt_;
  SweepReport& rep_;
  TraceCache& traces_;
  std::optional<CheckpointWriter>& journal_;
  AttemptRunner* runner_ = nullptr;
  std::vector<std::optional<JobState>> slots_;  ///< running attempts
  std::vector<unsigned> free_;                  ///< idle slots
  std::vector<JobState> retries_;               ///< waiting out a backoff
  std::vector<std::deque<std::size_t>> queues_;  ///< fresh jobs, per trace key
  std::vector<std::size_t> open_;  ///< admitted keys with jobs still queued
  std::size_t next_key_ = 0;       ///< keys from here on are unopened
  std::size_t failures_ = 0;
  bool wake_now_ = false;  ///< an injected spurious wake is pending
};

/// Loads a resume journal into the report; returns which jobs it sealed.
[[nodiscard]] std::vector<bool> load_journal(const std::vector<Job>& jobs,
                                             const std::string& path,
                                             std::uint64_t fingerprint,
                                             SweepReport& rep) {
  CheckpointContents c = load_checkpoint(path);
  if (c.njobs != jobs.size() || c.fingerprint != fingerprint) {
    throw CheckpointError(
        path +
        ": checkpoint belongs to a different sweep (job list or "
        "configuration changed) — delete it or fix the command line");
  }
  rep.checkpoint_lines_ignored = c.ignored_lines;
  std::vector<bool> done(jobs.size(), false);
  // Seals the decoded line's job from the journal; null (the line is
  // ignored) when it was torn, names a foreign job, or the job is
  // already sealed by an earlier line.
  auto claim = [&](bool decoded, const DecodedHead& d) -> JobOutcome* {
    if (!decoded || d.index >= jobs.size() ||
        d.program != jobs[d.index].program || d.tag != jobs[d.index].tag ||
        done[d.index]) {
      ++rep.checkpoint_lines_ignored;
      return nullptr;
    }
    done[d.index] = true;
    JobOutcome& oc = rep.jobs[d.index].outcome;
    oc.attempts = d.attempts;
    oc.wall_seconds = d.wall_seconds;
    oc.from_checkpoint = true;
    return &oc;
  };
  for (const std::string& payload : c.records) {
    DecodedHead d;
    SimResult result;
    const bool ok =
        decode_head(payload, 0, d) && parse_sim_result(d.rest[0], result);
    if (JobOutcome* oc = claim(ok, d)) {
      oc->status = JobStatus::kCompleted;
      rep.jobs[d.index].result = result;
    }
  }
  // Quarantine records: a previous run's child crashed on this job.
  // Deterministic by definition — re-running replays the crash — so the
  // job is sealed as Crashed instead of re-attempted, whichever runner
  // the resume uses.
  for (const std::string& payload : c.quarantined) {
    DecodedHead d;
    std::uint64_t sig = 0;
    CrashRecord crash;
    const bool ok = decode_head(payload, 2, d) &&
                    parse_uint(d.rest[0], 10, sig) && sig != 0 &&
                    parse_uint(d.rest[1], 16, crash.fault_addr);
    JobOutcome* oc = claim(ok, d);
    if (oc == nullptr) continue;
    crash.signal = static_cast<int>(sig);
    const std::string& frames = d.rest[2];
    for (std::size_t from = 0; from < frames.size();) {
      std::size_t sep = frames.find('\x1f', from);
      if (sep == std::string::npos) sep = frames.size();
      if (sep > from) crash.frames.push_back(frames.substr(from, sep - from));
      from = sep + 1;
    }
    oc->status = JobStatus::kCrashed;
    oc->failure = FailureClass::kDeterministic;
    oc->term_signal = crash.signal;
    oc->what = "child crashed with " + signal_name(crash.signal) +
               " (quarantined by a previous run)";
    oc->crash = std::move(crash);
  }
  // Trace-damage records: a previous run verified that this job's replay
  // range touches corrupt blocks. Deterministic — the file doesn't heal —
  // so the job seals as TraceDamaged, not re-run.
  for (const std::string& payload : c.damaged) {
    DecodedHead d;
    trace::TraceDamage damage = trace::TraceDamage::kNone;
    std::uint64_t block = 0;
    std::uint64_t offset = 0;
    bool ok = decode_head(payload, 2, d) && parse_uint(d.rest[1], 10, block) &&
              parse_uint(d.rest[2], 10, offset);
    for (const trace::TraceDamage k :
         {trace::TraceDamage::kTornTail, trace::TraceDamage::kInteriorCorrupt,
          trace::TraceDamage::kBadIndex}) {
      if (ok && d.rest[0] == trace::trace_damage_name(k)) damage = k;
    }
    JobOutcome* oc = claim(ok && damage != trace::TraceDamage::kNone, d);
    if (oc == nullptr) continue;
    oc->status = JobStatus::kTraceDamaged;
    oc->failure = FailureClass::kDeterministic;
    oc->damage = damage;
    oc->damage_block = block;
    oc->damage_offset = offset;
    oc->what = std::string("trace damage (") +
               trace::trace_damage_name(damage) +
               ") quarantined by a previous run";
  }
  return done;
}

}  // namespace

const char* job_status_name(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kTimedOut: return "timed-out";
    case JobStatus::kSkipped: return "skipped";
    case JobStatus::kCrashed: return "crashed";
    case JobStatus::kResourceExceeded: return "resource-exceeded";
    case JobStatus::kTraceDamaged: return "trace-damaged";
  }
  return "?";
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    case SIGXFSZ: return "SIGXFSZ";
    default: return "SIG" + std::to_string(sig);
  }
}

int sweep_exit_code(const SweepReport& report) noexcept {
  if (report.crashed != 0 || report.resource_exceeded != 0 ||
      report.trace_damaged != 0) {
    return 3;
  }
  return report.all_completed() ? 0 : 2;
}

const char* failure_class_name(FailureClass c) noexcept {
  switch (c) {
    case FailureClass::kNone: return "none";
    case FailureClass::kTransient: return "transient";
    case FailureClass::kDeterministic: return "deterministic";
  }
  return "?";
}

FailureClass classify_failure(const std::exception_ptr& error) {
  if (!error) return FailureClass::kNone;
  try {
    std::rethrow_exception(error);
  } catch (const TransientFault&) {
    return FailureClass::kTransient;
  } catch (const std::bad_alloc&) {
    return FailureClass::kTransient;
  } catch (const trace::TraceCorruptError&) {
    // Guard-verified damage behind an intact header: the bytes on disk
    // don't heal, so a retry replays the identical read. Must precede
    // the TraceFormatError arm (it's the base class).
    return FailureClass::kDeterministic;
  } catch (const trace::TraceFormatError&) {
    return FailureClass::kTransient;
  } catch (...) {
    return FailureClass::kDeterministic;
  }
}

std::uint64_t sweep_fingerprint(const std::vector<Job>& jobs) {
  // Hash every knob that changes what a job computes. Nondeterminism
  // knobs (threads, deadlines, retry policy) are deliberately excluded:
  // they alter how the sweep runs, not what each job's results are.
  std::ostringstream os;
  for (const Job& job : jobs) {
    const SimConfig& c = job.config;
    os << job.program << '\x1f' << job.tag << '\x1f'
       << lsq_choice_name(c.lsq) << '\x1f' << c.instructions << '\x1f'
       << c.seed << '\x1f' << c.trace_path << '\x1f'
       << c.trace_measure_begin << '\x1f' << c.trace_measure_end << '\x1f'
       << c.trace_warmup << '\x1f'
       << c.paper_energy_constants << '\x1f'
       << c.core.exploit_known_line_latency << '\x1f'
       << c.conventional.entries << '\x1f' << c.samie.banks << '\x1f'
       << c.samie.entries_per_bank << '\x1f' << c.samie.slots_per_entry
       << '\x1f' << c.samie.shared_entries << '\x1f'
       << c.samie.addr_buffer_slots << '\x1f' << c.samie.unbounded_shared
       << '\x1f' << c.arb.banks << '\x1f' << c.arb.rows_per_bank << '\x1f'
       << c.arb.max_inflight << '\x1e';
  }
  const std::string s = os.str();
  return trace::fnv1a_64(s.data(), s.size());
}

SweepReport run_sweep(const std::vector<Job>& jobs, const SweepOptions& opt) {
  if (opt.faults != nullptr) {
    for (const SweepFault& f : opt.faults->faults) {
      if (SweepFault::needs_isolation(f.kind) && opt.isolate_procs == 0) {
        throw std::invalid_argument(
            "fault kind for job " + std::to_string(f.job) +
            " requires process isolation (isolate_procs) — it takes the "
            "whole process down");
      }
      if (f.kind == SweepFault::Kind::kOom && opt.job_mem_mb == 0) {
        throw std::invalid_argument(
            "an oom fault requires a job_mem_mb jail (without RLIMIT_AS the "
            "bomb runs into host memory)");
      }
      if (SweepFault::import_only(f.kind)) {
        throw std::invalid_argument(
            "fault kind for job " + std::to_string(f.job) +
            " is import-only (enospc-on-import / torn-import) — a sweep "
            "replays traces, it never imports one; arm it on samie_sim "
            "--import-trace instead");
      }
      if (SweepFault::is_io_fault(f.kind) && f.job < jobs.size() &&
          jobs[f.job].config.trace_path.empty()) {
        throw std::invalid_argument(
            "I/O fault for job " + std::to_string(f.job) +
            " targets a generated workload — there is no trace file to "
            "fault");
      }
    }
  }

  SweepReport rep;
  rep.jobs.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) rep.jobs[i].job = jobs[i];

  // -- checkpoint: load finished jobs, open the journal --------------------
  std::vector<bool> done(jobs.size(), false);
  std::optional<CheckpointWriter> journal;
  if (!opt.checkpoint_path.empty()) {
    require_journalable(jobs);
    const std::uint64_t fingerprint = sweep_fingerprint(jobs);
    if (opt.resume && std::filesystem::exists(opt.checkpoint_path)) {
      done = load_journal(jobs, opt.checkpoint_path, fingerprint, rep);
      journal = CheckpointWriter::append_to(opt.checkpoint_path);
    } else {
      journal = CheckpointWriter::create(opt.checkpoint_path, jobs.size(),
                                         fingerprint);
    }
  }

  const auto runnable = static_cast<unsigned>(std::max<std::ptrdiff_t>(
      1, std::count(done.begin(), done.end(), false)));

  TraceCache traces(jobs, done);
  SweepMachine machine(jobs, done, opt, rep, traces, journal);
  if (opt.isolate_procs != 0) {
    ChildRunner runner(opt.isolate_procs, jobs, traces, opt);
    machine.run(runner, opt.isolate_procs);
  } else {
    const unsigned threads = std::min(
        runnable, opt.threads != 0 ? opt.threads : bench_threads());
    ThreadRunner runner(threads, jobs, traces);
    machine.run(runner, threads);
  }
  rep.trace_resident_high_water = traces.resident_high_water();
  tally(rep);
  return rep;
}

void print_failure_report(std::ostream& os, const SweepReport& report) {
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const SweepJobResult& jr = report.jobs[i];
    if (jr.completed()) continue;
    os << "sweep: job=" << i << " program=" << jr.job.program
       << " tag=" << jr.job.tag
       << " outcome=" << job_status_name(jr.outcome.status);
    if (jr.outcome.failure != FailureClass::kNone) {
      os << " class=" << failure_class_name(jr.outcome.failure);
    }
    if (jr.outcome.term_signal != 0) {
      os << " signal=" << signal_name(jr.outcome.term_signal);
    }
    if (jr.outcome.status == JobStatus::kTraceDamaged) {
      os << " damage=" << trace::trace_damage_name(jr.outcome.damage);
      if (jr.outcome.damage_block != trace::TraceCorruptError::kNoBlock) {
        os << " block=" << jr.outcome.damage_block;
      }
      os << " offset=" << jr.outcome.damage_offset;
    }
    os << " attempts=" << jr.outcome.attempts
       << " wall=" << jr.outcome.wall_seconds;
    if (!jr.outcome.what.empty()) os << " error=" << jr.outcome.what;
    // Last field: frames contain spaces, so nothing may follow it.
    if (jr.outcome.crash.present()) {
      const CrashRecord& c = jr.outcome.crash;
      char addr[24];
      std::snprintf(addr, sizeof addr, "0x%" PRIx64, c.fault_addr);
      os << " crash_record=signal:" << signal_name(c.signal)
         << ";addr:" << addr << ";frames:";
      for (std::size_t f = 0; f < c.frames.size(); ++f) {
        if (f != 0) os << '|';
        os << c.frames[f];
      }
    }
    os << "\n";
  }
  os << "sweep: " << report.completed << "/" << report.jobs.size()
     << " completed, " << report.failed << " failed, " << report.timed_out
     << " timed-out, " << report.skipped << " skipped";
  if (report.crashed != 0) os << ", " << report.crashed << " crashed";
  if (report.resource_exceeded != 0) {
    os << ", " << report.resource_exceeded << " resource-exceeded";
  }
  if (report.trace_damaged != 0) {
    os << ", " << report.trace_damaged << " trace-damaged";
  }
  if (report.resumed != 0) {
    os << " (" << report.resumed << " resumed from checkpoint)";
  }
  if (report.quarantined != 0) {
    os << " (" << report.quarantined << " quarantined)";
  }
  if (report.damage_sealed != 0) {
    os << " (" << report.damage_sealed << " damage-sealed)";
  }
  if (report.checkpoint_lines_ignored != 0) {
    os << " [" << report.checkpoint_lines_ignored
       << " torn checkpoint line(s) ignored]";
  }
  os << "\n";
}

}  // namespace samie::sim
