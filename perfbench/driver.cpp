// perfbench_driver: the C++ half of the repository benchmark
// (perfbench/README.md). perfbench/run.py spawns it once per step, so
// every measured repetition is a fresh process whose peak RSS is its own:
//
//   perfbench_driver setup    --workload W --seed S --dir D
//   perfbench_driver run      --workload W --seed S --dir D
//   perfbench_driver trace    --workload W --seed S --dir D --seconds T
//   perfbench_driver accuracy --seeds A,B --insts N
//
// Each step prints one JSON object on its last stdout line. The workload
// is built from (W, S) alone; the simulator library only ever receives
// the resulting jobs and traces, through its public entry points
// (run_sweep, TraceSource, write_samt_v2, run_simulation,
// LoadStoreQueue, MemoryHierarchy, HybridPredictor).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "src/branch/predictor.h"
#include "src/lsq/conventional_lsq.h"
#include "src/lsq/samie_lsq.h"
#include "src/mem/hierarchy.h"
#include "src/sim/sweep_scheduler.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"

namespace {

using namespace samie;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// -------------------------------------------------------------- sizes --
// Fixed per workload; changing any of them starts a new series.
constexpr std::uint64_t kPaperInsts = 250'000;
constexpr std::uint64_t kReplayInsts = 1'000'000;
constexpr std::uint64_t kDesignInsts = 20'000;
/// Per-trace cap for the traced layer probes (run_simulation, LSQ,
/// memory and branch replays): bounds a traced pass on long traces.
constexpr std::uint64_t kProbeInsts = 200'000;
/// Jobs run twice (isolated, in-process) by the isolation probe, and
/// the instruction cap applied to them.
constexpr std::size_t kIsolateProbeJobs = 8;
constexpr std::uint64_t kIsolateProbeInsts = 100'000;

const std::vector<std::string> kReplayPrograms = {"ammp", "mcf", "gcc", "swim"};

[[noreturn]] void die(const std::string& what) {
  std::cerr << "perfbench_driver: " << what << "\n";
  std::exit(2);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
      .count();
}

unsigned host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// ---------------------------------------------------------------- JSON --
// A flat writer: enough for the driver's result objects.
class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    out_ << v;
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    out_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << (c == '\n' ? ' ' : c);
    }
    out_ << '"';
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  [[nodiscard]] std::string text() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// ----------------------------------------------------------- workloads --
struct Workload {
  std::vector<sim::Job> jobs;
  sim::SweepOptions options;
  unsigned workers = 1;
};

sim::Job make_job(const std::string& program, sim::LsqChoice lsq,
                  std::uint64_t insts, std::uint64_t seed, const std::string& tag) {
  sim::Job job;
  job.program = program;
  job.config = sim::paper_config(lsq);
  job.config.instructions = insts;
  job.config.seed = seed;
  job.tag = tag;
  return job;
}

std::string replay_path(const std::string& dir, const std::string& program) {
  return (fs::path(dir) / (program + ".samt")).string();
}

/// The SAMIE geometries of design_sweep_isolated (Figures 1/3/4):
/// DistribLSQ shapes at the paper's 128 slots-per-bank budget, slot
/// counts and SharedLSQ sizes around the Table 3 default (64x2, 8, 8).
struct Geometry {
  std::uint32_t banks, entries, slots, shared;
};
const std::vector<Geometry> kDesignGrid = {
    {128, 1, 8, 8}, {64, 2, 8, 8}, {32, 4, 8, 8},
    {64, 2, 4, 8},  {64, 2, 8, 4}, {64, 2, 8, 16},
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& dir) {
  Workload w;
  const auto& programs = trace::spec2000_names();
  if (name == "paper_suite") {
    for (sim::LsqChoice lsq : {sim::LsqChoice::kConventional, sim::LsqChoice::kSamie}) {
      for (const auto& p : programs) {
        w.jobs.push_back(make_job(p, lsq, kPaperInsts, seed, sim::lsq_choice_name(lsq)));
      }
    }
    w.workers = host_threads();
    w.options.threads = w.workers;
  } else if (name == "samie_replay_1t") {
    for (const auto& p : kReplayPrograms) {
      sim::Job job = make_job(p, sim::LsqChoice::kSamie, kReplayInsts, seed, "samie");
      job.config.trace_path = replay_path(dir, p);
      w.jobs.push_back(job);
    }
    w.workers = 1;
    w.options.threads = 1;
  } else if (name == "design_sweep_isolated") {
    for (const Geometry& g : kDesignGrid) {
      const std::string tag = std::to_string(g.banks) + "x" + std::to_string(g.entries) +
                              "s" + std::to_string(g.slots) + "q" +
                              std::to_string(g.shared);
      for (const auto& p : programs) {
        sim::Job job = make_job(p, sim::LsqChoice::kSamie, kDesignInsts, seed, tag);
        job.config.samie.banks = g.banks;
        job.config.samie.entries_per_bank = g.entries;
        job.config.samie.slots_per_entry = g.slots;
        job.config.samie.shared_entries = g.shared;
        w.jobs.push_back(job);
      }
    }
    w.workers = host_threads();
    w.options.isolate_procs = w.workers;
    w.options.checkpoint_path = (fs::path(dir) / "journal.ckpt").string();
  } else {
    die("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------------- CSV and gate --
/// The CSV samie_sim --csv prints: header plus one row per job.
std::string csv_text(const std::vector<sim::SweepJobResult>& jobs) {
  std::ostringstream os;
  os << "program,lsq,instructions,cycles,ipc,mispredict_squashes,"
        "deadlock_flushes,forwarded_loads,lsq_energy_nj,"
        "lsq_distrib_nj,lsq_shared_nj,lsq_addrbuf_nj,lsq_bus_nj,"
        "dcache_energy_nj,dtlb_energy_nj,dcache_way_known,"
        "dcache_full,dtlb_cached,dtlb_accesses,shared_occ_mean,"
        "buffer_busy_frac,area_total,value_mismatches\n";
  for (const auto& r : jobs) {
    if (!r.completed()) continue;
    const auto& s = r.result;
    os << r.job.program << ',' << r.job.tag << ',' << s.core.committed << ','
       << s.core.cycles << ',' << s.core.ipc << ',' << s.core.mispredict_squashes << ','
       << s.core.deadlock_flushes << ',' << s.core.forwarded_loads << ','
       << s.lsq_energy_nj << ',' << s.lsq_distrib_nj << ',' << s.lsq_shared_nj << ','
       << s.lsq_addrbuf_nj << ',' << s.lsq_bus_nj << ',' << s.dcache_energy_nj << ','
       << s.dtlb_energy_nj << ',' << s.core.dcache_way_known << ','
       << s.core.dcache_full << ',' << s.core.dtlb_cached << ','
       << s.core.dtlb_accesses << ',' << s.shared_occupancy_mean << ','
       << s.buffer_nonempty_frac << ',' << s.area_total << ','
       << s.core.value_mismatches << '\n';
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The correctness gate: jobs that did not complete plus completed rows
/// with a memory-ordering mismatch or a short commit count.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rows = 0;
  std::uint64_t committed = 0;
};

Gate check(const sim::SweepReport& report) {
  Gate g;
  g.attempted = report.jobs.size();
  for (const auto& r : report.jobs) {
    if (!r.completed()) {
      ++g.failed;
      continue;
    }
    ++g.rows;
    const auto& c = r.result.core;
    g.committed += c.committed;
    if (c.value_mismatches != 0 || c.committed < r.job.config.instructions) ++g.failed;
  }
  return g;
}

// ---------------------------------------------------------- clock probe --
/// One serial chain of 2^22 xorshift steps: dependent single-cycle shifts
/// and xors, no memory, no code shared with the library. Its time follows
/// the clock the host gives this CPU, which on a shared host drops for
/// minutes at a time when the neighbours are busy. It is timed on every
/// worker just before and just after each measured repetition, and run.py
/// scales sim_minst_per_s by it; a change to the simulator cannot move it.
volatile std::uint64_t g_probe_sink = 0;

double clock_probe_pass_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < (1 << 22); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_probe_sink = x;  // keeps the loop observable
  return seconds_since(t0) * 1e3;
}

constexpr int kProbePasses = 5;

/// `threads` copies at once, one per worker, so every CPU the workload
/// uses is measured at the clock it gets under the workload's load.
/// Returns the mean over the copies of each copy's median pass, in ms.
double clock_probe_ms(unsigned threads) {
  std::vector<double> medians(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&medians, t] {
      std::array<double, kProbePasses> passes{};
      for (double& p : passes) p = clock_probe_pass_ms();
      std::sort(passes.begin(), passes.end());
      medians[t] = passes[passes.size() / 2];
    });
  }
  for (auto& th : pool) th.join();
  double sum = 0;
  for (double m : medians) sum += m;
  return sum / threads;
}

std::uint64_t maxrss_kb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

// ----------------------------------------------------------- the steps --
struct WorkloadRun {
  sim::SweepReport report;
  double wall_s = 0.0;  ///< run_sweep + CSV write
  std::string csv;
};

WorkloadRun run_workload(const Workload& w, const std::string& dir) {
  if (!w.options.checkpoint_path.empty()) fs::remove(w.options.checkpoint_path);
  WorkloadRun out;
  const auto t0 = Clock::now();
  out.report = sim::run_sweep(w.jobs, w.options);
  out.csv = csv_text(out.report.jobs);
  std::ofstream(fs::path(dir) / "out.csv") << out.csv;
  out.wall_s = seconds_since(t0);
  return out;
}

int cmd_setup(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  fs::create_directories(dir);
  const Workload w = make_workload(workload, seed, dir);
  std::uint64_t recorded = 0;
  if (workload == "samie_replay_1t") {
    for (const auto& p : kReplayPrograms) {
      const auto src = trace::TraceSource::generate(trace::spec2000_profile(p), seed,
                                                    kReplayInsts);
      trace::write_samt_v2(replay_path(dir, p), src.view(), p, seed);
      recorded += src.size();
    }
  }
  Json j;
  j.open('{').key("jobs").num(static_cast<std::uint64_t>(w.jobs.size()))
      .key("recorded_ops").num(recorded).close('}');
  std::cout << j.text() << "\n";
  return 0;
}

int cmd_run(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  const Workload w = make_workload(workload, seed, dir);
  const double probe_before = clock_probe_ms(w.workers);
  const WorkloadRun r = run_workload(w, dir);
  const double probe_after = clock_probe_ms(w.workers);
  const Gate g = check(r.report);
  Json j;
  j.open('{').key("attempted").num(g.attempted).key("failed").num(g.failed)
      .key("rows").num(g.rows).key("committed").num(g.committed)
      .key("wall_s").num(r.wall_s).key("digest").str(hex64(fnv1a(r.csv)))
      .key("probe_before_ms").num(probe_before).key("probe_after_ms").num(probe_after)
      .key("rss_self_kb").num(maxrss_kb(RUSAGE_SELF))
      .key("rss_largest_child_kb").num(maxrss_kb(RUSAGE_CHILDREN)).close('}');
  std::cout << j.text() << "\n";
  return 0;
}

// ------------------------------------------------------------- accuracy --
/// The headline figures of bench_fig05/07/09/10 for one completed
/// (conventional, samie) suite, with the same definitions.
struct PaperFigures {
  double ipc_loss = 0, lsq_saved = 0, dcache_saved = 0, dtlb_saved = 0;
};

PaperFigures paper_figures(const std::vector<sim::SweepJobResult>& jobs) {
  const std::size_t n = trace::spec2000_names().size();
  std::vector<double> losses, dcache, dtlb;
  double conv_total = 0, samie_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::SimResult& conv = jobs[i].result;
    const sim::SimResult& s = jobs[n + i].result;
    losses.push_back(-percent_delta(s.core.ipc, conv.core.ipc));
    conv_total += conv.lsq_energy_nj;
    samie_total += s.lsq_energy_nj;
    dcache.push_back(percent_saved(s.dcache_energy_nj, conv.dcache_energy_nj));
    dtlb.push_back(percent_saved(s.dtlb_energy_nj, conv.dtlb_energy_nj));
  }
  return {arithmetic_mean(losses), percent_saved(samie_total, conv_total),
          arithmetic_mean(dcache), arithmetic_mean(dtlb)};
}

int cmd_accuracy(const std::vector<std::uint64_t>& seeds, std::uint64_t insts) {
  const bench::PaperAggregates paper;
  Json j;
  j.open('{').key("insts").num(insts).key("seeds").open('[');
  for (std::uint64_t seed : seeds) {
    Workload w = make_workload("paper_suite", seed, ".");
    for (auto& job : w.jobs) job.config.instructions = insts;
    const sim::SweepReport report = sim::run_sweep(w.jobs, w.options);
    const Gate g = check(report);
    j.open('{').key("seed").num(seed).key("attempted").num(g.attempted)
        .key("failed").num(g.failed).key("digest").str(hex64(fnv1a(csv_text(report.jobs))));
    if (g.rows == g.attempted) {
      const PaperFigures f = paper_figures(report.jobs);
      j.key("measured").open('{').key("ipc_loss_pct").num(f.ipc_loss)
          .key("lsq_energy_saved_pct").num(f.lsq_saved)
          .key("dcache_energy_saved_pct").num(f.dcache_saved)
          .key("dtlb_energy_saved_pct").num(f.dtlb_saved).close('}');
      j.key("paper_err").open('{')
          .key("ipc_loss_pp").num(std::abs(f.ipc_loss - paper.ipc_loss_pct))
          .key("lsq_energy_saved_pp").num(std::abs(f.lsq_saved - paper.lsq_energy_saving_pct))
          .key("dcache_energy_saved_pp")
          .num(std::abs(f.dcache_saved - paper.dcache_energy_saving_pct))
          .key("dtlb_energy_saved_pp")
          .num(std::abs(f.dtlb_saved - paper.dtlb_energy_saving_pct))
          .close('}');
    }
    j.close('}');
  }
  j.close(']').close('}');
  std::cout << j.text() << "\n";
  return 0;
}

// ---------------------------------------------------------------- trace --
/// In-memory span recorder: name, start, end (ns since the recorder's
/// epoch), parent span id, the job id every span of one job shares, and
/// the unit count of work the span covers. Written out once, at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start = 0, end = 0;
    std::int64_t parent = -1;
    std::int64_t job = -1;
    std::uint64_t ops = 0;
  };

  std::int64_t begin(const std::string& name, std::int64_t parent, std::int64_t job) {
    spans_.push_back(Span{name, ns_since(epoch_), 0, parent, job, 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id, std::uint64_t ops = 0) {
    spans_[static_cast<std::size_t>(id)].end = ns_since(epoch_);
    spans_[static_cast<std::size_t>(id)].ops = ops;
  }
  void write(Json& j) const {
    j.open('[');
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      j.open('{').key("id").num(static_cast<std::uint64_t>(i)).key("name").str(s.name)
          .key("start").num(static_cast<double>(s.start))
          .key("end").num(static_cast<double>(s.end))
          .key("parent").num(static_cast<double>(s.parent))
          .key("job").num(static_cast<double>(s.job)).key("ops").num(s.ops).close('}');
    }
    j.close(']');
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Integer counters recorded at the same boundaries as the spans.
using Counters = std::map<std::string, double>;

/// Protocol replay of a trace's memory operations through one queue, in
/// rounds: place a batch (dispatch + address-ready + drain), plan the
/// newly placed loads, commit the oldest down to the window, and every
/// 16th round squash the youngest few (a misprediction flush). A buffered
/// oldest op that drain cannot place is resolved the way the core does —
/// a deadlock-avoidance squash of everything younger. Each phase is timed
/// as a batch, so the clock costs two reads per phase, not per call.
void lsq_replay(lsq::LoadStoreQueue& q, const std::vector<lsq::MemOpDesc>& ops,
                const std::string& prefix, Counters& c) {
  constexpr std::size_t kWindow = 120, kBatch = 8, kKeep = kWindow - kBatch;
  struct Live {
    InstSeq seq;
    bool is_load;
    bool placed;
  };
  std::deque<Live> live;
  std::vector<InstSeq> newly, to_plan;
  std::uint64_t place_ns = 0, plan_ns = 0, commit_ns = 0, squash_ns = 0;
  std::uint64_t placements = 0, buffered = 0, planned = 0, forwarded = 0, commits = 0,
                squashes = 0;
  auto mark_placed = [&](InstSeq s) {
    for (Live& l : live) {
      if (l.seq == s) {
        l.placed = true;
        if (l.is_load) to_plan.push_back(s);
        return;
      }
    }
  };
  auto squash_younger_than = [&](std::size_t keep) {
    const auto t = Clock::now();
    q.squash_from(live[keep].seq);
    live.resize(keep);
    squash_ns += static_cast<std::uint64_t>(ns_since(t));
    ++squashes;
    std::erase_if(to_plan, [&](InstSeq s) { return live.empty() || s > live.back().seq; });
  };
  std::size_t next = 0;
  for (std::uint64_t round = 0; next < ops.size() || !live.empty(); ++round) {
    // place
    auto t = Clock::now();
    for (std::size_t k = 0; k < kBatch && next < ops.size(); ++k) {
      const lsq::MemOpDesc& op = ops[next];
      if (live.size() >= kWindow || !q.can_dispatch(op.is_load) ||
          q.placement_headroom() == 0) {
        break;
      }
      q.on_dispatch(op.seq, op.is_load);
      const lsq::Placement p = q.on_address_ready(op);
      if (p.status == lsq::Placement::Status::kRejected) {
        throw std::logic_error(prefix + ": placement rejected");
      }
      ++placements;
      const bool placed = p.status == lsq::Placement::Status::kPlaced;
      buffered += placed ? 0 : 1;
      live.push_back(Live{op.seq, op.is_load, placed});
      if (placed && op.is_load) to_plan.push_back(op.seq);
      ++next;
    }
    newly.clear();
    q.drain(newly);
    for (InstSeq s : newly) mark_placed(s);
    place_ns += static_cast<std::uint64_t>(ns_since(t));
    // plan
    t = Clock::now();
    // Counting the plans keeps the calls' results observable.
    for (InstSeq s : to_plan) {
      forwarded += q.plan_load(s).kind != lsq::LoadPlan::Kind::kCacheAccess ? 1 : 0;
    }
    planned += to_plan.size();
    to_plan.clear();
    plan_ns += static_cast<std::uint64_t>(ns_since(t));
    // squash: a periodic misprediction flush of the youngest ops
    if (round % 16 == 15 && live.size() > 4) squash_younger_than(live.size() - 4);
    // deadlock: the oldest op is stuck in the address buffer
    if (!live.empty() && !live.front().placed) {
      if (live.size() > 1) squash_younger_than(1);
      newly.clear();
      q.drain(newly);
      for (InstSeq s : newly) mark_placed(s);
      if (!live.front().placed) throw std::logic_error(prefix + ": oldest op never placed");
    }
    // commit
    t = Clock::now();
    const std::size_t keep = next < ops.size() ? kKeep : 0;
    while (live.size() > keep && live.front().placed) {
      const Live& l = live.front();
      if (l.is_load) q.on_load_complete(l.seq);
      q.on_commit(l.seq);
      live.pop_front();
      ++commits;
    }
    commit_ns += static_cast<std::uint64_t>(ns_since(t));
  }
  c[prefix + ".place_ns"] += static_cast<double>(place_ns);
  c[prefix + ".place_n"] += static_cast<double>(placements);
  c[prefix + ".plan_load_ns"] += static_cast<double>(plan_ns);
  c[prefix + ".plan_load_n"] += static_cast<double>(planned);
  c[prefix + ".commit_ns"] += static_cast<double>(commit_ns);
  c[prefix + ".commit_n"] += static_cast<double>(commits);
  c[prefix + ".squash_ns"] += static_cast<double>(squash_ns);
  c[prefix + ".squash_n"] += static_cast<double>(squashes);
  c[prefix + ".buffered"] += static_cast<double>(buffered);
  c[prefix + ".plan_not_cache"] += static_cast<double>(forwarded);
}

/// One traced pass of the layer probes over a trace: SAMT v2 encode and
/// decode, run_simulation with each LSQ, the LSQ protocol replays and
/// the memory and branch replays of its streams.
void probe_layers(Tracer& tr, std::int64_t parent, std::int64_t job,
                  const trace::TraceSource& src, const std::string& dir, Counters& c) {
  const trace::TraceView view =
      src.view().subview(0, std::min<std::size_t>(src.size(), kProbeInsts));
  const std::string tmp = (fs::path(dir) / "probe.samt").string();

  std::int64_t s = tr.begin("trace.samt_v2_encode", parent, job);
  trace::write_samt_v2(tmp, view, src.name(), src.seed());
  tr.end(s, view.size());
  c["trace.samt_v2_bytes"] += static_cast<double>(fs::file_size(tmp));
  c["trace.samt_v2_ops"] += static_cast<double>(view.size());
  s = tr.begin("trace.samt_v2_decode", parent, job);
  const trace::TraceSource decoded = trace::TraceSource::open_samt(tmp);
  tr.end(s, decoded.size());
  if (decoded.size() != view.size()) throw std::runtime_error("SAMT v2 round trip lost ops");

  for (sim::LsqChoice lsq : {sim::LsqChoice::kSamie, sim::LsqChoice::kConventional}) {
    const std::string name = sim::lsq_choice_name(lsq);
    sim::SimConfig cfg = sim::paper_config(lsq);
    cfg.instructions = view.size();
    s = tr.begin("sim.run." + name, parent, job);
    const sim::SimResult r = sim::run_simulation(cfg, view);
    tr.end(s, r.core.committed);
    const std::string k = "core." + name;
    c[k + ".committed"] += static_cast<double>(r.core.committed);
    c[k + ".cycles"] += static_cast<double>(r.core.cycles);
    c[k + ".skipped"] += static_cast<double>(r.core.quiescent_cycles_skipped);
    c[k + ".fast_forwards"] += static_cast<double>(r.core.fast_forwards);
    c[k + ".deadlock_flushes"] += static_cast<double>(r.core.deadlock_flushes);
    c[k + ".forwarded_loads"] += static_cast<double>(r.core.forwarded_loads);
    c[k + ".value_mismatches"] += static_cast<double>(r.core.value_mismatches);
    c[k + ".ipc_sum"] += r.core.ipc;
    c[k + ".runs"] += 1;
  }

  std::vector<lsq::MemOpDesc> mem_ops;
  std::vector<std::pair<Addr, bool>> branches;
  for (std::size_t i = 0; i < view.size(); ++i) {
    const trace::MicroOp& op = view[i];
    if (trace::is_mem(op.op)) {
      mem_ops.push_back(lsq::MemOpDesc{static_cast<InstSeq>(i), op.mem_addr, op.mem_size,
                                       op.op == trace::OpClass::kLoad,
                                       op.op == trace::OpClass::kStore});
    } else if (op.op == trace::OpClass::kBranch) {
      branches.emplace_back(op.pc, op.taken);
    }
  }

  {
    lsq::SamieLsq q(lsq::SamieConfig{}, nullptr);
    s = tr.begin("lsq.samie.replay", parent, job);
    lsq_replay(q, mem_ops, "lsq.samie", c);
    tr.end(s, mem_ops.size());
  }
  {
    lsq::ConventionalLsq q(lsq::ConventionalLsqConfig{}, nullptr);
    s = tr.begin("lsq.conventional.replay", parent, job);
    lsq_replay(q, mem_ops, "lsq.conventional", c);
    tr.end(s, mem_ops.size());
  }
  {
    mem::MemoryHierarchy m{mem::HierarchyConfig{}};
    std::uint64_t latency = 0;
    s = tr.begin("mem.data_access", parent, job);
    for (const lsq::MemOpDesc& op : mem_ops) latency += m.data_access(op.addr).latency;
    tr.end(s, mem_ops.size());
    c["mem.latency_sum"] += static_cast<double>(latency);
    c["mem.l1d_hits"] += static_cast<double>(m.l1d().hits());
    c["mem.l1d_misses"] += static_cast<double>(m.l1d().misses());
    c["mem.dtlb_hits"] += static_cast<double>(m.dtlb().hits());
    c["mem.dtlb_misses"] += static_cast<double>(m.dtlb().misses());
  }
  {
    branch::HybridPredictor p;
    s = tr.begin("branch.predict_update", parent, job);
    for (const auto& [pc, taken] : branches) p.predict_and_update(pc, taken);
    tr.end(s, branches.size());
    c["branch.lookups"] += static_cast<double>(p.lookups());
    c["branch.mispredicts"] += static_cast<double>(p.mispredicts());
  }
  fs::remove(tmp);
}

int cmd_trace(const std::string& workload, std::uint64_t seed, const std::string& dir,
              double seconds) {
  const auto t_start = Clock::now();
  const Workload w = make_workload(workload, seed, dir);
  Tracer tr;
  Counters c;

  // The workload itself, untraced twice around one traced repetition:
  // the tracing overhead is the traced wall over the untraced median.
  const WorkloadRun untraced_a = run_workload(w, dir);
  const std::int64_t root = tr.begin("workload", -1, -1);
  std::int64_t s = tr.begin("sweep.run_sweep", root, -1);
  if (!w.options.checkpoint_path.empty()) fs::remove(w.options.checkpoint_path);
  const auto t_traced = Clock::now();
  const sim::SweepReport report = sim::run_sweep(w.jobs, w.options);
  tr.end(s, report.jobs.size());
  const double sweep_wall = seconds_since(t_traced);
  s = tr.begin("sweep.write_csv", root, -1);
  const std::string csv = csv_text(report.jobs);
  std::ofstream(fs::path(dir) / "out.csv") << csv;
  tr.end(s, report.jobs.size());
  const double traced_wall = seconds_since(t_traced);
  tr.end(root, report.jobs.size());
  const WorkloadRun untraced_b = run_workload(w, dir);
  Gate g = check(report);
  // The traced repetition must reproduce the untraced statistics exactly.
  if (csv != untraced_a.csv || csv != untraced_b.csv) g.failed += g.attempted;

  std::vector<double> job_walls;
  std::uint64_t attempts = 0;
  for (const auto& r : report.jobs) {
    job_walls.push_back(r.outcome.wall_seconds);
    attempts += r.outcome.attempts;
  }
  // One job per distinct trace, as TraceCache keys them.
  std::vector<sim::Job> distinct;
  std::set<std::tuple<std::string, std::uint64_t, std::uint64_t, std::string>> seen;
  for (const auto& job : w.jobs) {
    if (seen.emplace(job.program, job.config.instructions, job.config.seed,
                     job.config.trace_path).second) {
      distinct.push_back(job);
    }
  }
  c["sweep.jobs"] = static_cast<double>(report.jobs.size());
  c["sweep.workers"] = w.workers;
  c["sweep.wall_s"] = sweep_wall;
  c["sweep.attempts"] = static_cast<double>(attempts);
  c["sweep.trace_resident_high_water"] = static_cast<double>(report.trace_resident_high_water);
  c["trace.distinct"] = static_cast<double>(distinct.size());
  c["workload.traced_wall_s"] = traced_wall;
  c["workload.untraced_wall_a_s"] = untraced_a.wall_s;
  c["workload.untraced_wall_b_s"] = untraced_b.wall_s;

  // Isolation probe: the first jobs, capped in length, run isolated
  // (with a checkpoint journal) and in-process, one worker each.
  std::vector<sim::Job> probe(w.jobs.begin(),
                              w.jobs.begin() + static_cast<std::ptrdiff_t>(std::min(
                                                   kIsolateProbeJobs, w.jobs.size())));
  for (auto& job : probe) {
    job.config.instructions = std::min(job.config.instructions, kIsolateProbeInsts);
  }
  sim::SweepOptions iso;
  iso.isolate_procs = 1;
  iso.checkpoint_path = (fs::path(dir) / "probe.ckpt").string();
  fs::remove(iso.checkpoint_path);
  sim::SweepOptions inproc;
  inproc.threads = 1;
  s = tr.begin("sweep.isolated_probe", -1, -1);
  const sim::SweepReport iso_r = sim::run_sweep(probe, iso);
  tr.end(s, probe.size());
  s = tr.begin("sweep.in_process_probe", -1, -1);
  const sim::SweepReport in_r = sim::run_sweep(probe, inproc);
  tr.end(s, probe.size());
  std::vector<double> iso_walls, in_walls;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    iso_walls.push_back(iso_r.jobs[i].outcome.wall_seconds);
    in_walls.push_back(in_r.jobs[i].outcome.wall_seconds);
  }
  c["sweep.checkpoint_bytes"] = static_cast<double>(fs::file_size(iso.checkpoint_path));
  c["sweep.probe_jobs"] = static_cast<double>(probe.size());
  const Gate probe_gate_iso = check(iso_r), probe_gate_in = check(in_r);

  // Layer probes over the workload's distinct traces, cycling until
  // `seconds` have passed (at least one pass over every trace).
  std::int64_t job_id = 0;
  do {
    for (const sim::Job& job : distinct) {
      const std::int64_t js = tr.begin("job", -1, job_id);
      if (job.config.trace_path.empty()) {
        const std::int64_t ls = tr.begin("trace.generate", js, job_id);
        const auto src = trace::TraceSource::generate(trace::spec2000_profile(job.program),
                                                      job.config.seed,
                                                      job.config.instructions);
        tr.end(ls, src.size());
        probe_layers(tr, js, job_id, src, dir, c);
      } else {
        std::int64_t ls = tr.begin("trace.samt_v2_decode", js, job_id);
        const auto src = trace::TraceSource::open_samt(job.config.trace_path);
        tr.end(ls, src.size());
        // The regenerated trace's cost, for trace.generate on replay.
        ls = tr.begin("trace.generate", js, job_id);
        const auto gen = trace::TraceSource::generate(trace::spec2000_profile(job.program),
                                                      job.config.seed, src.size());
        tr.end(ls, gen.size());
        probe_layers(tr, js, job_id, src, dir, c);
      }
      tr.end(js);
      ++job_id;
    }
  } while (seconds_since(t_start) < seconds);

  Json j;
  j.open('{').key("attempted").num(g.attempted + probe_gate_iso.attempted +
                                   probe_gate_in.attempted)
      .key("failed").num(g.failed + probe_gate_iso.failed + probe_gate_in.failed)
      .key("digest").str(hex64(fnv1a(csv)));
  j.key("job_walls").open('[');
  for (double v : job_walls) j.num(v);
  j.close(']').key("isolated_walls").open('[');
  for (double v : iso_walls) j.num(v);
  j.close(']').key("in_process_walls").open('[');
  for (double v : in_walls) j.num(v);
  j.close(']').key("counters").open('{');
  for (const auto& [k, v] : c) j.key(k).num(v);
  j.close('}').key("spans");
  tr.write(j);
  j.close('}');
  std::cout << j.text() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_driver <setup|run|trace|accuracy> [--key value ...]");
  const std::string cmd = argv[1];
  std::map<std::string, std::string> kv;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) die("expected --key value, got '" + k + "'");
    kv[k.substr(2)] = argv[i + 1];
  }
  auto need = [&](const std::string& k) {
    const auto it = kv.find(k);
    if (it == kv.end()) die("missing --" + k);
    return it->second;
  };
  try {
    if (cmd == "accuracy") {
      std::vector<std::uint64_t> seeds;
      std::stringstream ss(need("seeds"));
      for (std::string item; std::getline(ss, item, ',');) seeds.push_back(std::stoull(item));
      return cmd_accuracy(seeds, std::stoull(need("insts")));
    }
    const std::string workload = need("workload");
    const std::uint64_t seed = std::stoull(need("seed"));
    const std::string dir = need("dir");
    if (cmd == "setup") return cmd_setup(workload, seed, dir);
    if (cmd == "run") return cmd_run(workload, seed, dir);
    if (cmd == "trace") return cmd_trace(workload, seed, dir, std::stod(need("seconds")));
    die("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    die(std::string("error: ") + e.what());
  }
}
