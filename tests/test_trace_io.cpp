// Tests for the SAMT binary trace format and the trace-source layer:
// write→read round-trips are byte-stable, replays through the one SAMT
// reader are bit-identical to in-memory simulation for every LSQ kind,
// malformed files are rejected with clear errors, and the text importer
// builds traces that satisfy the generator's invariants.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/experiment.h"
#include "src/sim/perf_harness.h"
#include "src/sim/simulator.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/trace_view.h"
#include "src/trace/workload.h"
#include "tests/expect_result_fields.h"

namespace samie {
namespace {

namespace fs = std::filesystem;

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_trace_io_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& file) const {
    return (dir_ / file).string();
  }

  [[nodiscard]] static trace::Trace small_trace(std::uint64_t n = 5000) {
    trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 7);
    trace::Trace t = gen.generate(n);
    t.name = "gcc";
    t.seed = 7;
    return t;
  }

  [[nodiscard]] static std::vector<char> slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  fs::path dir_;
};

void expect_ops_equal(trace::TraceView a, trace::TraceView b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].pc, b[i].pc) << "op " << i;
    ASSERT_EQ(a[i].mem_addr, b[i].mem_addr) << "op " << i;
    ASSERT_EQ(a[i].br_target, b[i].br_target) << "op " << i;
    ASSERT_EQ(a[i].value, b[i].value) << "op " << i;
    ASSERT_EQ(static_cast<int>(a[i].op), static_cast<int>(b[i].op)) << "op " << i;
    ASSERT_EQ(a[i].mem_size, b[i].mem_size) << "op " << i;
    ASSERT_EQ(a[i].src1, b[i].src1) << "op " << i;
    ASSERT_EQ(a[i].src2, b[i].src2) << "op " << i;
    ASSERT_EQ(a[i].dst, b[i].dst) << "op " << i;
    ASSERT_EQ(a[i].taken, b[i].taken) << "op " << i;
  }
}

// ------------------------------------------------------------ round trip --

TEST_F(TraceIoTest, WriteReadRoundTripPreservesEverything) {
  const trace::Trace t = small_trace();
  trace::write_samt(path("t.samt"), t, t.name, t.seed);

  const trace::SamtHeader header = trace::read_samt_header(path("t.samt"));
  EXPECT_EQ(header.seed, 7U);
  EXPECT_EQ(header.count, t.size());
  EXPECT_EQ(header.version, trace::kSamtVersion);
  EXPECT_EQ(header.record_bytes, sizeof(trace::MicroOp));

  const trace::Trace back = trace::read_samt(path("t.samt"));
  EXPECT_EQ(back.name, "gcc");
  EXPECT_EQ(back.seed, 7U);
  expect_ops_equal(t, back);
}

TEST_F(TraceIoTest, RoundTripIsByteStable) {
  const trace::Trace t = small_trace();
  trace::write_samt(path("a.samt"), t, t.name, t.seed);
  // Same trace written again: byte-identical (canonical records).
  trace::write_samt(path("b.samt"), t, t.name, t.seed);
  EXPECT_EQ(slurp(path("a.samt")), slurp(path("b.samt")));
  // Read back and re-written: still byte-identical.
  const trace::Trace back = trace::read_samt(path("a.samt"));
  trace::write_samt(path("c.samt"), back, back.name, back.seed);
  EXPECT_EQ(slurp(path("a.samt")), slurp(path("c.samt")));
}

TEST_F(TraceIoTest, StreamingWriterMatchesOneShot) {
  const trace::Trace t = small_trace(1000);
  trace::write_samt(path("oneshot.samt"), t, t.name, t.seed);
  trace::TraceWriter w(path("streamed.samt"), t.name, t.seed);
  for (const auto& op : t.ops) w.append(op);
  w.finish();
  EXPECT_EQ(slurp(path("oneshot.samt")), slurp(path("streamed.samt")));
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  const trace::Trace empty{.name = "void", .seed = 3, .ops = {}};
  trace::write_samt(path("e.samt"), empty, empty.name, empty.seed);
  EXPECT_EQ(trace::read_samt(path("e.samt")).size(), 0U);
  const trace::TraceSource src = trace::TraceSource::open_samt(path("e.samt"));
  EXPECT_EQ(src.size(), 0U);
  EXPECT_TRUE(src.view().empty());
}

// -------------------------------------------------------- reject corrupt --

TEST_F(TraceIoTest, RejectsBadMagic) {
  const trace::Trace t = small_trace(100);
  trace::write_samt(path("t.samt"), t, t.name, t.seed);
  auto bytes = slurp(path("t.samt"));
  bytes[0] = 'X';
  std::ofstream(path("bad.samt"), std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(
      try { (void)trace::read_samt(path("bad.samt")); } catch (const trace::TraceFormatError& e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
        throw;
      },
      trace::TraceFormatError);
}

TEST_F(TraceIoTest, RejectsWrongVersion) {
  const trace::Trace t = small_trace(100);
  trace::write_samt(path("t.samt"), t, t.name, t.seed);
  auto bytes = slurp(path("t.samt"));
  bytes[8] = 99;  // version field (offset 8, little-endian u32)
  std::ofstream(path("v99.samt"), std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(
      try { (void)trace::read_samt(path("v99.samt")); } catch (const trace::TraceFormatError& e) {
        EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
        throw;
      },
      trace::TraceFormatError);
}

TEST_F(TraceIoTest, RejectsTruncatedFile) {
  const trace::Trace t = small_trace(100);
  trace::write_samt(path("t.samt"), t, t.name, t.seed);
  auto bytes = slurp(path("t.samt"));
  bytes.resize(bytes.size() - 13);
  std::ofstream(path("trunc.samt"), std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // The header alone still reads (a damaged file enumerates as a job);
  // the record read classifies the damage as a torn tail at the file end.
  EXPECT_NO_THROW((void)trace::read_samt_header(path("trunc.samt")));
  try {
    (void)trace::read_samt(path("trunc.samt"));
    FAIL() << "truncated v1 file was accepted";
  } catch (const trace::TraceCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    EXPECT_EQ(e.damage, trace::TraceDamage::kTornTail);
    EXPECT_EQ(e.offset, bytes.size());
  }
}

TEST_F(TraceIoTest, RejectsHeaderOnlyStub) {
  std::ofstream(path("stub.samt"), std::ios::binary).write("SAMT", 4);
  EXPECT_THROW((void)trace::read_samt_header(path("stub.samt")),
               trace::TraceFormatError);
  EXPECT_THROW((void)trace::read_samt(path("stub.samt")),
               trace::TraceFormatError);
}

TEST_F(TraceIoTest, RejectsChecksumMismatch) {
  const trace::Trace t = small_trace(100);
  trace::write_samt(path("t.samt"), t, t.name, t.seed);
  auto bytes = slurp(path("t.samt"));
  bytes[sizeof(trace::SamtHeader) + 5] ^= 0x40;  // flip a record bit
  std::ofstream(path("flip.samt"), std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // The header itself is fine...
  EXPECT_NO_THROW((void)trace::read_samt_header(path("flip.samt")));
  // ...but the record read notices: interior corruption of block 0 (the
  // record array), at the first record byte — what trace_health reports.
  try {
    (void)trace::read_samt(path("flip.samt"));
    FAIL() << "checksum mismatch was accepted";
  } catch (const trace::TraceCorruptError& e) {
    EXPECT_EQ(e.damage, trace::TraceDamage::kInteriorCorrupt);
    EXPECT_EQ(e.block, 0U);
    EXPECT_EQ(e.offset, sizeof(trace::SamtHeader));
  }
  const trace::TraceHealth h = trace::trace_health(path("flip.samt"));
  EXPECT_EQ(h.damage, trace::TraceDamage::kInteriorCorrupt);
  EXPECT_EQ(h.first_bad_offset, sizeof(trace::SamtHeader));
}

TEST_F(TraceIoTest, V1ReadHonoursInjectedFaults) {
  const trace::Trace t = small_trace(100);
  trace::write_samt(path("t.samt"), t, t.name, t.seed);
  const std::uint64_t size = fs::file_size(path("t.samt"));
  // Short read: the file looks ARG bytes shorter — a torn tail there.
  trace::set_io_fault(path("t.samt"), {trace::IoFault::Kind::kShortRead, 100});
  try {
    (void)trace::read_samt(path("t.samt"));
    FAIL() << "short read was not noticed";
  } catch (const trace::TraceCorruptError& e) {
    EXPECT_EQ(e.damage, trace::TraceDamage::kTornTail);
    EXPECT_EQ(e.offset, size - 100);
  }
  // Bit flip in block 0, the record array: interior corruption.
  trace::set_io_fault(path("t.samt"), {trace::IoFault::Kind::kBitFlipBlock, 0});
  try {
    (void)trace::read_samt(path("t.samt"));
    FAIL() << "bit flip was not noticed";
  } catch (const trace::TraceCorruptError& e) {
    EXPECT_EQ(e.damage, trace::TraceDamage::kInteriorCorrupt);
  }
  // Each fault was consumed in memory: the file itself is clean.
  expect_ops_equal(t, trace::read_samt(path("t.samt")));
  trace::clear_io_faults();
}

TEST_F(TraceIoTest, RejectsMissingFile) {
  EXPECT_THROW((void)trace::read_samt_header(path("absent.samt")),
               trace::TraceFormatError);
}

// -------------------------------------------------- bit-identical replay --

TEST_F(TraceIoTest, ReplayIsBitIdenticalForEveryLsqKind) {
  trace::WorkloadGenerator gen(trace::spec2000_profile("ammp"), 42);
  const trace::Trace t = gen.generate(30000);
  trace::write_samt(path("ammp.samt"), t, "ammp", 42);
  trace::write_samt_v2(path("ammp2.samt"), t, "ammp", 42);
  const trace::Trace v1 = trace::read_samt(path("ammp.samt"));
  const trace::Trace v2 = trace::read_samt(path("ammp2.samt"));

  for (const auto lsq : {sim::LsqChoice::kConventional, sim::LsqChoice::kArb,
                         sim::LsqChoice::kSamie}) {
    SCOPED_TRACE(sim::lsq_choice_name(lsq));
    sim::SimConfig cfg = sim::paper_config(lsq);
    cfg.instructions = t.size();
    const sim::SimResult in_memory = sim::run_simulation(cfg, t);
    sim::expect_fields_equal(in_memory, sim::run_simulation(cfg, v1));
    sim::expect_fields_equal(in_memory, sim::run_simulation(cfg, v2));
    // And through the cfg.trace_path front door.
    sim::SimConfig replay_cfg = cfg;
    replay_cfg.trace_path = path("ammp.samt");
    sim::expect_fields_equal(in_memory, sim::run_trace_file(replay_cfg));
  }
}

TEST_F(TraceIoTest, RunJobsSharesOneCopyAcrossLsqSweep) {
  trace::WorkloadGenerator gen(trace::spec2000_profile("swim"), 9);
  const trace::Trace t = gen.generate(20000);
  trace::write_samt(path("swim.samt"), t, "swim", 9);

  std::vector<sim::Job> jobs;
  for (const auto lsq : {sim::LsqChoice::kConventional, sim::LsqChoice::kArb,
                         sim::LsqChoice::kSamie}) {
    sim::Job job;
    job.program = "swim";
    job.config = sim::paper_config(lsq);
    job.config.instructions = t.size();
    job.config.trace_path = path("swim.samt");
    job.tag = sim::lsq_choice_name(lsq);
    jobs.push_back(job);
  }
  const auto results = sim::run_jobs(jobs, 3);
  ASSERT_EQ(results.size(), 3U);
  for (std::size_t i = 0; i < results.size(); ++i) {
    sim::SimConfig cfg = jobs[i].config;
    cfg.trace_path.clear();
    sim::expect_fields_equal(sim::run_simulation(cfg, t), results[i].result);
  }
}

TEST_F(TraceIoTest, RunJobsSurfacesWorkerErrors) {
  sim::Job job;
  job.program = "nope";
  job.config = sim::paper_config(sim::LsqChoice::kSamie);
  job.config.trace_path = path("does_not_exist.samt");
  EXPECT_THROW((void)sim::run_jobs({job}, 2), trace::TraceFormatError);
}

// ------------------------------------------------------------ TraceSource --

TEST_F(TraceIoTest, TraceSourceProvenance) {
  const trace::TraceSource generated = trace::TraceSource::generate(
      trace::spec2000_profile("gcc"), 7, 1000);
  EXPECT_EQ(generated.name(), "gcc");
  EXPECT_EQ(generated.size(), 1000U);

  trace::write_samt(path("g.samt"), generated.view(), generated.name(),
                    generated.seed());
  const trace::TraceSource opened = trace::TraceSource::open_samt(path("g.samt"));
  EXPECT_EQ(opened.name(), "gcc");
  EXPECT_EQ(opened.seed(), generated.seed());
  expect_ops_equal(generated.view(), opened.view());
}

TEST_F(TraceIoTest, OpenSamtRejectsAStraddlingRecordByIndex) {
  // Record 1 loads 8 bytes at 0x10000FFC, across a 64-byte block. The
  // codec stays permissive and round-trips it with valid guards; the
  // replay path refuses it, and not as a TraceFormatError, which a
  // sweep would retry.
  trace::Trace t = small_trace(3);
  t.ops[1] = trace::MicroOp{.pc = t.ops[1].pc,
                            .mem_addr = 0x10000FFC,
                            .op = trace::OpClass::kLoad,
                            .mem_size = 8,
                            .dst = 1};
  trace::write_samt(path("v1.samt"), t, t.name, t.seed);
  trace::write_samt_v2(path("v2.samt"), t, t.name, t.seed);
  for (const char* file : {"v1.samt", "v2.samt"}) {
    SCOPED_TRACE(file);
    EXPECT_EQ(trace::read_samt(path(file)).ops[1].mem_addr, 0x10000FFCU);
    try {
      (void)trace::TraceSource::open_samt(path(file));
      ADD_FAILURE() << "open_samt accepted a straddling record";
    } catch (const trace::TraceFormatError& e) {
      ADD_FAILURE() << "retryable error type: " << e.what();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "record 1: 8-byte access at 0x10000ffc"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------------ text import --

TEST_F(TraceIoTest, ImportTextBuildsValidTrace) {
  const std::string text =
      "# a small kernel\n"
      "int_alu\n"
      "store 0x1000 8        # plain store\n"
      "load 0x1000 8 1       # depends on the store's address producer\n"
      "int_alu 0 0           # no deps\n"
      "fp_mul 2              # depends on the load\n"
      "branch 1              # taken, synthesized backward target\n"
      "load 0x2000 4\n"
      "nop\n";
  const trace::Trace t =
      trace::import_text_trace_from_string(text, "inline.txt");
  ASSERT_EQ(t.size(), 8U);
  EXPECT_EQ(t[0].op, trace::OpClass::kIntAlu);
  EXPECT_EQ(t[1].op, trace::OpClass::kStore);
  EXPECT_EQ(t[1].mem_addr, 0x1000U);
  EXPECT_EQ(t[1].mem_size, 8U);
  EXPECT_EQ(t[2].op, trace::OpClass::kLoad);
  // The load must observe the store's oracle value.
  EXPECT_EQ(t[2].value, t[1].value);
  // `1` back from the load is the store, which has no dst: dep dropped.
  EXPECT_EQ(t[2].src1, kNoReg);
  EXPECT_EQ(t[4].op, trace::OpClass::kFpMul);
  // `2` back from fp_mul is the load: real register dependency.
  EXPECT_EQ(t[4].src1, t[2].dst);
  EXPECT_TRUE(is_fp_reg(t[4].dst));
  EXPECT_EQ(t[5].op, trace::OpClass::kBranch);
  EXPECT_TRUE(t[5].taken);
  EXPECT_LT(t[5].br_target, t[5].pc);
  // Untouched memory loads as zero.
  EXPECT_EQ(t[6].value, 0U);
  // PCs are sequential.
  EXPECT_EQ(t[7].pc, t[0].pc + 7 * 4);
}

TEST_F(TraceIoTest, ImportedTraceRunsCleanly) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "store 0x" + [&] {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%x", 0x4000 + (i % 16) * 8);
      return std::string(buf);
    }() + " 8\n";
    text += "load 0x" + [&] {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%x", 0x4000 + (i % 16) * 8);
      return std::string(buf);
    }() + " 8\n";
    text += "int_alu 1\n";
    text += "branch 1\n";
  }
  const trace::Trace t = trace::import_text_trace_from_string(text, "gen.txt");
  sim::SimConfig cfg = sim::paper_config(sim::LsqChoice::kSamie);
  cfg.instructions = t.size();
  const sim::SimResult r = sim::run_simulation(cfg, t);
  EXPECT_EQ(r.core.committed, t.size());
  // The oracle values synthesized by the importer must hold up under the
  // core's load-value checking: any mismatch is an importer bug.
  EXPECT_EQ(r.core.value_mismatches, 0U);
}

TEST_F(TraceIoTest, ImportRejectsMalformedLines) {
  const auto expect_bad = [](const std::string& text, const char* needle) {
    try {
      (void)trace::import_text_trace_from_string(text, "bad.txt");
      FAIL() << "expected TraceFormatError for: " << text;
    } catch (const trace::TraceFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_bad("frobnicate 0x10 4\n", "unknown op class");
  expect_bad("load\n", "expected an address");
  expect_bad("load 0x1000\n", "expected an access size");
  expect_bad("load 0x1000 16\n", "must be 4 or 8");
  expect_bad("load 0x1001 8\n", "aligned");
  expect_bad("load 0x1000 8 1 2 3\n", "trailing");
  expect_bad("branch 7\n", "0 or 1");
  expect_bad("store 0x10zz 8\n", "expected an address");
}

TEST_F(TraceIoTest, ImportFileEndToEnd) {
  {
    std::ofstream out(path("k.txt"));
    out << "store 0x800 8\nload 0x800 8\nint_alu 1\n";
  }
  const trace::TraceSource src = trace::TraceSource::import_text(path("k.txt"));
  EXPECT_EQ(src.size(), 3U);
  EXPECT_EQ(src.view()[1].value, src.view()[0].value);
}

// ------------------------------------------- hotpath JSON section bound --

TEST(HotpathJson, KeySearchIsBoundedToItsSection) {
  const std::string json =
      "{\n"
      "  \"lsqs\": {\n"
      "    \"conventional\": {\n"
      "      \"total_sim_cycles\": 5,\n"
      "      \"programs\": [{\"program\": \"gcc\"}]\n"
      "    },\n"
      "    \"samie\": {\n"
      "      \"sim_cycles_per_second\": 123.5,\n"
      "      \"programs\": []\n"
      "    }\n"
      "  }\n"
      "}\n";
  // "conventional" lacks the key: must yield 0, not samie's 123.5.
  EXPECT_EQ(sim::hotpath_cycles_per_second_from_json(json, "conventional"), 0.0);
  EXPECT_EQ(sim::hotpath_cycles_per_second_from_json(json, "samie"), 123.5);
  EXPECT_EQ(sim::hotpath_cycles_per_second_from_json(json, "arb"), 0.0);
}

}  // namespace
}  // namespace samie
