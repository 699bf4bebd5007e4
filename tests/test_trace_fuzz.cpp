// Corrupt-trace fuzz: randomized bit flips and truncations of a valid
// SAMT file must surface as trace::TraceFormatError — never a crash, a
// hang, or a silently-wrong replay. The RNG is seeded deterministically
// (Xoshiro256), so every failure reproduces.
//
// The header layout (src/trace/trace_io.h, 64 bytes) splits into two
// regions with different guarantees:
//   [0,24)  magic/version/record_bytes/count — any flip MUST throw
//           (magic mismatch, bad version/record size, or a count that
//           contradicts the exact-file-size check)
//   [32,40) checksum — any flip MUST throw (FNV mismatch)
//   [24,32) seed and [40,64) name — provenance only; a flip may load
//           fine, but must never crash
// Record bytes [64,end) are covered by the FNV-1a checksum, whose
// byte-step (h ^ b) * prime is bijective in h, so any single-byte change
// always changes the final hash: a flip anywhere in the records MUST
// throw. Truncating or extending the file contradicts the exact-size
// check and MUST throw.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/trace/spec2000.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/trace/workload.h"

namespace samie {
namespace {

namespace fs = std::filesystem;

class TraceFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("samie_fuzz_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    // One small valid trace, reused (in memory) by every mutation.
    trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 11);
    trace::Trace t = gen.generate(1500);
    t.name = "gcc";
    t.seed = 11;
    const std::string p = path("seedfile.samt");
    trace::write_samt(p, trace::TraceView(t.ops.data(), t.ops.size()), t.name,
                      t.seed);
    std::ifstream in(p, std::ios::binary);
    valid_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(valid_.size(), 64u);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& file) const {
    return (dir_ / file).string();
  }

  [[nodiscard]] std::string write_mutant(const std::vector<char>& bytes) const {
    const std::string p = path("mutant.samt");
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  /// Opens through the one SAMT reader. Returns true when it succeeded;
  /// throws whatever it throws. A successful open is walked end to end
  /// so a lying header would fault here, under the test harness.
  static bool open_checked(const std::string& p) {
    std::uint64_t sink = 0;
    const trace::TraceSource src = trace::TraceSource::open_samt(p);
    for (const trace::MicroOp& op : src.view()) sink += op.pc + op.value;
    return sink != 0xdeadULL;  // defeat optimizing the walk away
  }

  fs::path dir_;
  std::vector<char> valid_;
};

TEST_F(TraceFuzzTest, ValidBaselineOpensCleanly) {
  EXPECT_NO_THROW((void)open_checked(write_mutant(valid_)));
}

TEST_F(TraceFuzzTest, BitFlipsInGuardedRegionsAlwaysThrow) {
  Xoshiro256 rng(0x5eedULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> bytes = valid_;
    // Guarded offsets: header [0,24) u [32,40), or any record byte.
    std::size_t off;
    switch (rng.below(3)) {
      case 0: off = rng.below(24); break;
      case 1: off = 32 + rng.below(8); break;
      default: off = 64 + rng.below(bytes.size() - 64); break;
    }
    bytes[off] = static_cast<char>(bytes[off] ^ (1u << rng.below(8)));
    const std::string p = write_mutant(bytes);
    EXPECT_THROW((void)open_checked(p), trace::TraceFormatError)
        << "trial " << trial << ": flip at offset " << off
        << " was accepted";
  }
}

TEST_F(TraceFuzzTest, TruncationsAndExtensionsAlwaysThrow) {
  Xoshiro256 rng(0xacce55ULL);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<char> bytes = valid_;
    if (rng.below(2) == 0) {
      bytes.resize(rng.below(bytes.size()));  // truncate (possibly to 0)
    } else {
      const std::size_t extra = 1 + rng.below(80);
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng()));
      }
    }
    const std::string p = write_mutant(bytes);
    EXPECT_THROW((void)open_checked(p), trace::TraceFormatError)
        << "trial " << trial << ": size " << bytes.size() << " vs valid "
        << valid_.size();
  }
}

TEST_F(TraceFuzzTest, DamageIsClassifiedLikeTraceHealth) {
  // A record flip is interior corruption of block 0 (the record array);
  // a cut that keeps the header is a torn tail at the new file end. The
  // open and the damage walk agree, since both run the same v1 read.
  Xoshiro256 rng(0xc1a55ULL);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<char> bytes = valid_;
    const bool flip = trial % 2 == 0;
    if (flip) {
      const std::size_t off = 64 + rng.below(bytes.size() - 64);
      bytes[off] = static_cast<char>(bytes[off] ^ (1u << rng.below(8)));
    } else {
      bytes.resize(64 + rng.below(bytes.size() - 64));
    }
    const trace::TraceDamage want = flip ? trace::TraceDamage::kInteriorCorrupt
                                         : trace::TraceDamage::kTornTail;
    const std::string p = write_mutant(bytes);
    try {
      (void)open_checked(p);
      ADD_FAILURE() << "trial " << trial << ": damage was accepted";
    } catch (const trace::TraceCorruptError& e) {
      EXPECT_EQ(e.damage, want) << "trial " << trial;
      EXPECT_EQ(trace::trace_health(p).damage, want) << "trial " << trial;
    }
  }
}

TEST_F(TraceFuzzTest, ProvenanceFlipsNeverCrash) {
  // seed [24,32) and name [40,64) are provenance, not integrity: a flip
  // may load fine (different seed/name) — it must never crash or hang.
  Xoshiro256 rng(0xbadc0deULL);
  int accepted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<char> bytes = valid_;
    const std::size_t off =
        rng.below(2) == 0 ? 24 + rng.below(8) : 40 + rng.below(24);
    bytes[off] = static_cast<char>(bytes[off] ^ (1u << rng.below(8)));
    const std::string p = write_mutant(bytes);
    try {
      (void)open_checked(p);
      ++accepted;
    } catch (const trace::TraceFormatError&) {
      // Also acceptable — just never a crash.
    }
  }
  // Sanity: these flips are outside every integrity check, so at least
  // some mutants must have loaded (all-throw would mean the regions
  // above are mislabeled and the MUST-throw tests are vacuous).
  EXPECT_GT(accepted, 0);
}

TEST_F(TraceFuzzTest, RandomGarbageNeverCrashes) {
  Xoshiro256 rng(0x9a5b7eULL);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = rng.below(4096);
    std::vector<char> bytes(n);
    for (auto& b : bytes) b = static_cast<char>(rng());
    const std::string p = write_mutant(bytes);
    try {
      (void)open_checked(p);
    } catch (const trace::TraceFormatError&) {
    }
  }
}

// -------------------------------------------------------------- SAMT v2 --
//
// v2 integrity coverage differs from v1's: everything after the 64-byte
// header — block headers, block payloads, index region, footer — carries
// its own FNV-1a guard, so a flip at ANY offset >= 64 must surface as a
// typed error from a full read. In the header, [0,24) and the index-
// binding checksum [32,40) are guarded; seed [24,32) and name [40,64)
// stay provenance-only, exactly as in v1.

class TraceV2FuzzTest : public TraceFuzzTest {
 protected:
  void SetUp() override {
    TraceFuzzTest::SetUp();
    // Small blocks so the mutation space covers many block boundaries,
    // interior blocks, and a multi-entry index.
    trace::WorkloadGenerator gen(trace::spec2000_profile("gcc"), 11);
    ops_ = gen.generate(1500).ops;
    const std::string p = path("seedfile_v2.samt");
    trace::write_samt_v2(p, trace::TraceView(ops_.data(), ops_.size()), "gcc",
                         11, /*block_records=*/256);
    std::ifstream in(p, std::ios::binary);
    valid_v2_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(valid_v2_.size(), 96u);
  }

  /// Full verifying read: eager footer/index validation at construction,
  /// then a whole-file block walk.
  static bool open_v2(const std::string& p) {
    const trace::TraceV2Reader r(p);
    std::uint64_t sink = 0;
    for (const auto& op : r.read_all().ops) sink += op.pc;
    return sink != 0xdeadULL;
  }

  std::vector<trace::MicroOp> ops_;
  std::vector<char> valid_v2_;
};

TEST_F(TraceV2FuzzTest, IntactFileDecodesBitIdentically) {
  const std::string p = write_mutant(valid_v2_);
  const trace::Trace t = trace::TraceV2Reader(p).read_all();
  ASSERT_EQ(t.ops.size(), ops_.size());
  EXPECT_EQ(std::memcmp(t.ops.data(), ops_.data(),
                        ops_.size() * sizeof(trace::MicroOp)),
            0);
  // Re-encoding the decoded records reproduces the file byte for byte:
  // the v2 encoding is canonical, so "decode + re-encode" is the
  // identity on intact files.
  const std::string p2 = path("rewritten.samt");
  trace::write_samt_v2(p2, trace::TraceView(t.ops.data(), t.ops.size()), "gcc",
                       11, /*block_records=*/256);
  std::ifstream in(p2, std::ios::binary);
  const std::vector<char> rewritten((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
  EXPECT_EQ(rewritten, valid_v2_);
}

TEST_F(TraceV2FuzzTest, BitFlipsInGuardedRegionsAlwaysThrow) {
  Xoshiro256 rng(0x2f1a9bULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> bytes = valid_v2_;
    // Guarded: header [0,24) u [32,40), or anything after the header
    // (blocks, index, footer — every byte is under some FNV guard).
    std::size_t off;
    switch (rng.below(4)) {
      case 0: off = rng.below(24); break;
      case 1: off = 32 + rng.below(8); break;
      default: off = 64 + rng.below(bytes.size() - 64); break;
    }
    bytes[off] = static_cast<char>(bytes[off] ^ (1u << rng.below(8)));
    const std::string p = write_mutant(bytes);
    EXPECT_THROW((void)open_v2(p), trace::TraceFormatError)
        << "trial " << trial << ": flip at offset " << off << " was accepted";
    // The damage walk must also notice: it either reports damage, or —
    // for flips that destroy the magic/version/record-size — throws the
    // same typed not-a-SAMT-file error. Never a clean verdict.
    try {
      const trace::TraceHealth h = trace::trace_health(p);
      EXPECT_NE(h.damage, trace::TraceDamage::kNone)
          << "trial " << trial << ": health missed flip at offset " << off;
    } catch (const trace::TraceFormatError&) {
    }
  }
}

TEST_F(TraceV2FuzzTest, TruncationsAndExtensionsAlwaysThrow) {
  Xoshiro256 rng(0x7e4c2dULL);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<char> bytes = valid_v2_;
    if (rng.below(2) == 0) {
      bytes.resize(rng.below(bytes.size()));  // truncate (possibly to 0)
    } else {
      const std::size_t extra = 1 + rng.below(80);
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<char>(rng()));
      }
    }
    const std::string p = write_mutant(bytes);
    EXPECT_THROW((void)open_v2(p), trace::TraceFormatError)
        << "trial " << trial << ": size " << bytes.size() << " vs valid "
        << valid_v2_.size();
  }
}

TEST_F(TraceV2FuzzTest, DamageIsClassifiedByRegion) {
  // Torn tail: cut the file mid-blocks (the footer and index are gone).
  {
    std::vector<char> bytes = valid_v2_;
    bytes.resize(bytes.size() / 2);
    const trace::TraceHealth h = trace::trace_health(write_mutant(bytes));
    EXPECT_EQ(h.damage, trace::TraceDamage::kTornTail);
  }
  // Interior corruption: flip a payload byte of the second block; the
  // index and footer stay intact, so only that block reads bad.
  {
    const trace::TraceV2Reader r(write_mutant(valid_v2_));
    ASSERT_GE(r.index().size(), 3u);
    const std::size_t off =
        static_cast<std::size_t>(r.index()[1].file_offset) +
        sizeof(trace::SamtBlockHeader) + 3;
    std::vector<char> bytes = valid_v2_;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
    const trace::TraceHealth h = trace::trace_health(write_mutant(bytes));
    EXPECT_EQ(h.damage, trace::TraceDamage::kInteriorCorrupt);
    EXPECT_EQ(h.bad_blocks, 1u);
    EXPECT_EQ(h.first_bad_offset, r.index()[1].file_offset);
  }
  // Bad index: flip a byte inside the index region (located via the
  // footer at the end of the intact file).
  {
    trace::SamtFooter footer{};
    std::memcpy(&footer, valid_v2_.data() + valid_v2_.size() - sizeof footer,
                sizeof footer);
    std::vector<char> bytes = valid_v2_;
    const std::size_t off = static_cast<std::size_t>(footer.index_offset) + 9;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x01);
    const trace::TraceHealth h = trace::trace_health(write_mutant(bytes));
    EXPECT_EQ(h.damage, trace::TraceDamage::kBadIndex);
  }
}

TEST_F(TraceV2FuzzTest, RandomGarbageNeverCrashesV2Reader) {
  Xoshiro256 rng(0x33cc77ULL);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = rng.below(4096);
    std::vector<char> bytes(n);
    for (auto& b : bytes) b = static_cast<char>(rng());
    const std::string p = write_mutant(bytes);
    try {
      (void)open_v2(p);
    } catch (const trace::TraceFormatError&) {
    }
    try {
      (void)trace::trace_health(p);
    } catch (const trace::TraceFormatError&) {
    }
  }
}

}  // namespace
}  // namespace samie
