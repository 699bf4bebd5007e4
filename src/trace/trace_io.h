// SAMT — the repo's versioned binary trace format — plus a plain-text
// import path for traces recorded by external simulators.
//
// Layout (all fields little-endian):
//
//   [SamtHeader: 64 bytes]  magic "SAMTRACE", version, record size,
//                           record count, generator seed, FNV-1a checksum
//                           of the record bytes, NUL-padded profile name
//   [count x MicroOp: 40 bytes each]  the in-memory record, verbatim,
//                           with padding bytes zeroed by the writer
//
// The on-disk v1 record *is* the in-memory `MicroOp` (layout pinned by
// static_asserts below). Both versions are read through one verifying
// entry point, read_samt(), into an owned Trace. docs/TRACE_FORMAT.md
// specifies the format and its versioning rules.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/trace/instruction.h"
#include "src/trace/trace_view.h"

namespace samie::trace {

/// Any malformed SAMT or text-trace input: bad magic, version or record
/// size mismatch, truncation, checksum failure, unparseable text line.
class TraceFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How a damaged-but-recognizable SAMT v2 file is broken. The taxonomy is
/// what the sweep scheduler keys quarantine decisions on (torn tails are
/// what a killed import leaves behind; interior corruption and a bad
/// index point at damaged media).
enum class TraceDamage : std::uint8_t {
  kNone = 0,
  /// The file ends early: missing/garbled footer, or a final block cut
  /// short. Everything before the tear is intact.
  kTornTail,
  /// A block in the middle of the file fails its guard; the footer and
  /// index are intact, so every other block is still addressable.
  kInteriorCorrupt,
  /// The footer points at an index that is inconsistent, fails its guard,
  /// or disagrees with the header binding — no block is trustworthy.
  kBadIndex,
};

[[nodiscard]] const char* trace_damage_name(TraceDamage d) noexcept;

/// Structured damage: a TraceFormatError that additionally carries the
/// damage class, the damaged block and its file offset, so the sweep
/// scheduler can quarantine precisely instead of failing generically.
class TraceCorruptError : public TraceFormatError {
 public:
  TraceCorruptError(const std::string& what, TraceDamage damage,
                    std::uint64_t block, std::uint64_t offset)
      : TraceFormatError(what), damage(damage), block(block), offset(offset) {}

  TraceDamage damage;
  std::uint64_t block;   ///< damaged block index (kNoBlock if not per-block)
  std::uint64_t offset;  ///< file byte offset where the damage starts

  static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};
};

inline constexpr std::uint32_t kSamtVersion = 1;
inline constexpr std::uint32_t kSamtVersion2 = 2;
inline constexpr char kSamtMagic[8] = {'S', 'A', 'M', 'T', 'R', 'A', 'C', 'E'};

#pragma pack(push, 1)
struct SamtHeader {
  char magic[8];                ///< "SAMTRACE" (not NUL-terminated)
  std::uint32_t version = kSamtVersion;
  std::uint32_t record_bytes = 0;  ///< sizeof(MicroOp); rejects layout drift
  std::uint64_t count = 0;         ///< MicroOp records after the header
  std::uint64_t seed = 0;          ///< provenance (generator seed, or 0)
  std::uint64_t checksum = 0;      ///< FNV-1a 64 over all record bytes
  char name[24] = {};              ///< profile/program name, NUL-padded
};
#pragma pack(pop)
static_assert(sizeof(SamtHeader) == 64, "SAMT header is 64 bytes");

// The on-disk record is the in-memory MicroOp; pin the layout so a build
// whose MicroOp drifted cannot silently read or write garbage. A layout
// change requires bumping kSamtVersion (see docs/TRACE_FORMAT.md).
static_assert(std::endian::native == std::endian::little,
              "SAMT I/O assumes a little-endian host");
static_assert(sizeof(MicroOp) == 40);
static_assert(offsetof(MicroOp, pc) == 0);
static_assert(offsetof(MicroOp, mem_addr) == 8);
static_assert(offsetof(MicroOp, br_target) == 16);
static_assert(offsetof(MicroOp, value) == 24);
static_assert(offsetof(MicroOp, op) == 32);
static_assert(offsetof(MicroOp, mem_size) == 33);
static_assert(offsetof(MicroOp, src1) == 34);
static_assert(offsetof(MicroOp, src2) == 35);
static_assert(offsetof(MicroOp, dst) == 36);
static_assert(offsetof(MicroOp, taken) == 37);

/// FNV-1a 64-bit over `n` bytes, continuing from `h` (pass the offset
/// basis for a fresh hash).
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a_64(const void* bytes, std::size_t n,
                                     std::uint64_t h = kFnvBasis) noexcept;

/// Streaming SAMT writer. Records are appended in canonical form (padding
/// bytes zeroed, so identical traces produce byte-identical files);
/// `finish()` patches count + checksum into the header and atomically
/// renames the file into place. All writes go to `path + ".tmp"`, so a
/// writer that dies — exception, SIGKILL, full disk — never leaves a
/// partial file at `path`.
class TraceWriter {
 public:
  /// Opens `path + ".tmp"` for writing and emits a provisional header.
  /// Throws TraceFormatError if the file cannot be created.
  TraceWriter(const std::string& path, const std::string& name,
              std::uint64_t seed);
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;
  /// Removes the tmp file if finish() was never called.
  ~TraceWriter();

  void append(const MicroOp& op);
  void append(TraceView ops);
  /// Patches the final header, fsyncs and renames the tmp into place.
  /// Throws on I/O error (the tmp is removed, `path` untouched).
  void finish();

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  SamtHeader header_{};
  std::uint64_t checksum_ = kFnvBasis;
};

/// Convenience: writes a whole trace in one call.
void write_samt(const std::string& path, TraceView ops,
                const std::string& name, std::uint64_t seed);

/// Reads and validates only the 64-byte header (magic, version, record
/// size). Cheap: does not touch the records, so a v1 file whose payload
/// is damaged still enumerates — read_samt() classifies the damage.
[[nodiscard]] SamtHeader read_samt_header(const std::string& path);

/// The one SAMT reader: opens `path` (v1 or v2, by its header), reads
/// the whole trace into an owned Trace, and verifies everything it reads
/// — v1's size and whole-array checksum, or every v2 block's guard.
/// Throws TraceFormatError for files that are not SAMT traces and
/// TraceCorruptError for damaged ones (v1: a size mismatch is a torn
/// tail at the file size; a checksum mismatch is interior corruption of
/// block 0 at offset 64). Honours an armed IoFault for the path.
[[nodiscard]] Trace read_samt(const std::string& path);

// ------------------------------------------------------------- SAMT v2 --
//
// Version 2 keeps the 64-byte SamtHeader but replaces the raw record
// array with guarded, delta-encoded blocks plus a footer index:
//
//   [SamtHeader]            version = 2; `checksum` is FNV-1a over the
//                           whole index region (binds header <-> index)
//   [block]*                32-byte SamtBlockHeader + varint payload,
//                           each guarded by its own FNV-1a
//   [index region]          u32 "SIDX" magic, u32 block_count,
//                           block_count x SamtIndexEntry, u64 guard
//                           (FNV-1a over everything before the guard)
//   [SamtFooter: 32 bytes]  "SAMTIDX2", index offset + size, guard
//
// Delta state (previous pc, previous memory address) resets at every
// block boundary, so any block decodes and verifies independently of its
// neighbors: damage is pinned to the one block whose guard fails. Full
// layout and damage taxonomy: docs/TRACE_FORMAT.md.

inline constexpr std::uint32_t kBlockMagic = 0x4B4C4253;   // "SBLK" (LE)
inline constexpr std::uint32_t kIndexMagic = 0x58444953;   // "SIDX" (LE)
inline constexpr char kFooterMagic[8] = {'S', 'A', 'M', 'T',
                                         'I', 'D', 'X', '2'};
/// Default records per block: big enough to amortize headers and let the
/// deltas compress, small enough that damage is pinned to a small region.
inline constexpr std::uint32_t kDefaultBlockRecords = 4096;

#pragma pack(push, 1)
struct SamtBlockHeader {
  std::uint32_t magic = kBlockMagic;
  std::uint32_t record_count = 0;
  std::uint64_t first_record = 0;  ///< global index of the first record
  std::uint32_t payload_bytes = 0;
  std::uint32_t reserved = 0;
  /// FNV-1a over the 24 header bytes above, continued over the payload.
  std::uint64_t guard = 0;
};

struct SamtIndexEntry {
  std::uint64_t file_offset = 0;  ///< of the SamtBlockHeader
  std::uint64_t first_record = 0;
  std::uint32_t record_count = 0;
  std::uint32_t payload_bytes = 0;
  std::uint64_t guard = 0;  ///< copy of the block's guard
};

struct SamtFooter {
  char magic[8] = {};  ///< "SAMTIDX2"
  std::uint64_t index_offset = 0;
  std::uint64_t index_bytes = 0;  ///< magic + count + entries + guard
  std::uint64_t guard = 0;        ///< FNV-1a over the 24 bytes above
};
#pragma pack(pop)
static_assert(sizeof(SamtBlockHeader) == 32);
static_assert(sizeof(SamtIndexEntry) == 32);
static_assert(sizeof(SamtFooter) == 32);

// ------------------------------------------------------ I/O fault hooks --

/// Deterministic I/O fault injection for the robustness test matrix. A
/// fault armed against a path is consumed by the next reader open
/// (kShortRead, kBitFlipBlock) or writer finish (kEnospcOnImport,
/// kTornImport) touching that path, then disarms itself.
struct IoFault {
  enum class Kind : std::uint8_t {
    kNone = 0,
    /// Reader sees the file `param` bytes shorter than it is (0 = 64):
    /// a torn tail without touching the media.
    kShortRead,
    /// Reader flips one bit in block `param`'s payload after reading it
    /// (a v1 file's record array is its block 0): interior corruption
    /// without touching the media.
    kBitFlipBlock,
    /// Writer finish() fails as if the disk filled before the trace was
    /// sealed. The final path is untouched (v1 removes its tmp; v2 keeps
    /// its tmp for resume).
    kEnospcOnImport,
    /// Writer finish() dies mid-block: a torn tmp file survives (no
    /// index, no rename) exactly as a SIGKILLed import would leave it.
    kTornImport,
  };
  Kind kind = Kind::kNone;
  std::uint64_t param = 0;
};

/// Arms `fault` against `path` (process-global, thread-safe). A default
/// constructed fault disarms.
void set_io_fault(const std::string& path, IoFault fault);
/// Disarms every armed fault (test teardown).
void clear_io_faults();

// ------------------------------------------------------------ v2 health --

/// Per-block verification outcome from a full damage walk.
struct BlockHealth {
  std::uint64_t file_offset = 0;
  std::uint64_t first_record = 0;
  std::uint32_t record_count = 0;
  bool ok = false;
};

/// Full-file damage report: what trace_inspector --verify prints.
struct TraceHealth {
  std::uint32_t version = 0;
  TraceDamage damage = TraceDamage::kNone;
  std::uint64_t record_count = 0;   ///< per the header
  std::uint64_t bad_blocks = 0;
  /// File offset of the first damaged region (block-granular for block
  /// damage); ~0 when clean.
  std::uint64_t first_bad_offset = ~std::uint64_t{0};
  std::vector<BlockHealth> blocks;  ///< empty for kBadIndex / v1

  [[nodiscard]] bool ok() const noexcept {
    return damage == TraceDamage::kNone;
  }
};

/// Walks the whole file (v1 or v2) verifying every guard, and reports
/// damage instead of throwing for it. Throws TraceFormatError only when
/// the file is not a SAMT trace at all (unopenable, bad magic/version).
[[nodiscard]] TraceHealth trace_health(const std::string& path);

// ------------------------------------------------------------ v2 writer --

/// Streaming SAMT v2 writer with atomic, resumable publication. All
/// writes go to `path + ".tmp"`; every completed block is flushed so a
/// killed import loses at most the block in flight; `finish()` writes
/// index + footer, patches the header, fsyncs and renames into place
/// (readers never observe a partial file at `path`). An unfinished tmp
/// is *kept* on destruction — kResume picks its intact blocks back up.
class TraceWriterV2 {
 public:
  enum class Mode : std::uint8_t {
    kTruncate,  ///< start a fresh tmp
    kResume,    ///< keep the intact leading blocks of an existing tmp
  };

  TraceWriterV2(const std::string& path, const std::string& name,
                std::uint64_t seed,
                std::uint32_t block_records = kDefaultBlockRecords,
                Mode mode = Mode::kTruncate);
  TraceWriterV2(const TraceWriterV2&) = delete;
  TraceWriterV2& operator=(const TraceWriterV2&) = delete;
  /// Keeps the tmp file if finish() was never called (resumable).
  ~TraceWriterV2();

  /// Records already durable in the resumed tmp (0 for kTruncate). The
  /// caller appends from this record onward.
  [[nodiscard]] std::uint64_t durable_records() const noexcept;

  void append(const MicroOp& op);
  void append(TraceView ops);
  /// Flushes the final block, writes index + footer, patches the header,
  /// fsyncs and atomically renames the tmp into place.
  void finish();
  /// Explicitly discards the tmp file (the destructor never does).
  void abandon() noexcept;

  [[nodiscard]] static std::string tmp_path_for(const std::string& path) {
    return path + ".tmp";
  }

 private:
  void flush_block();

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  SamtHeader header_{};
  std::uint32_t block_records_ = kDefaultBlockRecords;
  std::uint64_t durable_records_ = 0;
  std::vector<MicroOp> pending_;       ///< records of the open block
  std::vector<SamtIndexEntry> index_;  ///< blocks written so far
  std::uint64_t write_offset_ = 0;     ///< next block's file offset
};

/// Convenience: writes a whole v2 trace in one call.
void write_samt_v2(const std::string& path, TraceView ops,
                   const std::string& name, std::uint64_t seed,
                   std::uint32_t block_records = kDefaultBlockRecords);

// ------------------------------------------------------------ v2 reader --

/// SAMT v2 reader. Construction validates header, footer and index
/// eagerly (classifying damage into TraceCorruptError); read_all() then
/// reads and guard-verifies every block, naming the first damaged one.
class TraceV2Reader {
 public:
  explicit TraceV2Reader(const std::string& path);

  [[nodiscard]] const SamtHeader& header() const noexcept { return header_; }
  [[nodiscard]] std::string name() const;
  [[nodiscard]] std::uint64_t record_count() const noexcept {
    return header_.count;
  }
  [[nodiscard]] std::size_t block_count() const noexcept {
    return index_.size();
  }
  [[nodiscard]] const std::vector<SamtIndexEntry>& index() const noexcept {
    return index_;
  }

  /// Decodes the whole trace, verifying every block's guard. Throws
  /// TraceCorruptError on damage.
  [[nodiscard]] Trace read_all() const;

 private:
  std::string path_;
  SamtHeader header_{};
  std::vector<SamtIndexEntry> index_;
  IoFault fault_{};  ///< armed fault consumed at open, applied on reads
};

/// Why a load or store breaks mem_access_ok (src/common/sparse_memory.h),
/// which the importer and TraceSource::open_samt enforce on every one.
[[nodiscard]] std::string bad_access_message(Addr addr, std::uint64_t bytes);

/// Imports a plain-text trace (one op per line: class, addr, size, dep
/// distances — grammar in docs/TRACE_FORMAT.md). PCs, registers and
/// oracle load values are synthesized so the imported trace satisfies the
/// same invariants as a generated one. Throws TraceFormatError naming the
/// offending line on malformed input.
[[nodiscard]] Trace import_text_trace(const std::string& path);

/// The same importer over an already-read text buffer (`origin` names the
/// source in error messages).
[[nodiscard]] Trace import_text_trace_from_string(const std::string& text,
                                                  const std::string& origin);

}  // namespace samie::trace
