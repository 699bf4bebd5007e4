// samt_convert: converts SAMT traces between v1 (flat record array)
// and v2 (block-guarded, delta-encoded, indexed) in either
// direction, with integrity verification on both ends.
//
//   samt_convert [options] <in.samt> <out.samt>
//
//   --to=v1|v2         target version (default: the opposite of the
//                      input's version)
//   --block-records=N  records per v2 block (default 4096; v2 output only)
//   --no-verify        skip the post-write re-read of the output
//
// The input is fully decoded through its version's verifying reader
// (v1: header + whole-file FNV-1a checksum; v2: footer, index and every
// block guard), so a damaged input fails the conversion with a typed
// error instead of laundering corruption into a clean-looking output.
// After writing, the output is re-opened and verified the same way and
// its record stream compared byte-for-byte against the input's, so a
// conversion can never silently drop or alter records. Both writers
// publish atomically (tmp + fsync + rename): a failed conversion leaves
// no partial file at the output path.
//
// Exit status: 0 on success, 1 on any error (usage, unreadable or
// damaged input, write failure, post-write verification mismatch).
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/trace/trace_io.h"
#include "tools/cli_util.h"

namespace {

using namespace samie;

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "samt_convert: " << what
            << "\nusage: samt_convert [--to=v1|v2] [--block-records=N]"
               " [--no-verify] <in.samt> <out.samt>\n";
  std::exit(1);
}

/// Reads and fully verifies `path` (trace::read_samt, either version).
trace::Trace read_verified(const std::string& path, std::uint32_t& version) {
  version = trace::read_samt_header(path).version;
  return trace::read_samt(path);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t to_version = 0;  // 0: opposite of the input
  std::uint64_t block_records = trace::kDefaultBlockRecords;
  bool verify_output = true;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--to=v1") {
      to_version = trace::kSamtVersion;
    } else if (arg == "--to=v2") {
      to_version = trace::kSamtVersion2;
    } else if (arg.rfind("--to=", 0) == 0) {
      usage_error("unknown --to target '" + arg.substr(5) + "' (v1 or v2)");
    } else if (tools::parse_u64(arg, "--block-records", block_records,
                                [](const std::string& w) { usage_error(w); })) {
      if (block_records == 0 || block_records > (1u << 24)) {
        usage_error("--block-records must be in [1, 2^24]");
      }
    } else if (arg == "--no-verify") {
      verify_output = false;
    } else if (arg.rfind("--", 0) == 0) {
      usage_error("unknown option '" + arg + "'");
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) usage_error("expected exactly <in.samt> <out.samt>");
  const std::string& in_path = paths[0];
  const std::string& out_path = paths[1];
  if (in_path == out_path) {
    usage_error("input and output paths must differ (atomic rename target)");
  }

  try {
    std::uint32_t in_version = 0;
    const trace::Trace t = read_verified(in_path, in_version);
    if (to_version == 0) {
      to_version = in_version == trace::kSamtVersion2 ? trace::kSamtVersion
                                                      : trace::kSamtVersion2;
    }
    const trace::TraceView view{t.ops.data(), t.ops.size()};
    if (to_version == trace::kSamtVersion2) {
      trace::write_samt_v2(out_path, view, t.name, t.seed,
                           static_cast<std::uint32_t>(block_records));
    } else {
      trace::write_samt(out_path, view, t.name, t.seed);
    }

    if (verify_output) {
      std::uint32_t out_version = 0;
      const trace::Trace back = read_verified(out_path, out_version);
      const bool same =
          out_version == to_version && back.name == t.name &&
          back.seed == t.seed && back.ops.size() == t.ops.size() &&
          (t.ops.empty() ||
           std::memcmp(back.ops.data(), t.ops.data(),
                       t.ops.size() * sizeof(trace::MicroOp)) == 0);
      if (!same) {
        std::cerr << "samt_convert: post-write verification mismatch: '"
                  << out_path << "' does not round-trip '" << in_path
                  << "'\n";
        return 1;
      }
    }
    std::cerr << "converted " << in_path << " (v" << in_version << ") -> "
              << out_path << " (v" << to_version << "), " << t.ops.size()
              << " records" << (verify_output ? ", verified" : "") << "\n";
  } catch (const trace::TraceFormatError& e) {
    std::cerr << "samt_convert: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
