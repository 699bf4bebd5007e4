#include "src/sim/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/sim/result_fields.h"
#include "src/trace/trace_io.h"  // fnv1a_64

namespace samie::sim {

namespace {

constexpr char kMagicLine[] = "# samie-sweep-checkpoint v1";

[[noreturn]] void io_fail(const std::string& path, const std::string& what) {
  throw CheckpointError(path + ": " + what);
}

[[nodiscard]] std::string fnv_hex(const std::string& payload) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                trace::fnv1a_64(payload.data(), payload.size()));
  return buf;
}

/// Splits "TYPE\t<fnv64>\t<payload>" and validates the guard. Returns
/// false (torn line) on any mismatch.
[[nodiscard]] bool parse_guarded(const std::string& line, char type,
                                 std::string& payload) {
  if (line.size() < 20 || line[0] != type || line[1] != '\t' ||
      line[18] != '\t') {
    return false;
  }
  payload = line.substr(19);
  return line.compare(2, 16, fnv_hex(payload)) == 0;
}

void flush_and_sync(const std::string& path, std::FILE* f) {
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    io_fail(path, std::string("cannot sync: ") + std::strerror(errno));
  }
}

/// fsyncs the directory holding `path`, making the directory entry
/// itself durable: the per-record fsyncs persist the file's *contents*,
/// but the rename that created the file lives in the directory, and a
/// machine crash before a directory sync can lose the whole journal.
[[nodiscard]] bool sync_parent_dir(const std::string& path) noexcept {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

CheckpointWriter CheckpointWriter::create(const std::string& path,
                                          std::uint64_t njobs,
                                          std::uint64_t fingerprint) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    io_fail(tmp, std::string("cannot create: ") + std::strerror(errno));
  }
  std::ostringstream header;
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, fingerprint);
  header << njobs << '\t' << fp;
  const std::string line = std::string(kMagicLine) + "\nH\t" +
                           fnv_hex(header.str()) + '\t' + header.str() + '\n';
  if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    io_fail(tmp, "short write");
  }
  flush_and_sync(tmp, f);
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    io_fail(path, std::string("cannot rename into place: ") +
                      std::strerror(errno));
  }
  if (!sync_parent_dir(path)) {
    io_fail(path, "cannot fsync parent directory after rename");
  }
  return append_to(path);
}

CheckpointWriter CheckpointWriter::append_to(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    io_fail(path, std::string("cannot open for append: ") +
                      std::strerror(errno));
  }
  return CheckpointWriter(path, f);
}

CheckpointWriter::CheckpointWriter(CheckpointWriter&& other) noexcept
    : path_(std::move(other.path_)),
      file_(std::exchange(other.file_, nullptr)) {}

CheckpointWriter& CheckpointWriter::operator=(CheckpointWriter&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    file_ = std::exchange(other.file_, nullptr);
  }
  return *this;
}

CheckpointWriter::~CheckpointWriter() { close(); }

void CheckpointWriter::close() noexcept {
  if (file_ == nullptr) return;
  std::fflush(file_);
  ::fsync(::fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
  (void)sync_parent_dir(path_);
}

void CheckpointWriter::append_line(char type, const std::string& payload) {
  if (file_ == nullptr) io_fail(path_, "append on a closed or moved-from writer");
  if (payload.find('\n') != std::string::npos) {
    io_fail(path_, "record payload contains a newline");
  }
  const std::string line =
      std::string(1, type) + '\t' + fnv_hex(payload) + '\t' + payload + '\n';
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    io_fail(path_, "short write");
  }
  flush_and_sync(path_, file_);
}

void CheckpointWriter::append_record(const std::string& payload) {
  append_line('R', payload);
}

void CheckpointWriter::append_quarantine(const std::string& payload) {
  append_line('Q', payload);
}

void CheckpointWriter::append_damaged(const std::string& payload) {
  append_line('D', payload);
}

CheckpointContents load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    io_fail(path, std::string("cannot open: ") + std::strerror(errno));
  }
  CheckpointContents out;
  std::string line;
  if (!std::getline(in, line) || line != kMagicLine) {
    io_fail(path, "not a sweep checkpoint (bad magic line)");
  }
  std::string payload;
  if (!std::getline(in, line) || !parse_guarded(line, 'H', payload)) {
    io_fail(path, "torn or missing checkpoint header");
  }
  {
    std::istringstream hs(payload);
    std::string fp;
    if (!(hs >> out.njobs >> fp) || fp.size() != 16) {
      io_fail(path, "malformed checkpoint header fields");
    }
    out.fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (parse_guarded(line, 'R', payload)) {
      out.records.push_back(std::move(payload));
    } else if (parse_guarded(line, 'Q', payload)) {
      out.quarantined.push_back(std::move(payload));
    } else if (parse_guarded(line, 'D', payload)) {
      out.damaged.push_back(std::move(payload));
    } else {
      // A torn tail after a kill mid-append, or bit rot: the FNV guard
      // rejects it and the job simply re-runs on resume.
      ++out.ignored_lines;
    }
  }
  return out;
}

// -- SimResult round-trip ----------------------------------------------------

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

namespace {

void put(std::string& out, std::uint64_t v) { out += std::to_string(v); }
void put(std::string& out, double v) { out += hexfloat(v); }

[[nodiscard]] bool parse_token(const std::string& t, std::uint64_t& v) {
  char* end = nullptr;
  errno = 0;
  v = std::strtoull(t.c_str(), &end, 10);
  return errno == 0 && end == t.c_str() + t.size();
}

[[nodiscard]] bool parse_token(const std::string& t, double& v) {
  char* end = nullptr;
  v = std::strtod(t.c_str(), &end);
  return end == t.c_str() + t.size();
}

}  // namespace

std::string serialize_sim_result(const SimResult& r) {
  std::string s;
  for (const ResultField& f : result_fields()) {
    if (!s.empty()) s += ' ';
    std::visit([&s](auto v) { put(s, v); }, f.value(r));
  }
  return s;
}

bool parse_sim_result(const std::string& text, SimResult& out) {
  std::istringstream in(text);
  std::string t;
  SimResult r;
  for (const ResultField& f : result_fields()) {
    if (!(in >> t) ||
        !std::visit([&t](auto* p) { return parse_token(t, *p); }, f.at(r))) {
      return false;
    }
  }
  if (in >> t) return false;
  out = r;
  return true;
}

}  // namespace samie::sim
