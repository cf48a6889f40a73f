#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

namespace alex::core::ckpt {
namespace {

namespace fs = std::filesystem;

struct CkptMetrics {
  obs::Counter& writes = obs::MetricsRegistry::Global().counter("ckpt.writes");
  obs::Counter& bytes = obs::MetricsRegistry::Global().counter("ckpt.bytes");
  obs::Counter& write_failures =
      obs::MetricsRegistry::Global().counter("ckpt.write_failures");
  obs::Histogram& write_seconds =
      obs::MetricsRegistry::Global().histogram("ckpt.write_seconds");

  static CkptMetrics& Get() {
    static CkptMetrics* metrics = new CkptMetrics();
    return *metrics;
  }
};

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

/// Writes `data` to `path` via a sibling temp file: write, fsync, close,
/// rename, fsync the directory. After this returns OK the file is durable
/// under its final name; a crash mid-way leaves only a *.tmp sibling.
Status AtomicWriteFile(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", tmp));
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = Status::IOError(ErrnoMessage("write", tmp));
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status st = Status::IOError(ErrnoMessage("fsync", tmp));
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError(ErrnoMessage("close", tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st = Status::IOError(ErrnoMessage("rename", tmp));
    ::unlink(tmp.c_str());
    return st;
  }
  // Make the rename itself durable.
  const std::string dir = fs::path(path).parent_path().string();
  int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

constexpr std::string_view kCheckpointPrefix = "ckpt-";
constexpr std::string_view kCheckpointSuffix = ".alexckpt";
constexpr std::string_view kManifestName = "MANIFEST";

std::string CheckpointFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08llu%s", "ckpt-",
                static_cast<unsigned long long>(seq), ".alexckpt");
  return buf;
}

/// Parses the sequence number out of "ckpt-NNNNNNNN.alexckpt"; 0 if the
/// name does not match the pattern.
uint64_t SequenceOf(const std::string& name) {
  if (name.size() <= kCheckpointPrefix.size() + kCheckpointSuffix.size() ||
      name.compare(0, kCheckpointPrefix.size(), kCheckpointPrefix) != 0 ||
      name.compare(name.size() - kCheckpointSuffix.size(),
                   kCheckpointSuffix.size(), kCheckpointSuffix) != 0) {
    return 0;
  }
  const std::string digits = name.substr(
      kCheckpointPrefix.size(),
      name.size() - kCheckpointPrefix.size() - kCheckpointSuffix.size());
  uint64_t seq = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

std::vector<std::string> ReadManifestNames(const std::string& manifest_path) {
  std::vector<std::string> names;
  std::ifstream in(manifest_path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) names.push_back(line);
  }
  return names;
}

void HashU64(uint64_t v, uint64_t* h) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

void HashDouble(double v, uint64_t* h) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  HashU64(bits, h);
}

}  // namespace

uint64_t Checksum(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t ConfigFingerprint(const AlexConfig& config) {
  uint64_t h = 0xcbf29ce484222325ULL;
  HashDouble(config.theta, &h);
  HashDouble(config.step_size, &h);
  HashU64(config.episode_size, &h);
  HashDouble(config.epsilon, &h);
  HashU64(config.epsilon_decay ? 1 : 0, &h);
  HashDouble(config.positive_reward, &h);
  HashDouble(config.negative_reward, &h);
  HashU64(config.max_links_per_action, &h);
  HashU64(config.use_blacklist ? 1 : 0, &h);
  HashU64(config.blacklist_threshold, &h);
  HashU64(config.use_rollback ? 1 : 0, &h);
  HashU64(config.rollback_threshold, &h);
  HashU64(config.num_partitions, &h);
  HashU64(config.max_block_pairs, &h);
  HashU64(config.seed, &h);
  // num_threads, max_episodes and relaxed_fraction are deliberately
  // excluded: thread count does not change engine behaviour, and resuming
  // with a larger episode budget is the whole point of --resume.
  //
  // The policy tag (and its tunables) is hashed only when non-default:
  // every checkpoint written before policies became pluggable implicitly
  // ran "epsilon-greedy", and folding the default in unconditionally would
  // orphan all of them.
  if (config.policy != kDefaultPolicyTag) {
    for (char c : config.policy) HashU64(static_cast<uint8_t>(c), &h);
    HashDouble(config.adaptive_payoff_weight, &h);
  }
  return h;
}

std::string WrapPayload(PayloadKind kind, uint64_t config_fingerprint,
                        std::string_view payload) {
  BinaryWriter w;
  w.WriteRaw(kMagic);
  w.WriteU32(kFormatVersion);
  w.WriteU64(config_fingerprint);
  w.WriteU8(static_cast<uint8_t>(kind));
  w.WriteU64(payload.size());
  w.WriteU64(Checksum(payload));
  w.WriteRaw(payload);
  return w.Release();
}

Result<std::string> UnwrapPayload(std::string_view blob,
                                  PayloadKind expected_kind,
                                  uint64_t expected_fingerprint,
                                  uint32_t* format_version) {
  BinaryReader r(blob);
  std::string_view magic;
  ALEX_RETURN_NOT_OK(r.ReadRaw(kMagic.size(), &magic));
  if (magic != kMagic) {
    return Status::ParseError("checkpoint: bad magic (not an ALEX checkpoint)");
  }
  uint32_t version = 0;
  ALEX_RETURN_NOT_OK(r.ReadU32(&version));
  if (version < kMinFormatVersion || version > kFormatVersion) {
    return Status::InvalidArgument(
        "checkpoint: unsupported format version " + std::to_string(version) +
        " (this build reads versions " + std::to_string(kMinFormatVersion) +
        ".." + std::to_string(kFormatVersion) + ")");
  }
  if (format_version != nullptr) *format_version = version;
  uint64_t fingerprint = 0;
  ALEX_RETURN_NOT_OK(r.ReadU64(&fingerprint));
  if (fingerprint != expected_fingerprint) {
    return Status::InvalidArgument(
        "checkpoint: config fingerprint mismatch — the checkpoint was taken "
        "under different engine settings than the resuming run");
  }
  uint8_t kind = 0;
  ALEX_RETURN_NOT_OK(r.ReadU8(&kind));
  if (kind != static_cast<uint8_t>(expected_kind)) {
    return Status::InvalidArgument("checkpoint: payload kind " +
                                   std::to_string(kind) + ", expected " +
                                   std::to_string(static_cast<uint8_t>(
                                       expected_kind)));
  }
  uint64_t size = 0;
  uint64_t checksum = 0;
  ALEX_RETURN_NOT_OK(r.ReadU64(&size));
  ALEX_RETURN_NOT_OK(r.ReadU64(&checksum));
  if (size != r.remaining()) {
    return Status::ParseError(
        "checkpoint: truncated or oversized payload (header says " +
        std::to_string(size) + " bytes, " + std::to_string(r.remaining()) +
        " present)");
  }
  std::string_view payload;
  ALEX_RETURN_NOT_OK(r.ReadRaw(size, &payload));
  if (Checksum(payload) != checksum) {
    return Status::ParseError("checkpoint: payload checksum mismatch");
  }
  return std::string(payload);
}

CheckpointManager::CheckpointManager(std::string dir, size_t keep)
    : dir_(std::move(dir)), keep_(keep == 0 ? 1 : keep) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  retained_ = ReadManifestNames(ManifestPath());
  for (const std::string& name : retained_) {
    next_seq_ = std::max(next_seq_, SequenceOf(name) + 1);
  }
  // Sequence numbers must also clear any stray checkpoint files not in the
  // manifest (e.g. from a run with a larger retention depth), so a new
  // write never overwrites an existing file.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    next_seq_ =
        std::max(next_seq_, SequenceOf(entry.path().filename().string()) + 1);
  }
}

std::string CheckpointManager::ManifestPath() const {
  return (fs::path(dir_) / std::string(kManifestName)).string();
}

Status CheckpointManager::WriteManifest(const std::vector<std::string>& names) {
  std::ostringstream os;
  for (const std::string& name : names) os << name << "\n";
  return AtomicWriteFile(ManifestPath(), os.str());
}

Status CheckpointManager::Write(std::string_view blob,
                                std::string* final_path) {
  CkptMetrics& metrics = CkptMetrics::Get();
  obs::ScopedTimer timer(metrics.write_seconds);
  const std::string name = CheckpointFileName(next_seq_);
  const std::string path = (fs::path(dir_) / name).string();
  Status st = AtomicWriteFile(path, blob);
  if (!st.ok()) {
    metrics.write_failures.Add(1);
    return st;
  }
  ++next_seq_;

  // New checkpoint first, then the survivors of the retention window; only
  // after the manifest durably stops referencing a file is it deleted.
  std::vector<std::string> names;
  names.push_back(name);
  for (const std::string& old : retained_) {
    if (names.size() < keep_) names.push_back(old);
  }
  st = WriteManifest(names);
  if (!st.ok()) {
    metrics.write_failures.Add(1);
    return st;
  }
  for (const std::string& old : retained_) {
    if (std::find(names.begin(), names.end(), old) == names.end()) {
      std::error_code ec;
      fs::remove(fs::path(dir_) / old, ec);
    }
  }
  retained_ = std::move(names);
  metrics.writes.Add(1);
  metrics.bytes.Add(blob.size());
  if (final_path != nullptr) *final_path = path;
  return Status::OK();
}

Result<std::string> CheckpointManager::LatestPath() const {
  if (retained_.empty()) {
    return Status::NotFound("no checkpoints retained in '" + dir_ + "'");
  }
  return (fs::path(dir_) / retained_.front()).string();
}

std::vector<std::string> CheckpointManager::RetainedPaths() const {
  std::vector<std::string> out;
  out.reserve(retained_.size());
  for (const std::string& name : retained_) {
    out.push_back((fs::path(dir_) / name).string());
  }
  return out;
}

Result<std::string> CheckpointManager::ReadBlob(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open checkpoint '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("error reading checkpoint '" + path + "'");
  }
  return os.str();
}

Result<std::string> CheckpointManager::ResolveLatest(
    const std::string& dir_or_file) {
  std::error_code ec;
  std::string manifest;
  fs::path base;
  if (fs::is_directory(dir_or_file, ec)) {
    base = dir_or_file;
    manifest = (base / std::string(kManifestName)).string();
  } else if (fs::path(dir_or_file).filename() == std::string(kManifestName)) {
    base = fs::path(dir_or_file).parent_path();
    manifest = dir_or_file;
  } else {
    return dir_or_file;  // A concrete checkpoint file.
  }
  const std::vector<std::string> names = ReadManifestNames(manifest);
  if (names.empty()) {
    return Status::NotFound("no checkpoint manifest entries under '" +
                            dir_or_file + "'");
  }
  return (base / names.front()).string();
}

}  // namespace alex::core::ckpt
