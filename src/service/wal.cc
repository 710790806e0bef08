#include "service/wal.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/crc32.h"
#include "util/fault_injector.h"

namespace mbta {

namespace {

constexpr std::size_t kMagicSize = sizeof(kWalMagic);
constexpr std::size_t kFrameHeaderSize = 8;  // u32 len + u32 crc
constexpr std::size_t kConfigBodySize =
    kWalHeaderSize - kMagicSize - kFrameHeaderSize;
/// kEpoch payload body: u64 epoch, u8 mode, u32 num_deltas, u64
/// value_bits, u32 state_crc.
constexpr std::size_t kEpochBodySize = 8 + 1 + 4 + 8 + 4;

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

void PutU32(std::uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t GetU32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Decodes and validates a config payload of kConfigBodySize bytes.
bool DecodeConfig(const unsigned char* p, WalConfig* config,
                  std::string* error) {
  config->objective.alpha = std::bit_cast<double>(GetU64(p));
  const unsigned char kind = p[8];
  config->edge_model.skill_threshold = std::bit_cast<double>(GetU64(p + 9));
  config->edge_model.interest_weight = std::bit_cast<double>(GetU64(p + 17));
  config->resolve_ratio = std::bit_cast<double>(GetU64(p + 25));
  config->epoch_max_work = GetU64(p + 33);
  const double alpha = config->objective.alpha;
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    SetError(error, "bad WAL config: objective.alpha outside [0, 1]");
    return false;
  }
  if (kind > static_cast<unsigned char>(ObjectiveKind::kSubmodular)) {
    SetError(error, "bad WAL config: unknown objective.kind");
    return false;
  }
  config->objective.kind = static_cast<ObjectiveKind>(kind);
  if (!std::isfinite(config->edge_model.skill_threshold) ||
      !std::isfinite(config->edge_model.interest_weight) ||
      !std::isfinite(config->resolve_ratio)) {
    SetError(error, "bad WAL config: non-finite edge model or resolve ratio");
    return false;
  }
  return true;
}

class RealFileSyncer : public FileSyncer {
 public:
  bool Sync(std::FILE* file) override {
    if (std::fflush(file) != 0) return false;
    return ::fsync(fileno(file)) == 0;
  }
};

}  // namespace

std::string FirstWalConfigMismatch(const WalConfig& a, const WalConfig& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (!same(a.objective.alpha, b.objective.alpha)) return "objective.alpha";
  if (a.objective.kind != b.objective.kind) return "objective.kind";
  if (!same(a.edge_model.skill_threshold, b.edge_model.skill_threshold)) {
    return "edge_model.skill_threshold";
  }
  if (!same(a.edge_model.interest_weight, b.edge_model.interest_weight)) {
    return "edge_model.interest_weight";
  }
  if (!same(a.resolve_ratio, b.resolve_ratio)) return "resolve_ratio";
  if (a.epoch_max_work != b.epoch_max_work) return "epoch_max_work";
  return "";
}

std::string EncodeWalHeader(const WalConfig& config) {
  std::string body;
  PutU64(std::bit_cast<std::uint64_t>(config.objective.alpha), &body);
  body.push_back(static_cast<char>(config.objective.kind));
  PutU64(std::bit_cast<std::uint64_t>(config.edge_model.skill_threshold),
         &body);
  PutU64(std::bit_cast<std::uint64_t>(config.edge_model.interest_weight),
         &body);
  PutU64(std::bit_cast<std::uint64_t>(config.resolve_ratio), &body);
  PutU64(config.epoch_max_work, &body);
  std::string header(kWalMagic, kMagicSize);
  PutU32(static_cast<std::uint32_t>(body.size()), &header);
  PutU32(Crc32(body), &header);
  return header + body;
}

FileSyncer* FileSyncer::Real() {
  static RealFileSyncer syncer;
  return &syncer;
}

WalWriter::~WalWriter() { Close(); }

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool WalWriter::Open(const std::string& path, const WalConfig& config,
                     std::string* error, FaultInjector* faults,
                     FileSyncer* syncer) {
  Close();
  poisoned_ = false;
  faults_ = faults;
  syncer_ = syncer != nullptr ? syncer : FileSyncer::Real();
  // "a+b": reads anywhere, writes always append — exactly WAL semantics.
  file_ = std::fopen(path.c_str(), "a+b");
  if (file_ == nullptr) {
    SetError(error, "cannot open WAL for append: " + path);
    return false;
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    SetError(error, "cannot seek WAL: " + path);
    Close();
    return false;
  }
  const long size = std::ftell(file_);
  const std::string header = EncodeWalHeader(config);
  if (size == 0) {
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
            header.size() ||
        !syncer_->Sync(file_)) {
      SetError(error, "cannot write WAL header: " + path);
      Close();
      return false;
    }
    return true;
  }
  if (size < static_cast<long>(kWalHeaderSize)) {
    SetError(error, "torn WAL header (recover first): " + path);
    Close();
    return false;
  }
  char existing[kWalHeaderSize];
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fread(existing, 1, kWalHeaderSize, file_) != kWalHeaderSize ||
      std::memcmp(existing, header.data(), kWalHeaderSize) != 0) {
    SetError(error, "WAL header does not match this config: " + path);
    Close();
    return false;
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    SetError(error, "cannot seek WAL: " + path);
    Close();
    return false;
  }
  return true;
}

bool WalWriter::AppendPayload(const std::string& payload, std::string* error) {
  if (!ok()) {
    SetError(error, "WAL writer is closed or poisoned");
    return false;
  }
  // Poison before firing: if the injected fault throws, the writer must
  // already be unusable — state and log may have diverged.
  if (faults_ != nullptr && faults_->ShouldFail("service/wal/append")) {
    poisoned_ = true;
    throw FaultInjectedError("service/wal/append");
  }
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  PutU32(static_cast<std::uint32_t>(payload.size()), &frame);
  PutU32(Crc32(payload), &frame);
  frame += payload;
  if (faults_ != nullptr && faults_->ShouldFail("service/wal/torn")) {
    // Crash mid-write: persist only a prefix of the frame, then die. The
    // flush makes the torn bytes real so recovery genuinely sees them.
    poisoned_ = true;
    const std::size_t half = frame.size() / 2;
    std::fwrite(frame.data(), 1, half, file_);
    std::fflush(file_);
    throw FaultInjectedError("service/wal/torn");
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    poisoned_ = true;
    SetError(error, "WAL append failed");
    return false;
  }
  return true;
}

bool WalWriter::AppendDelta(const Delta& delta, std::string* error) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kDelta));
  EncodeDelta(delta, &payload);
  return AppendPayload(payload, error);
}

bool WalWriter::AppendEpoch(const EpochCommit& commit, std::string* error) {
  std::string payload;
  payload.push_back(static_cast<char>(WalRecordType::kEpoch));
  PutU64(commit.epoch, &payload);
  payload.push_back(static_cast<char>(commit.mode));
  PutU32(commit.num_deltas, &payload);
  PutU64(commit.value_bits, &payload);
  PutU32(commit.state_crc, &payload);
  return AppendPayload(payload, error);
}

bool WalWriter::Sync(std::string* error) {
  if (!ok()) {
    SetError(error, "WAL writer is closed or poisoned");
    return false;
  }
  if (faults_ != nullptr && faults_->ShouldFail("service/wal/fsync")) {
    poisoned_ = true;
    throw FaultInjectedError("service/wal/fsync");
  }
  if (!syncer_->Sync(file_)) {
    poisoned_ = true;
    SetError(error, "WAL fsync failed");
    return false;
  }
  return true;
}

std::optional<WalReadResult> ReadWal(const std::string& path,
                                     std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    SetError(error, "cannot open WAL for reading: " + path);
    return std::nullopt;
  }
  WalReadResult result;
  unsigned char header[kWalHeaderSize];
  const std::size_t got = std::fread(header, 1, kWalHeaderSize, file);
  const auto refuse = [&](const std::string& message) {
    SetError(error, message);
    std::fclose(file);
    return std::nullopt;
  };
  if (got == 0) {
    // Empty file: fresh WAL, nothing to replay.
    std::fclose(file);
    return result;
  }
  if (std::memcmp(header, kWalMagic, std::min(got, kMagicSize - 1)) != 0) {
    return refuse("bad WAL magic: " + path);
  }
  const auto want_version =
      static_cast<unsigned char>(kWalMagic[kMagicSize - 1]);
  if (got >= kMagicSize && header[kMagicSize - 1] != want_version) {
    return refuse("unsupported WAL version " +
                  std::to_string(header[kMagicSize - 1]) + ": " + path);
  }
  if (got >= kMagicSize + kFrameHeaderSize &&
      GetU32(header + kMagicSize) != kConfigBodySize) {
    return refuse("bad WAL config block size: " + path);
  }
  if (got < kWalHeaderSize) {
    // Crash during file creation: header itself is torn. valid_bytes = 0
    // tells recovery to truncate to empty; the writer recreates the
    // header.
    result.tail_dropped = true;
    std::fclose(file);
    return result;
  }
  const unsigned char* config_body = header + kMagicSize + kFrameHeaderSize;
  if (Crc32(config_body, kConfigBodySize) !=
      GetU32(header + kMagicSize + 4)) {
    return refuse("bad WAL config block checksum: " + path);
  }
  WalConfig config;
  std::string config_error;
  if (!DecodeConfig(config_body, &config, &config_error)) {
    return refuse(config_error + ": " + path);
  }
  result.config = config;
  result.valid_bytes = kWalHeaderSize;
  for (;;) {
    unsigned char frame_header[kFrameHeaderSize];
    const std::size_t fh = std::fread(frame_header, 1, kFrameHeaderSize, file);
    if (fh < kFrameHeaderSize) {
      result.tail_dropped = fh != 0;
      break;
    }
    const std::uint32_t len = GetU32(frame_header);
    const std::uint32_t want_crc = GetU32(frame_header + 4);
    if (len == 0 || len > kWalMaxRecordLen) {
      // Implausible length — a torn frame, not a reason to allocate.
      result.tail_dropped = true;
      break;
    }
    std::string payload(len, '\0');
    if (std::fread(payload.data(), 1, len, file) != len) {
      result.tail_dropped = true;
      break;
    }
    if (Crc32(payload) != want_crc) {
      result.tail_dropped = true;
      break;
    }
    // Checksum verified: from here on, failure means the file is not a
    // WAL we wrote (or a future schema) — structural error, not a torn
    // tail.
    const auto type = static_cast<WalRecordType>(
        static_cast<unsigned char>(payload[0]));
    WalRecord record;
    record.type = type;
    const std::string_view body(payload.data() + 1, payload.size() - 1);
    if (type == WalRecordType::kDelta) {
      std::string why;
      if (!DecodeDelta(body, &record.delta, &why)) {
        return refuse("checksummed WAL delta fails to decode: " + why);
      }
    } else if (type == WalRecordType::kEpoch) {
      if (body.size() != kEpochBodySize) {
        return refuse("bad WAL epoch record size");
      }
      const auto* p = reinterpret_cast<const unsigned char*>(body.data());
      record.epoch.epoch = GetU64(p);
      const unsigned char mode = p[8];
      if (mode > static_cast<unsigned char>(EpochMode::kDegraded)) {
        return refuse("bad WAL epoch mode byte");
      }
      record.epoch.mode = static_cast<EpochMode>(mode);
      record.epoch.num_deltas = GetU32(p + 9);
      record.epoch.value_bits = GetU64(p + 13);
      record.epoch.state_crc = GetU32(p + 21);
    } else {
      return refuse("unknown WAL record type");
    }
    result.records.push_back(std::move(record));
    result.valid_bytes += kFrameHeaderSize + len;
  }
  std::fclose(file);
  return result;
}

bool TruncateWal(const std::string& path, std::uint64_t valid_bytes,
                 std::string* error) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    SetError(error, "cannot truncate WAL: " + path);
    return false;
  }
  return true;
}

}  // namespace mbta
