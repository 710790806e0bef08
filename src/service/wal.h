#ifndef MBTA_SERVICE_WAL_H_
#define MBTA_SERVICE_WAL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "market/objective.h"
#include "market/types.h"
#include "service/delta.h"

namespace mbta {

class FaultInjector;

/// Append-only, checksummed, length-prefixed delta log. On-disk layout:
///
///   file header: "MBTAWAL" + version byte 0x02, then the config block
///     (see WalConfig), framed like a record with a fixed 41-byte
///     payload: u64 objective.alpha, u8 objective.kind, u64
///     edge_model.skill_threshold, u64 edge_model.interest_weight, u64
///     resolve_ratio, u64 epoch_max_work (doubles as IEEE-754 bits)
///   records, each framed as
///     u32 len   — payload length, little-endian, 1..kWalMaxRecordLen
///     u32 crc   — CRC-32 of the payload bytes
///     payload   — u8 record type, then the type-specific body
///
/// Record types: kDelta (body = EncodeDelta bytes) logs one admitted
/// delta *before* it is enqueued; kEpoch commits an epoch boundary and
/// carries everything replay needs to reproduce — and verify — the live
/// run: epoch index, solve mode (degraded decisions depend on wall
/// clocks, so they are recorded rather than re-derived), how many pending
/// deltas the epoch consumed, the objective value's IEEE bit pattern, and
/// the CRC-32 of the canonical serialized ServiceState after the commit.
///
/// The reader is tail-tolerant by design: a crash mid-append leaves a
/// torn frame, which is detected (short frame, implausible length, or
/// checksum mismatch) and reported as a dropped tail rather than an
/// error; a file cut short inside its header reads as an empty log. The
/// header itself, once complete, must be pristine, and so must anything
/// before the tail — replay is only byte-deterministic over verified
/// records.

inline constexpr char kWalMagic[8] = {'M', 'B', 'T', 'A', 'W', 'A', 'L', 2};
/// Magic + config frame header (u32 len, u32 crc) + config payload.
inline constexpr std::size_t kWalHeaderSize = 8 + 8 + 41;
/// Hard ceiling on one record's payload (a 4096-dim skill vector delta is
/// ~33 KB; 1 MB leaves headroom without letting a hostile length field
/// drive pre-allocation).
inline constexpr std::uint32_t kWalMaxRecordLen = 1u << 20;

/// The service settings an epoch's outcome depends on. The WAL header
/// stores them, so a log replays under the config that wrote it and
/// recovery refuses a service configured differently. ServiceConfig owns
/// the defaults (see WalConfigOf in service/market_service.h).
struct WalConfig {
  ObjectiveParams objective;
  EdgeModelParams edge_model;
  double resolve_ratio = 0.0;
  std::uint64_t epoch_max_work = 0;
};

/// Name of the first field where `a` and `b` differ ("objective.alpha",
/// ...; doubles compare by bit pattern), or "" when they agree.
std::string FirstWalConfigMismatch(const WalConfig& a, const WalConfig& b);

/// The kWalHeaderSize-byte file header a WAL written under `config`
/// starts with.
std::string EncodeWalHeader(const WalConfig& config);

enum class WalRecordType : std::uint8_t {
  kDelta = 1,
  kEpoch = 2,
};

/// Epoch solve mode, persisted in the epoch record (see above).
enum class EpochMode : std::uint8_t {
  kNormal = 0,    ///< repair + escape-hatch re-solve allowed
  kDegraded = 1,  ///< repair only — service under deadline pressure
};

struct EpochCommit {
  std::uint64_t epoch = 0;
  EpochMode mode = EpochMode::kNormal;
  std::uint32_t num_deltas = 0;   ///< pending deltas consumed
  std::uint64_t value_bits = 0;   ///< objective value, IEEE-754 bits
  std::uint32_t state_crc = 0;    ///< StateChecksum after the commit

  bool operator==(const EpochCommit& o) const {
    return epoch == o.epoch && mode == o.mode && num_deltas == o.num_deltas &&
           value_bits == o.value_bits && state_crc == o.state_crc;
  }
};

struct WalRecord {
  WalRecordType type = WalRecordType::kDelta;
  Delta delta;        ///< valid when type == kDelta
  EpochCommit epoch;  ///< valid when type == kEpoch
};

/// Injectable durability seam (the Clock pattern applied to fsync): the
/// writer calls Sync() at commit points; tests substitute a fake to
/// observe or suppress syncs without touching a real disk's semantics.
class FileSyncer {
 public:
  virtual ~FileSyncer() = default;
  /// Flushes stdio buffers and fsyncs the underlying descriptor.
  virtual bool Sync(std::FILE* file) = 0;
  /// Process-wide real syncer (fflush + ::fsync).
  static FileSyncer* Real();
};

/// Appends records to a WAL file. Fault points (fired through the
/// injected FaultInjector, CONTRIBUTING.md "Robustness"):
///
///   service/wal/append — before each record write
///   service/wal/fsync  — inside Sync(), before the real fsync
///   service/wal/torn   — writes only a PREFIX of the frame, then throws:
///                        simulates a crash mid-write so recovery tests
///                        hit a genuinely torn tail
///
/// Any append/sync failure (injected or real) poisons the writer: every
/// later call fails. The owning service treats that as fatal — state may
/// have diverged from the log, so the process must restart and recover.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creating if absent) the WAL and writes its header for
  /// `config`, or checks that an existing file's header matches it. The
  /// file position is left at the end for appending.
  bool Open(const std::string& path, const WalConfig& config,
            std::string* error = nullptr, FaultInjector* faults = nullptr,
            FileSyncer* syncer = nullptr);

  bool AppendDelta(const Delta& delta, std::string* error = nullptr);
  bool AppendEpoch(const EpochCommit& commit, std::string* error = nullptr);

  /// Durability barrier: flush + fsync via the injected FileSyncer.
  bool Sync(std::string* error = nullptr);

  void Close();
  bool ok() const { return file_ != nullptr && !poisoned_; }

 private:
  bool AppendPayload(const std::string& payload, std::string* error);

  std::FILE* file_ = nullptr;
  bool poisoned_ = false;
  FaultInjector* faults_ = nullptr;
  FileSyncer* syncer_ = nullptr;
};

struct WalReadResult {
  /// The header's config; absent when the file is empty or was cut
  /// short inside its header.
  std::optional<WalConfig> config;
  std::vector<WalRecord> records;
  /// Byte offset of the end of the last verified record (>= header
  /// size). Recovery truncates the file here before reopening it for
  /// append, so a torn tail can never be re-read as data.
  std::uint64_t valid_bytes = 0;
  /// True when trailing bytes after valid_bytes were dropped (torn
  /// frame, bad checksum, or implausible length).
  bool tail_dropped = false;
};

/// Reads and verifies a WAL. Returns std::nullopt only for structural
/// errors that truncation cannot explain: unreadable file, bad magic, an
/// unsupported version, a complete config block that fails its checksum
/// or holds an invalid value, or a verified-checksum record whose
/// payload fails to decode (checksummed garbage means the file is not
/// ours — refuse, don't guess).
std::optional<WalReadResult> ReadWal(const std::string& path,
                                     std::string* error = nullptr);

/// Truncates the WAL to `valid_bytes` (recovery's torn-tail amputation).
bool TruncateWal(const std::string& path, std::uint64_t valid_bytes,
                 std::string* error = nullptr);

}  // namespace mbta

#endif  // MBTA_SERVICE_WAL_H_
