#ifndef MIRROR_MONET_WAL_H_
#define MIRROR_MONET_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "monet/catalog.h"
#include "monet/column.h"
#include "monet/fault_injector.h"

namespace mirror::monet {

/// The write-ahead log behind the daemon's APPEND/DELETE path, built on
/// the bat_io codec. Every catalog mutation is serialized as one
/// CRC-framed record and written (then group-commit fsynced) before it is
/// applied, so an acknowledged write survives any crash-kill. The log is
/// *indexed*: Open() scans the file once, validates record CRCs, repairs
/// any torn tail by truncating to the last valid record, and builds a
/// per-BAT index of the surviving records — the structure MM-DIRECT-style
/// instant recovery needs to replay exactly one BAT's slice on demand
/// while a background thread drains the rest.
///
/// On-disk record grammar (little-endian; varint = LEB128 as in bat_io):
///
///   record  := magic:u32 body_len:u32 crc:u32 body
///   body    := lsn:varint kind:u8 name_len:varint name[]
///              expected_rows:varint payload
///   payload := EncodeColumn(values)        (kind = kWalAppend)
///            | EncodeColumn(deleted oids)  (kind = kWalDelete)
///
/// The 12-byte frame stays fixed-width, so a torn tail or a flipped bit
/// is caught before any varint is read. Payloads use bat_io's packed
/// column encoding: a 16-int append to `Feed.v` with values in [0, 999]
/// logs 50 bytes (184 in the previous, fixed-width format "WAL1", which
/// Open() refuses with a ParseError instead of truncating it away).
///
/// `crc` is Crc32(body). `expected_rows` stamps the append domain the
/// record was created against, which makes replay idempotent: applying a
/// record twice (a crash between apply and checkpoint truncation) is a
/// no-op because the domain no longer matches. Delete records are
/// idempotent by the delete-set union semantics.

inline constexpr uint32_t kWalMagic = 0x324c4157u;  // "WAL2"
inline constexpr uint8_t kWalAppend = 1;
inline constexpr uint8_t kWalDelete = 2;

struct WalRecord {
  uint64_t lsn = 0;
  uint8_t kind = 0;  // kWalAppend or kWalDelete
  std::string name;
  uint64_t expected_rows = 0;
  Column payload = Column::MakeVoid(0, 0);
};

/// Appends the framed encoding of `rec` to `out`.
void EncodeWalRecord(const WalRecord& rec, std::vector<uint8_t>* out);

/// Decodes one record at `*pos`, advancing past it. Any damage — short
/// header, torn payload, CRC mismatch, bad magic — returns ParseError,
/// which recovery treats as "end of valid log".
base::Result<WalRecord> DecodeWalRecord(const std::vector<uint8_t>& buf,
                                        size_t* pos);

/// Counters surfaced through the daemon's STATS frame.
struct WalStats {
  uint64_t appends = 0;           // records appended by this process
  uint64_t recovered_records = 0; // valid records found at Open()
  uint64_t replayed_records = 0;  // records applied to a catalog
  uint64_t truncated_bytes = 0;   // damaged tail dropped at Open()
};

class Wal {
 public:
  /// Opens (creating if missing) the log at `path`: scans it, drops the
  /// damaged tail (ftruncate to the last valid record), indexes the
  /// survivors per BAT name and positions the write cursor at the end.
  /// `fi` (may be null, not owned) injects faults into subsequent writes.
  static base::Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                                 FaultInjector* fi = nullptr);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Serializes one record and writes it to the OS (not yet durable);
  /// returns its LSN. Call Sync(lsn) before acknowledging the write.
  base::Result<uint64_t> Append(uint8_t kind, const std::string& name,
                                uint64_t expected_rows,
                                const Column& payload);

  /// Group commit: blocks until every record up to `lsn` is fsynced.
  /// Concurrent callers share one fsync — the first becomes the leader
  /// and syncs the common tail, the rest just wait.
  base::Status Sync(uint64_t lsn);

  // -- Recovery (records indexed at Open). ------------------------------

  /// Names that still have unreplayed records, sorted.
  std::vector<std::string> PendingNames() const;

  /// True while `name` has unreplayed records.
  bool HasPending(const std::string& name) const;

  /// Applies `name`'s unreplayed records to `catalog` in LSN order
  /// (append records whose domain stamp no longer matches are skipped —
  /// the idempotence rule). The catalog must already hold the name's
  /// checkpointed base.
  base::Status ReplayInto(Catalog* catalog, const std::string& name);

  /// ReplayInto for every pending name (full-replay restart).
  base::Status ReplayAllInto(Catalog* catalog);

  /// Truncates the log to empty — the post-checkpoint reset. LSNs stay
  /// monotone across the truncation.
  base::Status Reset();

  WalStats stats() const;
  uint64_t last_lsn() const;

 private:
  Wal() = default;

  std::string path_;
  int fd_ = -1;
  FaultInjector* fi_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable sync_cv_;
  uint64_t next_lsn_ = 1;
  uint64_t written_lsn_ = 0;  // highest lsn handed to the OS
  uint64_t synced_lsn_ = 0;   // highest lsn known durable
  bool sync_in_progress_ = false;

  /// Header of one record recovered at Open(). The payload column stays
  /// encoded in `raw_` (offsets below) and is decoded only when its BAT
  /// actually replays: Open() CRC-validates each body but never parses
  /// payloads, so a lazy restart can offer its port immediately even
  /// behind a large log.
  struct Recovered {
    uint64_t lsn = 0;
    uint8_t kind = 0;
    std::string name;
    uint64_t expected_rows = 0;
    size_t payload_pos = 0;  // offset of the encoded column in raw_
    size_t payload_end = 0;
  };

  /// Records recovered at Open() awaiting replay, plus the per-BAT
  /// index into them (ascending record positions == LSN order).
  std::vector<uint8_t> raw_;  // validated prefix of the log at Open()
  std::vector<Recovered> recovered_;
  std::vector<bool> replayed_;
  std::map<std::string, std::vector<size_t>> index_;

  WalStats stats_;
};

}  // namespace mirror::monet

#endif  // MIRROR_MONET_WAL_H_
