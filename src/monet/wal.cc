#include "monet/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "base/str_util.h"
#include "monet/bat_io.h"

namespace mirror::monet {

namespace {

template <typename T>
void AppendPod(const T& v, std::vector<uint8_t>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
base::Status ReadPod(const std::vector<uint8_t>& buf, size_t* pos, T* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (*pos > buf.size() || buf.size() - *pos < sizeof(T)) {
    return base::Status::ParseError("truncated WAL record");
  }
  std::memcpy(v, buf.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return base::Status::Ok();
}

/// The magic of the previous record format, whose body held fixed-width
/// header fields and raw payload words.
constexpr uint32_t kWalMagicV1 = 0x314c4157u;  // "WAL1"

/// Parses the frame and header of the record at `*pos`: checks magic,
/// length and the CRC over the whole body, reads the header fields into
/// `rec` (its payload untouched) and leaves `*pos` at the payload.
/// `*body_end` is where the record ends.
base::Status ReadRecordHeader(const std::vector<uint8_t>& buf, size_t* pos,
                              WalRecord* rec, size_t* body_end) {
  uint32_t magic = 0;
  uint32_t body_len = 0;
  uint32_t crc = 0;
  MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &magic));
  if (magic != kWalMagic) {
    return base::Status::ParseError("bad WAL record magic");
  }
  MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &body_len));
  MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &crc));
  if (buf.size() - *pos < body_len) {
    return base::Status::ParseError("torn WAL record payload");
  }
  if (Crc32(buf.data() + *pos, body_len) != crc) {
    return base::Status::ParseError("WAL record CRC mismatch");
  }
  *body_end = *pos + body_len;
  MIRROR_RETURN_IF_ERROR(ReadVarint(buf, pos, &rec->lsn));
  MIRROR_RETURN_IF_ERROR(ReadPod(buf, pos, &rec->kind));
  if (rec->kind != kWalAppend && rec->kind != kWalDelete) {
    return base::Status::ParseError("unknown WAL record kind");
  }
  uint64_t name_len = 0;
  MIRROR_RETURN_IF_ERROR(ReadVarint(buf, pos, &name_len));
  if (*pos > *body_end || *body_end - *pos < name_len) {
    return base::Status::ParseError("truncated WAL record name");
  }
  rec->name.assign(reinterpret_cast<const char*>(buf.data() + *pos),
                   name_len);
  *pos += name_len;
  MIRROR_RETURN_IF_ERROR(ReadVarint(buf, pos, &rec->expected_rows));
  if (*pos > *body_end) {
    return base::Status::ParseError("truncated WAL record header");
  }
  return base::Status::Ok();
}

}  // namespace

void EncodeWalRecord(const WalRecord& rec, std::vector<uint8_t>* out) {
  const size_t frame = out->size();
  AppendPod<uint32_t>(kWalMagic, out);
  AppendPod<uint32_t>(0, out);  // body_len and crc, patched below
  AppendPod<uint32_t>(0, out);
  const size_t body = out->size();
  AppendVarint(rec.lsn, out);
  AppendPod<uint8_t>(rec.kind, out);
  AppendVarint(rec.name.size(), out);
  out->insert(out->end(), rec.name.begin(), rec.name.end());
  AppendVarint(rec.expected_rows, out);
  EncodeColumn(rec.payload, out);
  const auto body_len = static_cast<uint32_t>(out->size() - body);
  const uint32_t crc = Crc32(out->data() + body, body_len);
  std::memcpy(out->data() + frame + 4, &body_len, 4);
  std::memcpy(out->data() + frame + 8, &crc, 4);
}

base::Result<WalRecord> DecodeWalRecord(const std::vector<uint8_t>& buf,
                                        size_t* pos) {
  WalRecord rec;
  size_t body_end = 0;
  MIRROR_RETURN_IF_ERROR(ReadRecordHeader(buf, pos, &rec, &body_end));
  auto payload = DecodeColumn(buf, pos);
  if (!payload.ok()) return payload.status();
  rec.payload = payload.TakeValue();
  if (*pos != body_end) {
    return base::Status::ParseError("WAL record trailing bytes");
  }
  return rec;
}

// ---------------------------------------------------------------------------

base::Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                             FaultInjector* fi) {
  auto wal = std::unique_ptr<Wal>(new Wal());
  wal->path_ = path;
  wal->fi_ = fi;
  wal->fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (wal->fd_ < 0) {
    return base::Status::IoError("cannot open WAL: " + path);
  }

  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return base::Status::IoError("cannot stat WAL: " + path);
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  size_t got = 0;
  while (got < buf.size()) {
    ssize_t r = ::read(wal->fd_, buf.data() + got, buf.size() - got);
    if (r <= 0) return base::Status::IoError("cannot read WAL: " + path);
    got += static_cast<size_t>(r);
  }

  if (buf.size() >= sizeof(kWalMagicV1) &&
      std::memcmp(buf.data(), &kWalMagicV1, sizeof(kWalMagicV1)) == 0) {
    // An old-format log is not a torn tail: refuse it rather than
    // truncate away every record in it.
    return base::Status::ParseError("WAL in an older record format: " +
                                    path);
  }

  // Scan forward record by record; the first record that fails to frame
  // or checksum marks the end of the valid log (a crash mid-write tears
  // exactly the tail), and everything after it is dropped.
  // Only the frame and the header are parsed here; the CRC covers the
  // whole body, so payload columns can stay encoded until their BAT
  // replays (keeping Open() cheap — the lazy restart's port must not
  // wait on a full-log decode).
  size_t pos = 0;
  size_t valid_end = 0;
  while (pos < buf.size()) {
    WalRecord header;
    size_t body_end = 0;
    if (!ReadRecordHeader(buf, &pos, &header, &body_end).ok()) break;
    Recovered rec;
    rec.lsn = header.lsn;
    rec.kind = header.kind;
    rec.name = std::move(header.name);
    rec.expected_rows = header.expected_rows;
    rec.payload_pos = pos;
    rec.payload_end = body_end;
    pos = valid_end = body_end;
    wal->next_lsn_ = std::max(wal->next_lsn_, rec.lsn + 1);
    wal->index_[rec.name].push_back(wal->recovered_.size());
    wal->recovered_.push_back(std::move(rec));
  }
  wal->replayed_.assign(wal->recovered_.size(), false);
  wal->stats_.recovered_records = wal->recovered_.size();
  wal->stats_.truncated_bytes = buf.size() - valid_end;
  buf.resize(valid_end);
  wal->raw_ = std::move(buf);
  if (wal->stats_.truncated_bytes > 0) {
    // Repair: drop the damaged tail so future appends start from a
    // clean record boundary.
    if (::ftruncate(wal->fd_, static_cast<off_t>(valid_end)) != 0) {
      return base::Status::IoError("cannot truncate damaged WAL tail");
    }
  }
  if (::lseek(wal->fd_, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    return base::Status::IoError("cannot seek WAL");
  }
  wal->written_lsn_ = wal->synced_lsn_ = wal->next_lsn_ - 1;
  return wal;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

base::Result<uint64_t> Wal::Append(uint8_t kind, const std::string& name,
                                   uint64_t expected_rows,
                                   const Column& payload) {
  WalRecord rec;
  rec.kind = kind;
  rec.name = name;
  rec.expected_rows = expected_rows;
  rec.payload = payload;

  std::lock_guard<std::mutex> lock(mu_);
  rec.lsn = next_lsn_++;
  std::vector<uint8_t> bytes;
  EncodeWalRecord(rec, &bytes);
  size_t to_write = bytes.size();
  if (fi_ != nullptr) to_write = fi_->BeforeRecordWrite(&bytes);
  const uint8_t* p = bytes.data();
  size_t n = std::min(to_write, bytes.size());
  while (n > 0) {
    ssize_t w = ::write(fd_, p, n);
    if (w <= 0) return base::Status::IoError("WAL write failed");
    p += w;
    n -= static_cast<size_t>(w);
  }
  if (to_write < bytes.size()) {
    // Injected torn write: the tail of this record never reached the
    // file, exactly as if the process died mid-write.
    return base::Status::IoError("injected torn WAL write");
  }
  written_lsn_ = rec.lsn;
  ++stats_.appends;
  return rec.lsn;
}

base::Status Wal::Sync(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  while (synced_lsn_ < lsn) {
    if (!sync_in_progress_) {
      // Leader: sync everything written so far on behalf of every
      // waiter that arrived in the meantime (group commit).
      sync_in_progress_ = true;
      uint64_t target = written_lsn_;
      bool allow = fi_ == nullptr || fi_->BeforeSync();
      lock.unlock();
      int rc = allow ? ::fsync(fd_) : -1;
      lock.lock();
      sync_in_progress_ = false;
      if (rc == 0) synced_lsn_ = std::max(synced_lsn_, target);
      sync_cv_.notify_all();
      if (rc != 0) {
        return base::Status::IoError(allow ? "WAL fsync failed"
                                           : "injected WAL fsync failure");
      }
    } else {
      sync_cv_.wait(lock);
    }
  }
  return base::Status::Ok();
}

std::vector<std::string> Wal::PendingNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, recs] : index_) {
    for (size_t r : recs) {
      if (!replayed_[r]) {
        names.push_back(name);
        break;
      }
    }
  }
  return names;
}

bool Wal::HasPending(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  if (it == index_.end()) return false;
  for (size_t r : it->second) {
    if (!replayed_[r]) return true;
  }
  return false;
}

base::Status Wal::ReplayInto(Catalog* catalog, const std::string& name) {
  // Snapshot the record positions under the lock, then apply without it
  // (catalog mutation takes the catalog's own locks; replay of distinct
  // names is serialized by the recovery layer above).
  std::vector<size_t> todo;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(name);
    if (it == index_.end()) return base::Status::Ok();
    for (size_t r : it->second) {
      if (!replayed_[r]) todo.push_back(r);
    }
  }
  for (size_t r : todo) {
    const Recovered& rec = recovered_[r];
    // The payload stayed encoded since Open(); its CRC was verified
    // there, so this decode only pays for the slice actually replayed.
    size_t ppos = rec.payload_pos;
    auto payload = DecodeColumn(raw_, &ppos);
    if (!payload.ok()) return payload.status();
    if (ppos != rec.payload_end) {
      return base::Status::ParseError("WAL record trailing bytes");
    }
    if (rec.kind == kWalAppend) {
      auto domain = catalog->AppendDomainRows(rec.name);
      if (!domain.ok()) return domain.status();
      // The domain stamp makes duplicate replay a no-op: a record
      // already folded into the checkpoint (crash between checkpoint
      // and log reset) finds a larger domain and is skipped.
      if (domain.value() == rec.expected_rows) {
        MIRROR_RETURN_IF_ERROR(catalog->Append(rec.name, payload.value()));
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.replayed_records;
      }
    } else {
      if (payload.value().type() != ValueType::kOid) {
        return base::Status::ParseError("WAL delete payload is not oids");
      }
      const auto oids = payload.value().oids();
      auto deleted = catalog->DeleteRows(rec.name, {oids.begin(), oids.end()});
      if (!deleted.ok()) return deleted.status();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.replayed_records;
    }
    std::lock_guard<std::mutex> lock(mu_);
    replayed_[r] = true;
  }
  return base::Status::Ok();
}

base::Status Wal::ReplayAllInto(Catalog* catalog) {
  for (const std::string& name : PendingNames()) {
    MIRROR_RETURN_IF_ERROR(ReplayInto(catalog, name));
  }
  return base::Status::Ok();
}

base::Status Wal::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    return base::Status::IoError("cannot reset WAL");
  }
  if (::fsync(fd_) != 0) {
    return base::Status::IoError("cannot sync WAL reset");
  }
  raw_.clear();
  raw_.shrink_to_fit();
  recovered_.clear();
  replayed_.clear();
  index_.clear();
  return base::Status::Ok();
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

}  // namespace mirror::monet
