#include "monet/catalog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "base/str_util.h"
#include "monet/bat_io.h"
#include "monet/worker_pool.h"

namespace mirror::monet {

namespace {

constexpr char kMagic[8] = {'M', 'B', 'A', 'T', '0', '0', '2', '\n'};

// The on-disk column layout IS the wire layout: both delegate to
// monet/bat_io.h, so persistence and the daemon's result frames cannot
// drift apart.

}  // namespace

base::Status Catalog::Register(const std::string& name, Bat bat) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (bats_.count(name) > 0) {
    return base::Status::AlreadyExists("BAT already registered: " + name);
  }
  Entry e;
  e.base = std::make_shared<const Bat>(std::move(bat));
  bats_.emplace(name, std::move(e));
  generation_.fetch_add(1, std::memory_order_release);
  return base::Status::Ok();
}

void Catalog::Put(const std::string& name, Bat bat) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry e;
  e.base = std::make_shared<const Bat>(std::move(bat));
  bats_[name] = std::move(e);
  generation_.fetch_add(1, std::memory_order_release);
}

base::Result<BatPtr> Catalog::Get(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = bats_.find(name);
  if (it == bats_.end()) {
    return base::Status::NotFound("no BAT named: " + name);
  }
  return Visible(it->second);
}

bool Catalog::Contains(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return bats_.count(name) > 0;
}

base::Status Catalog::Drop(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (bats_.erase(name) == 0) {
    return base::Status::NotFound("no BAT named: " + name);
  }
  generation_.fetch_add(1, std::memory_order_release);
  return base::Status::Ok();
}

std::vector<std::string> Catalog::Names() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(bats_.size());
  for (const auto& [name, entry] : bats_) names.push_back(name);
  return names;
}

// ---------------------------------------------------------------------------
// Delta layers.

base::Status Catalog::Append(const std::string& name, Column values) {
  if (values.type() == ValueType::kVoid) {
    return base::Status::InvalidArgument("cannot append a void chunk");
  }
  if (values.size() == 0) return base::Status::Ok();
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = bats_.find(name);
  if (it == bats_.end()) {
    return base::Status::NotFound("no BAT named: " + name);
  }
  Entry& e = it->second;
  if (!e.base->head().is_void()) {
    return base::Status::InvalidArgument(
        "append requires a dense (void-headed) BAT: " + name);
  }
  if (e.base->tail().type() == ValueType::kVoid) {
    return base::Status::InvalidArgument(
        "append to a void-tailed BAT would break its density: " + name);
  }
  if (values.type() != e.base->tail().type()) {
    return base::Status::TypeError(
        base::StrFormat("append type mismatch on %s", name.c_str()));
  }
  e.ins_rows += values.size();
  e.ins.push_back(std::move(values));
  e.merged.reset();
  generation_.fetch_add(1, std::memory_order_release);
  return base::Status::Ok();
}

base::Result<size_t> Catalog::DeleteRows(const std::string& name,
                                         const std::vector<Oid>& oids) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = bats_.find(name);
  if (it == bats_.end()) {
    return base::Status::NotFound("no BAT named: " + name);
  }
  Entry& e = it->second;
  if (!e.base->head().is_void()) {
    return base::Status::InvalidArgument(
        "delete requires a dense (void-headed) BAT: " + name);
  }
  Oid lo = e.base->head().void_base();
  Oid hi = lo + e.base->size() + e.ins_rows;
  // Validate-all-then-apply: a bad oid must not half-apply the batch.
  for (Oid oid : oids) {
    if (oid < lo || oid >= hi) {
      return base::Status::OutOfRange(
          base::StrFormat("oid %llu outside domain [%llu, %llu) of %s",
                          static_cast<unsigned long long>(oid),
                          static_cast<unsigned long long>(lo),
                          static_cast<unsigned long long>(hi), name.c_str()));
    }
  }
  std::vector<Oid> batch(oids);
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  std::vector<Oid> merged;
  merged.reserve(e.dels.size() + batch.size());
  std::set_union(e.dels.begin(), e.dels.end(), batch.begin(), batch.end(),
                 std::back_inserter(merged));
  size_t newly = merged.size() - e.dels.size();
  if (newly == 0) return newly;
  e.dels = std::move(merged);
  e.merged.reset();
  generation_.fetch_add(1, std::memory_order_release);
  return newly;
}

base::Result<size_t> Catalog::AppendDomainRows(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = bats_.find(name);
  if (it == bats_.end()) {
    return base::Status::NotFound("no BAT named: " + name);
  }
  return it->second.base->size() + it->second.ins_rows;
}

base::Result<size_t> Catalog::VisibleRows(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = bats_.find(name);
  if (it == bats_.end()) {
    return base::Status::NotFound("no BAT named: " + name);
  }
  const Entry& e = it->second;
  return e.base->size() + e.ins_rows - e.dels.size();
}

bool Catalog::HasDeltas(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = bats_.find(name);
  return it != bats_.end() && it->second.has_deltas();
}

namespace {

/// Value of logical row `row` across base tail + insert chunks (dense
/// row numbering: base rows first, then chunks in append order).
struct TailCursor {
  const Column* base;
  const std::vector<Column>* ins;

  const Column* ColumnOf(size_t row, size_t* local) const {
    if (row < base->size()) {
      *local = row;
      return base;
    }
    row -= base->size();
    for (const Column& c : *ins) {
      if (row < c.size()) {
        *local = row;
        return &c;
      }
      row -= c.size();
    }
    MIRROR_UNREACHABLE();
    return base;
  }
};

}  // namespace

Bat Catalog::BuildMerged(const Entry& e) {
  const Column& bt = e.base->tail();
  size_t base_rows = e.base->size();
  size_t total = base_rows + e.ins_rows;
  Oid vb = e.base->head().void_base();

  // Surviving logical rows (all of them when nothing was deleted).
  std::vector<size_t> keep;
  if (!e.dels.empty()) {
    keep.reserve(total - e.dels.size());
    for (size_t row = 0; row < total; ++row) {
      Oid oid = vb + row;
      if (!std::binary_search(e.dels.begin(), e.dels.end(), oid)) {
        keep.push_back(row);
      }
    }
  }
  size_t out_rows = e.dels.empty() ? total : keep.size();
  auto row_at = [&](size_t i) { return e.dels.empty() ? i : keep[i]; };

  // Head: still dense without deletions; materialized oids with holes
  // otherwise (such BATs replicate instead of sharding — value-keyed).
  Column head = Column::MakeVoid(vb, total);
  if (!e.dels.empty()) {
    std::vector<Oid> oids;
    oids.reserve(out_rows);
    for (size_t i = 0; i < out_rows; ++i) oids.push_back(vb + row_at(i));
    head = Column::MakeOids(std::move(oids));
  }

  TailCursor cur{&bt, &e.ins};
  size_t local = 0;
  switch (bt.type()) {
    case ValueType::kInt: {
      std::vector<int64_t> v;
      v.reserve(out_rows);
      for (size_t i = 0; i < out_rows; ++i) {
        v.push_back(cur.ColumnOf(row_at(i), &local)->IntAt(local));
      }
      return Bat(std::move(head), Column::MakeInts(std::move(v)));
    }
    case ValueType::kDbl: {
      std::vector<double> v;
      v.reserve(out_rows);
      for (size_t i = 0; i < out_rows; ++i) {
        v.push_back(cur.ColumnOf(row_at(i), &local)->DblAt(local));
      }
      return Bat(std::move(head), Column::MakeDbls(std::move(v)));
    }
    case ValueType::kOid: {
      std::vector<Oid> v;
      v.reserve(out_rows);
      for (size_t i = 0; i < out_rows; ++i) {
        v.push_back(cur.ColumnOf(row_at(i), &local)->OidAt(local));
      }
      return Bat(std::move(head), Column::MakeOids(std::move(v)));
    }
    case ValueType::kStr: {
      // Chunks arrive with private heaps (wire decode). The merged heap
      // is a copy of the base heap with only the chunk rows interned into
      // it: base rows keep their offsets, and equal spellings keep equal
      // offsets, the invariant the kernels rely on. The base heap itself
      // is never touched, since pinned snapshots share it with readers.
      size_t bytes = 0;
      for (const Column& c : e.ins) {
        for (size_t i = 0; i < c.size(); ++i) bytes += c.StrAt(i).size() + 1;
      }
      auto heap = std::make_shared<StringHeap>(*bt.heap());
      heap->Reserve(e.ins_rows, bytes);
      std::vector<uint32_t> offsets;
      offsets.reserve(out_rows);
      for (size_t i = 0; i < out_rows; ++i) {
        const Column* c = cur.ColumnOf(row_at(i), &local);
        offsets.push_back(c == &bt ? bt.StrOffsetAt(local)
                                   : heap->Intern(c->StrAt(local)));
      }
      heap->ShrinkToFit();
      return Bat(std::move(head),
                 Column::MakeStrsShared(std::move(heap), std::move(offsets)));
    }
    case ValueType::kVoid:
      break;  // rejected by Append; unreachable with deltas
  }
  MIRROR_UNREACHABLE();
  return Bat(Column::MakeVoid(0, 0), Column::MakeVoid(0, 0));
}

BatPtr Catalog::Visible(const Entry& e) const {
  if (!e.has_deltas()) return e.base;
  std::lock_guard<std::mutex> lock(shard_mu_);
  if (!e.merged) {
    e.merged = std::make_shared<const Bat>(BuildMerged(e));
  }
  return e.merged;
}

// ---------------------------------------------------------------------------
// Persistence.

namespace {

/// Writes `blob` (prefixed with the BAT magic) to `path` and fsyncs it:
/// a checkpoint file must be durable before the manifest names it.
base::Status WriteBatFile(const std::string& path,
                          const std::vector<uint8_t>& blob) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return base::Status::IoError("cannot write " + path);
  auto write_all = [&](const uint8_t* p, size_t n) {
    while (n > 0) {
      ssize_t w = ::write(fd, p, n);
      if (w <= 0) return false;
      p += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  };
  bool ok = write_all(reinterpret_cast<const uint8_t*>(kMagic),
                      sizeof(kMagic)) &&
            write_all(blob.data(), blob.size()) && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return base::Status::IoError("write failed: " + path);
  return base::Status::Ok();
}

base::Status WriteFileSynced(const std::string& path,
                             const std::string& contents) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return base::Status::IoError("cannot write " + path);
  const char* p = contents.data();
  size_t n = contents.size();
  bool ok = true;
  while (ok && n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w <= 0) {
      ok = false;
      break;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return base::Status::IoError("write failed: " + path);
  return base::Status::Ok();
}

void FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

base::Status Catalog::SaveTo(const std::string& dir) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return base::Status::IoError("cannot create dir: " + dir);

  // A fresh epoch per save keeps the previous catalog's files untouched
  // until the manifest rename publishes the new one.
  uint64_t epoch = 0;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    std::string f = de.path().filename().string();
    if (f.rfind("bat_e", 0) == 0) {
      epoch = std::max<uint64_t>(epoch,
                                 std::strtoull(f.c_str() + 5, nullptr, 10));
    }
  }
  ++epoch;

  std::string manifest;
  std::set<std::string> live_files;
  size_t index = 0;
  for (const auto& [name, entry] : bats_) {
    std::string file = base::StrFormat("bat_e%llu_%06zu.bin",
                                       static_cast<unsigned long long>(epoch),
                                       index++);
    manifest += name;
    manifest += '\t';
    manifest += file;
    manifest += '\n';
    live_files.insert(file);
    std::vector<uint8_t> blob;
    EncodeBat(*Visible(entry), &blob);
    MIRROR_RETURN_IF_ERROR(WriteBatFile(dir + "/" + file, blob));
  }

  // Publish atomically: write the manifest under a temp name, fsync it,
  // rename() over the live manifest (atomic on POSIX), fsync the
  // directory. A crash at any point leaves either the old or the new
  // catalog fully readable.
  std::string tmp = dir + "/manifest.txt.tmp";
  MIRROR_RETURN_IF_ERROR(WriteFileSynced(tmp, manifest));
  if (::rename(tmp.c_str(), (dir + "/manifest.txt").c_str()) != 0) {
    return base::Status::IoError("cannot publish manifest in " + dir);
  }
  FsyncDir(dir);

  // Previous epochs are now unreachable; reclaim them best-effort.
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    std::string f = de.path().filename().string();
    if (f.rfind("bat_", 0) == 0 && live_files.count(f) == 0) {
      std::filesystem::remove(de.path(), ec);
    }
  }
  return base::Status::Ok();
}

base::Status Catalog::LoadFrom(const std::string& dir) {
  std::ifstream manifest(dir + "/manifest.txt");
  if (!manifest) return base::Status::IoError("cannot read manifest in " + dir);
  std::map<std::string, Entry> loaded;
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return base::Status::ParseError("bad manifest line: " + line);
    }
    std::string name = line.substr(0, tab);
    std::string file = line.substr(tab + 1);
    auto bat = ReadBatFile(dir + "/" + file);
    if (!bat.ok()) return bat.status();
    Entry e;
    e.base = std::make_shared<const Bat>(bat.TakeValue());
    loaded.emplace(name, std::move(e));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  bats_ = std::move(loaded);
  generation_.fetch_add(1, std::memory_order_release);
  DropDerivedCaches();
  return base::Status::Ok();
}

base::Result<Bat> Catalog::ReadBatFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return base::Status::IoError("cannot open " + path);
  std::error_code size_ec;
  uintmax_t file_size = std::filesystem::file_size(path, size_ec);
  if (size_ec) return base::Status::IoError("cannot stat " + path);
  std::vector<uint8_t> blob(static_cast<size_t>(file_size));
  in.read(reinterpret_cast<char*>(blob.data()),
          static_cast<std::streamsize>(blob.size()));
  if (in.gcount() != static_cast<std::streamsize>(blob.size())) {
    return base::Status::IoError("short read in " + path);
  }
  if (blob.size() < sizeof(kMagic) ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return base::Status::ParseError("bad magic in " + path);
  }
  size_t pos = sizeof(kMagic);
  return DecodeBat(blob, &pos);
}

base::Status Catalog::LoadBatFile(const std::string& path,
                                  const std::string& name) {
  auto bat = ReadBatFile(path);
  if (!bat.ok()) return bat.status();
  Put(name, bat.TakeValue());
  return base::Status::Ok();
}

// ---------------------------------------------------------------------------
// Oid-range sharding.

const std::vector<ShardRange>* ShardedCatalog::RangesFor(
    const std::string& name) const {
  auto it = ranges_.find(name);
  return it == ranges_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ShardedCatalog::ShardedNames() const {
  std::vector<std::string> names;
  names.reserve(ranges_.size());
  for (const auto& [name, r] : ranges_) names.push_back(name);
  return names;
}

std::shared_ptr<const ShardedCatalog> Catalog::SharedShards(size_t n) const {
  if (n < 2) return nullptr;
  // Build-then-publish (the JoinBuild::LazyPublish discipline): slicing
  // under shard_mu_ would serialize concurrent sessions behind the
  // build — possibly for a shard count they don't even want. The visible
  // BATs are read under a shared bats_ lock (mutations excluded) and
  // stamped with the generation they belong to; publication re-checks
  // the stamp, so a layout of replaced data is thrown away and rebuilt,
  // never cached. Racing builders of one count may slice twice; the
  // first to publish wins.
  for (;;) {
    std::shared_ptr<const ShardedCatalog> prev;
    {
      std::lock_guard<std::mutex> lock(shard_mu_);
      auto cached = shard_cache_.find(n);
      if (cached != shard_cache_.end()) {
        if (cached->second->generation_ == generation()) return cached->second;
        prev = cached->second;
      }
    }

    auto layout = std::make_shared<ShardedCatalog>();
    layout->shards_.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      layout->shards_.push_back(std::make_unique<Catalog>());
    }
    // BATs still visible as the previous layout sliced them share its
    // fragments; the rest are sliced below.
    std::vector<std::pair<std::string, BatPtr>> fresh;
    {
      std::shared_lock<std::shared_mutex> rlock(mu_);
      layout->generation_ = generation();
      for (const auto& [name, entry] : bats_) {
        BatPtr bat = Visible(entry);
        // Only dense oid domains shard: a void head guarantees every oid
        // occurs exactly once, in order, so row slices are oid-range
        // fragments and rows of one group can never straddle shards.
        // Value-keyed BATs stay in the base catalog as replicated inputs.
        if (!bat->head().is_void()) continue;
        layout->sources_.emplace(name, bat);
        if (prev != nullptr) {
          auto old = prev->sources_.find(name);
          if (old != prev->sources_.end() && old->second == bat) {
            layout->ranges_.emplace(name, prev->ranges_.at(name));
            for (size_t s = 0; s < n; ++s) {
              layout->shards_[s]->PutShared(
                  name, prev->shards_[s]->bats_.at(name).base);
            }
            continue;
          }
        }
        fresh.emplace_back(name, std::move(bat));
      }
    }
    // Fragments are row-range views of the base BAT: a void head stays
    // void with its base shifted (fragment oids stay global), and every
    // other column shares the base buffer and string heap.
    for (const auto& [name, bat] : fresh) {
      auto ranges = std::make_shared<std::vector<ShardRange>>();
      ranges->reserve(n);
      for (size_t s = 0; s < n; ++s) {
        const size_t lo = bat->size() * s / n;
        const size_t count = bat->size() * (s + 1) / n - lo;
        auto fragment = std::make_shared<const Bat>(bat->View(lo, count));
        const Oid base = fragment->head().void_base();
        ranges->push_back(ShardRange{base, base + count});
        layout->shards_[s]->PutShared(name, std::move(fragment));
      }
      layout->ranges_.emplace(name, std::move(ranges));
    }
    // Each shard's zone maps start from the previous shard's: shared
    // fragments keep theirs, new ones build on first use.
    if (prev != nullptr) {
      for (size_t s = 0; s < n; ++s) {
        layout->shards_[s]->SeedZones(*prev->shards_[s]);
      }
    }

    std::lock_guard<std::mutex> lock(shard_mu_);
    if (generation() != layout->generation_) continue;
    auto& cached = shard_cache_[n];
    if (cached == nullptr || cached->generation_ != layout->generation_) {
      cached = std::move(layout);
    }
    return cached;
  }
}

const ShardedCatalog* Catalog::Shards(size_t n) const {
  return SharedShards(n).get();
}

void Catalog::PutShared(const std::string& name, BatPtr bat) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Entry e;
  e.base = std::move(bat);
  bats_[name] = std::move(e);
  generation_.fetch_add(1, std::memory_order_release);
}

void Catalog::SeedZones(const Catalog& prev) {
  ZoneSnapshot seed;
  {
    std::lock_guard<std::mutex> lock(prev.shard_mu_);
    seed = prev.zone_cache_;
  }
  if (seed == nullptr) return;
  std::lock_guard<std::mutex> lock(shard_mu_);
  // A seed is never current: lift the generation past its stamp so the
  // next PinZones rebuilds, sharing what still matches.
  if (generation() <= seed->generation) {
    generation_.store(seed->generation + 1, std::memory_order_release);
  }
  zone_cache_ = std::move(seed);
}

void Catalog::DropDerivedCaches() const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  shard_cache_.clear();
  zone_cache_.reset();
}

// ---------------------------------------------------------------------------
// Zone-map statistics.

Catalog::ZoneSnapshot Catalog::PinZones() const {
  // Same build-then-publish discipline as SharedShards(), including the
  // generation stamp that keeps a racing builder from publishing
  // statistics for replaced data, and the same per-BAT reuse: a BAT
  // whose visible snapshot is unchanged keeps its maps.
  for (;;) {
    ZoneSnapshot prev;
    {
      std::lock_guard<std::mutex> lock(shard_mu_);
      if (zone_cache_ != nullptr &&
          zone_cache_->generation == generation()) {
        return zone_cache_;
      }
      prev = zone_cache_;
    }

    auto cache = std::make_shared<ZoneCache>();
    std::vector<ZoneCache::Zoned*> fresh;
    {
      std::shared_lock<std::shared_mutex> rlock(mu_);
      cache->generation = generation();
      for (const auto& [name, entry] : bats_) {
        ZoneCache::Zoned& zoned = cache->by_name[name];
        zoned.bat = Visible(entry);
        if (prev != nullptr) {
          auto old = prev->by_name.find(name);
          if (old != prev->by_name.end() && old->second.bat == zoned.bat) {
            zoned.zones = old->second.zones;
            continue;
          }
        }
        fresh.push_back(&zoned);
      }
    }
    // One BAT at a time on this thread, each scanning block ranges in
    // parallel: the maps outlive the build, and allocated here they stay
    // out of the workers' malloc arenas, which then trim back to empty.
    for (ZoneCache::Zoned* zoned : fresh) {
      zoned->zones = std::make_shared<const BatZones>(
          BuildBatZones(*zoned->bat, kZoneBlockRows, &SharedWorkerPool()));
    }
    for (const auto& [name, zoned] : cache->by_name) {
      cache->by_ptr.emplace(zoned.bat.get(), zoned.zones.get());
    }

    std::lock_guard<std::mutex> lock(shard_mu_);
    if (generation() != cache->generation) continue;
    if (zone_cache_ == nullptr ||
        zone_cache_->generation != cache->generation) {
      zone_cache_ = std::move(cache);
    }
    return zone_cache_;
  }
}

const BatZones* Catalog::Zones(const std::string& name) const {
  return PinZones()->ForName(name);
}

const BatZones* Catalog::ZonesFor(const Bat* bat) const {
  return PinZones()->ForBat(bat);
}

void Catalog::EnsureZones() const { PinZones(); }

}  // namespace mirror::monet
