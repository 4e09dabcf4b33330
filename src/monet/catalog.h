#ifndef MIRROR_MONET_CATALOG_H_
#define MIRROR_MONET_CATALOG_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "monet/bat.h"
#include "monet/zone_map.h"

namespace mirror::monet {

using BatPtr = std::shared_ptr<const Bat>;

class Catalog;

/// One shard's slice of a named BAT's oid domain: the half-open oid range
/// [begin, end). Shard ranges of one name are contiguous, ascending and
/// cover the whole domain, so fragments concatenated in shard order
/// reproduce the unsharded BAT exactly.
struct ShardRange {
  Oid begin = 0;
  Oid end = 0;

  size_t size() const { return static_cast<size_t>(end - begin); }
  bool operator==(const ShardRange& other) const {
    return begin == other.begin && end == other.end;
  }
};

/// An oid-range partitioning of a Catalog: the physical layout behind the
/// shard-parallel execution path. Every *void-headed* named BAT (a dense
/// oid domain — what the Moa flattener registers for every atomic field
/// and postings column) is split row-wise into N contiguous fragments,
/// each registered under the same name in a shard-local Catalog whose
/// void bases preserve the global oids. Non-void-headed BATs (value-keyed
/// dimensions) stay unsharded in the base catalog and execute as
/// replicated ("broadcast") inputs.
///
/// A ShardedCatalog never owns the only copy of the data: the base
/// catalog keeps the full BATs, so unsharded engines (and the fan-in path
/// of the shard engine, which reads whole BATs) are unaffected.
class ShardedCatalog {
 public:
  size_t num_shards() const { return shards_.size(); }

  /// Shard-local catalog i: fragment BATs registered under their global
  /// names. Valid for the lifetime of this ShardedCatalog.
  const Catalog& shard(size_t i) const { return *shards_[i]; }

  /// The shard ranges of a sharded name; nullptr when the name is not
  /// sharded (unknown, or registered with a non-void head). The returned
  /// vector has exactly num_shards() entries (empty shards have
  /// zero-width ranges).
  const std::vector<ShardRange>* RangesFor(const std::string& name) const;

  bool IsSharded(const std::string& name) const {
    return RangesFor(name) != nullptr;
  }

  /// Names sharded in this layout, sorted (diagnostics/tests).
  std::vector<std::string> ShardedNames() const;

 private:
  friend class Catalog;
  std::vector<std::unique_ptr<Catalog>> shards_;
  /// name -> per-shard oid ranges. Range vectors are shared_ptr so
  /// engine register shapes can alias them cheaply while classifying
  /// domain compatibility.
  std::map<std::string, std::shared_ptr<const std::vector<ShardRange>>>
      ranges_;
  /// name -> the visible BAT its fragments slice. The next layout of the
  /// same catalog shares the fragments of every name whose visible BAT
  /// is still this one.
  std::map<std::string, BatPtr> sources_;
  /// The base catalog's generation this layout describes.
  uint64_t generation_ = 0;
};

/// Named-BAT registry: the physical schema of a Mirror database instance.
/// The Moa flattener maps every atomic leaf of a logical schema to a named
/// BAT here (e.g. `TraditionalImgLib.source`), and MIL programs address
/// BATs by name. Supports binary persistence of the whole catalog.
///
/// Entries carry MonetDB-style delta layers: an immutable base BAT plus
/// insert chunks (Append) and a delete set (DeleteRows). Readers always
/// see a consistent *visible snapshot* — Get() returns the base pointer
/// itself while no deltas exist (zero-copy), and a lazily merged BAT
/// otherwise — so the read kernels never learn about mutation. Every
/// mutation bumps `generation()` and invalidates the mutated entry's
/// merged snapshot. The derived caches (shard layouts, zone maps) are
/// stamped with the generation they describe; the first use after a
/// mutation rebuilds them per BAT: entries whose visible BAT is unchanged
/// share their zone maps and shard fragments with the previous cache, and
/// only the new ones are built, in parallel on the shared worker pool.
///
/// Thread safety: reads (Get/Contains/Names/Shards/Zones/SaveTo) may run
/// concurrently with each other AND with mutations; mutations serialize
/// against everything through an internal reader/writer lock. BatPtrs
/// returned by Get() are immutable snapshots and stay valid forever.
/// Raw pointers returned by Shards()/Zones()/ZonesFor() are only valid
/// until the next mutation — engines that overlap mutations must pin the
/// caches via SharedShards()/PinZones() instead.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  // Moves transfer the BATs but not the cached shard layouts (they are
  // rebuilt on demand); the mutex members rule out defaulted moves.
  Catalog(Catalog&& other) noexcept : bats_(std::move(other.bats_)) {}
  Catalog& operator=(Catalog&& other) noexcept {
    if (this != &other) {
      std::unique_lock<std::shared_mutex> lock(mu_);
      bats_ = std::move(other.bats_);
      generation_.fetch_add(1, std::memory_order_release);
      DropDerivedCaches();
    }
    return *this;
  }

  /// Registers a new BAT under `name`; fails if the name is taken.
  base::Status Register(const std::string& name, Bat bat);

  /// Registers or replaces (replacing discards any delta layers).
  void Put(const std::string& name, Bat bat);

  /// The visible snapshot of a named BAT: the registered base when no
  /// deltas exist, otherwise base + insert chunks − delete set, merged
  /// lazily once per generation. The returned BAT is immutable and the
  /// pointer stays valid across later mutations (readers keep their
  /// snapshot; new Get() calls see the new one).
  base::Result<BatPtr> Get(const std::string& name) const;

  bool Contains(const std::string& name) const;

  base::Status Drop(const std::string& name);

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return bats_.size();
  }

  // -- Delta-layer mutation (the daemon's APPEND/DELETE write path). ----

  /// Appends `values` as a new insert chunk of `name`. The entry must be
  /// dense (void-headed, the flattener's layout) with a non-void tail of
  /// the same type as `values`; the new rows continue the dense oid
  /// sequence, so oids are never reused. O(1) — the merge into a visible
  /// snapshot is deferred to the next Get().
  base::Status Append(const std::string& name, Column values);

  /// Marks oids of `name` as deleted; every oid must lie in the entry's
  /// current oid domain (validated atomically — an out-of-domain oid
  /// rejects the whole batch). Already-deleted oids are ignored, which
  /// makes WAL replay of delete records idempotent. Returns how many oids
  /// were newly deleted. A BAT with deletions materializes a non-void
  /// head in its visible snapshot (and is replicated, not sharded).
  base::Result<size_t> DeleteRows(const std::string& name,
                                  const std::vector<Oid>& oids);

  /// Monotone mutation counter: bumped by every Register/Put/Drop/
  /// Append/DeleteRows/LoadFrom. Derived caches are stamped with it so a
  /// racing builder can never publish statistics for replaced data.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Rows in the append domain of `name`: base rows + inserted rows,
  /// NOT excluding deletions (deleted oids stay allocated). This is the
  /// oid the next appended row will take, and the idempotence stamp the
  /// WAL stores with each append record.
  base::Result<size_t> AppendDomainRows(const std::string& name) const;

  /// Rows in the visible snapshot of `name` (append domain − deletions).
  base::Result<size_t> VisibleRows(const std::string& name) const;

  /// True when `name` currently carries insert chunks or deletions
  /// (diagnostics/tests).
  bool HasDeltas(const std::string& name) const;

  // -- Persistence. -----------------------------------------------------

  /// Persists every BAT's *visible snapshot* plus a manifest into `dir`
  /// (created if needed). Atomic against crashes: data files are written
  /// under a fresh epoch prefix and fsynced, then the manifest is
  /// published with a single rename(), so a reader (or a restart) either
  /// sees the complete previous catalog or the complete new one — never
  /// a torn mix. Stale files from previous epochs are cleaned up best-
  /// effort after publication.
  base::Status SaveTo(const std::string& dir) const;

  /// Loads a catalog persisted by SaveTo; replaces current contents.
  base::Status LoadFrom(const std::string& dir);

  /// Loads one checkpoint data file (as written by SaveTo) into the
  /// catalog under `name`, replacing any existing entry — the on-demand
  /// single-fragment load behind MM-DIRECT-style instant recovery.
  base::Status LoadBatFile(const std::string& path, const std::string& name);

  // -- Derived caches (shard layouts, zone maps). -----------------------

  /// The n-way oid-range sharding of this catalog's visible snapshot,
  /// built on first use and cached per shard count (a 2-way and a 4-way
  /// layout can coexist). Returns nullptr for n < 2. After a mutation the
  /// next call builds a new layout that shares the previous one's
  /// fragments (and their shard-local zone maps) for every unchanged
  /// BAT; the returned shared_ptr keeps a layout alive for callers that
  /// obtained it before a mutation (they compute a stale-but-consistent
  /// answer only if they also hold the matching stale BatPtrs — the
  /// engine pins both together at Run() start).
  std::shared_ptr<const ShardedCatalog> SharedShards(size_t n) const;

  /// SharedShards() without the pin: the raw pointer is valid until the
  /// next mutation (single-writer phases, tests, benches).
  const ShardedCatalog* Shards(size_t n) const;

  /// Zone-map statistics of every visible BAT, one immutable snapshot
  /// per generation. ForBat resolves statistics of a BAT the engine
  /// holds by pointer; lookups of BATs this snapshot does not hold miss
  /// (by design: stale bounds never prune fresh data, and vice versa).
  /// A BAT unchanged across generations keeps one shared BatZones.
  struct ZoneCache {
    struct Zoned {
      BatPtr bat;  // held, so no other BAT can reuse its address
      std::shared_ptr<const BatZones> zones;
    };
    uint64_t generation = 0;  // the catalog generation it describes
    std::map<std::string, Zoned> by_name;
    /// Keys are the visible BATs' addresses.
    std::map<const Bat*, const BatZones*> by_ptr;

    const BatZones* ForName(const std::string& name) const {
      auto it = by_name.find(name);
      return it == by_name.end() ? nullptr : it->second.zones.get();
    }
    const BatZones* ForBat(const Bat* bat) const {
      auto it = by_ptr.find(bat);
      return it == by_ptr.end() ? nullptr : it->second;
    }
  };
  using ZoneSnapshot = std::shared_ptr<const ZoneCache>;

  /// The current generation's zone-map snapshot, built on first use. The
  /// engine pins one at Run() start so its raw BatZones pointers outlive
  /// any concurrent mutation.
  ZoneSnapshot PinZones() const;

  /// Zone maps of a named BAT / of a BAT held by pointer, from the
  /// current snapshot. nullptr when unknown. The raw pointer is valid
  /// until the next mutation; concurrent-writer paths use PinZones().
  const BatZones* Zones(const std::string& name) const;
  const BatZones* ZonesFor(const Bat* bat) const;

  /// Builds (and caches) zone maps for every registered BAT whose maps
  /// are not already current. Called eagerly at load time so queries
  /// never pay the scan.
  void EnsureZones() const;

 private:
  /// One named entry: immutable base + delta layers + the lazily merged
  /// visible snapshot (cache only — rebuilt from base/ins/dels on
  /// demand, guarded by shard_mu_ among readers).
  struct Entry {
    BatPtr base;
    std::vector<Column> ins;  // insert chunks, appended in order
    std::vector<Oid> dels;    // sorted, deduplicated
    size_t ins_rows = 0;
    mutable BatPtr merged;

    bool has_deltas() const { return !ins.empty() || !dels.empty(); }
  };

  /// The visible snapshot of an entry; builds and caches the merged BAT
  /// under shard_mu_. Caller holds mu_ (shared suffices).
  BatPtr Visible(const Entry& e) const;
  static Bat BuildMerged(const Entry& e);

  /// Reads and decodes one SaveTo data file (magic-prefixed EncodeBat).
  static base::Result<Bat> ReadBatFile(const std::string& path);

  /// Registers `bat` under `name` as is (shard fragments, shared between
  /// layouts). Only for catalogs no other thread sees yet.
  void PutShared(const std::string& name, BatPtr bat);

  /// Seeds this (unpublished) catalog's zone maps with `prev`'s current
  /// snapshot, marked stale so the first PinZones rebuilds per BAT.
  void SeedZones(const Catalog& prev);

  /// Releases the derived caches outright: for whole-catalog
  /// replacement (LoadFrom, move assignment), which leaves no entry to
  /// carry over. Single-entry mutations keep them as the seed of the
  /// next per-BAT rebuild.
  void DropDerivedCaches() const;

  std::map<std::string, Entry> bats_;
  /// Guards bats_: shared for reads, exclusive for mutation. Lock order
  /// is mu_ before shard_mu_ wherever both are held.
  mutable std::shared_mutex mu_;
  std::atomic<uint64_t> generation_{0};
  /// Lazily built derived caches (shard layouts keyed by shard count,
  /// zone-map statistics), guarded by one mutex; mutable so a const-held
  /// catalog (the execution engines' view) can build them. Each is
  /// current only while its generation stamp matches generation_;
  /// otherwise it seeds the next rebuild.
  mutable std::mutex shard_mu_;
  mutable std::map<size_t, std::shared_ptr<const ShardedCatalog>>
      shard_cache_;
  mutable ZoneSnapshot zone_cache_;
};

}  // namespace mirror::monet

#endif  // MIRROR_MONET_CATALOG_H_
