#ifndef MIRROR_MONET_RECYCLER_H_
#define MIRROR_MONET_RECYCLER_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "monet/candidate.h"
#include "monet/mil.h"

namespace mirror::monet {

/// Counters of one Recycler, snapshotted under its mutex.
struct RecyclerStats {
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t candidate_hits = 0;             // exact predicate matches
  uint64_t candidate_subsumption_hits = 0; // served as a pre-filter seed
  uint64_t candidate_misses = 0;
  uint64_t admissions_rejected = 0;  // inserts refused by the admission policy
  uint64_t evictions = 0;            // entries displaced to make room
  uint64_t invalidations = 0;        // generation fences taken
  uint64_t bytes_held = 0;           // total bytes of all live entries
  uint64_t result_entries = 0;
  uint64_t candidate_entries = 0;
};

/// A single-column selection normalized to a keep-interval in double
/// space: the canonical form the recycler matches predicates in. Only
/// finite numeric bounds that round-trip exactly through double are
/// representable — the select kernels order int/dbl columns in double
/// space, so interval containment in that space is sound iff no two
/// distinct literals can collapse onto one double (see FromInstr).
struct SelectPredicate {
  std::string bat;  // the base BAT the selection scans (kLoadNamed name)
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_incl = true;
  bool hi_incl = true;

  /// Normalizes a select instruction over the named base BAT. False when
  /// the instruction is not an interval selection (kSelectNeq, string
  /// bounds, ints that do not round-trip through double, dbls at or past
  /// 2^53) — such selects bypass the recycler.
  static bool FromInstr(const mil::Instr& instr, std::string load_name,
                        SelectPredicate* out);

  /// True when every value satisfying this predicate also satisfies
  /// `wider` (same BAT): this interval is contained in the wider one, so
  /// the wider predicate's cached candidates are a sound pre-filter.
  bool SubsumedBy(const SelectPredicate& wider) const;

  /// Exact-match key of the interval (bat name excluded — entries are
  /// bucketed per BAT).
  std::string IntervalKey() const;
};

/// The recycler: a server-wide, generation-fenced cache of finished work,
/// shared by every session executing against one MirrorDb (the MonetDB
/// "recycling" direction). Two sections under one memory budget:
///
///  - results: already-encoded RESULT reply bytes keyed by the daemon's
///    coalescing key (normalized query text + bindings), so a hot query
///    executes once per data version and later arrivals are answered
///    straight from the poll loop;
///  - candidates: CandidateLists keyed by normalized single-column select
///    predicates over base BATs, held packed (PackedCandidates: a bitmap
///    or a position vector, whichever is smaller) and charged to the
///    budget at their packed size. An exact match replays the list; a
///    *subsuming* cached predicate (its interval contains the query's)
///    seeds the narrower select as a pre-filter domain for the existing
///    candidate-aware kernels. Lookups decode outside the mutex, so a
///    large decode never stalls a concurrent LookupResult.
///
/// Generation fencing: every entry belongs to the generation it was
/// computed in. A catalog mutation calls Fence() BEFORE applying (drops
/// every entry computed against the old contents and advances the
/// generation, so in-flight executions that started earlier can no
/// longer insert) and again AFTER applying (executions that straddled
/// the apply window — and may have read half-old, half-new data — are
/// fenced out too). Lookups and inserts carry the generation their
/// execution captured at query start and miss / are refused on mismatch,
/// so no interleaving of concurrent queries and writers can publish or
/// serve a stale entry.
///
/// Results are admitted on their key's second request (a doorkeeper, as
/// in TinyLFU): LookupResult counts each request once in a popularity
/// table keyed by 64-bit hashes. Candidates admit on first sighting,
/// since a cached interval also serves narrower predicates.
///
/// Admission is cost x frequency under the byte budget: an insert whose
/// popularity-weighted cost cannot displace enough colder entries (LRU
/// order among entries with lower scores) is rejected rather than
/// thrashing the cache. Frequencies survive fences — a hot query is
/// still hot in the next data version.
///
/// All methods are thread-safe.
class Recycler {
 public:
  static constexpr uint64_t kDefaultBudgetBytes = 64ull << 20;

  explicit Recycler(uint64_t budget_bytes = kDefaultBudgetBytes)
      : budget_bytes_(budget_bytes) {}
  Recycler(const Recycler&) = delete;
  Recycler& operator=(const Recycler&) = delete;

  /// Generation current entries are valid for. Capture once at query
  /// start, pass to every Lookup/Insert of that execution.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Drops every entry and advances the generation (see class comment:
  /// call once before and once after applying a catalog mutation).
  /// Returns the new generation.
  uint64_t Fence();

  // -- Result section. ----------------------------------------------------

  /// The cached encoded reply for `key`, or null. Misses when `gen` is
  /// not the current generation (the caller's execution context is
  /// stale).
  std::shared_ptr<const std::vector<uint8_t>> LookupResult(
      uint64_t gen, const std::string& key);

  /// LookupResult without its counting: no hit, no miss, no popularity.
  /// For a second look at a request LookupResult already counted once.
  std::shared_ptr<const std::vector<uint8_t>> PeekResult(
      uint64_t gen, const std::string& key) const;

  /// Offers a computed reply for admission. `cost_micros` is the
  /// execution time the cache saves per future hit. Refused silently
  /// when `gen` is stale or `key` was not requested (LookupResult) at
  /// least twice; counted as admissions_rejected when the budget refuses.
  void InsertResult(uint64_t gen, const std::string& key,
                    std::shared_ptr<const std::vector<uint8_t>> payload,
                    uint64_t cost_micros);

  // -- Candidate section. -------------------------------------------------

  /// The cached candidate list for `pred`, freshly decoded: an exact
  /// interval match (*subsumed = false), else the smallest cached
  /// interval containing it (*subsumed = true — use as a pre-filter
  /// domain, not the answer), else nullopt.
  std::optional<CandidateList> LookupCandidates(
      uint64_t gen, const SelectPredicate& pred, bool* subsumed);

  /// Offers a computed candidate list for admission under `pred`; the
  /// list is packed before the mutex is taken.
  void InsertCandidates(uint64_t gen, const SelectPredicate& pred,
                        const CandidateList& list, uint64_t cost_micros);

  void set_budget_bytes(uint64_t budget);
  uint64_t budget_bytes() const;

  RecyclerStats stats() const;

 private:
  struct Entry {
    // Exactly one of `payload` / `cands` is set.
    std::shared_ptr<const std::vector<uint8_t>> payload;
    std::shared_ptr<const PackedCandidates> cands;
    SelectPredicate pred;  // candidate entries only
    uint64_t bytes = 0;
    uint64_t cost_micros = 0;
    uint64_t freq = 1;
    uint64_t last_used = 0;

    uint64_t score() const { return (cost_micros + 1) * freq; }
  };

  /// Bumps and returns the frequency count of `key` (kept across fences;
  /// reset wholesale when the table outgrows its cap).
  uint64_t TouchFreq(uint64_t key);

  /// Evicts lower-score entries (coldest first) until `need` bytes fit in
  /// the budget; false (nothing changed beyond evictions) when entries
  /// with score >= `incoming_score` would have to go.
  bool MakeRoom(uint64_t need, uint64_t incoming_score);

  /// LookupCandidates' part under `mu_` (held by the caller): the
  /// matching packed entry, counted and touched, or null.
  std::shared_ptr<const PackedCandidates> FindCandidates(
      uint64_t gen, const SelectPredicate& pred, bool* subsumed);

  void EraseResult(const std::string& key);
  void EraseCandidate(const std::string& bat, const std::string& ikey);

  mutable std::mutex mu_;
  std::atomic<uint64_t> generation_{0};
  uint64_t budget_bytes_;
  uint64_t clock_ = 0;  // LRU stamp source
  uint64_t bytes_held_ = 0;
  std::unordered_map<std::string, Entry> results_;
  /// bat name -> interval key -> entry. The per-BAT bucket is scanned for
  /// subsumption (buckets stay small: one per distinct predicate shape).
  std::unordered_map<std::string, std::unordered_map<std::string, Entry>>
      cands_;
  /// Popularity counts by 64-bit key hash (ResultFreqKey and
  /// CandidateFreqKey in recycler.cc), at most 8192 keys.
  std::unordered_map<uint64_t, uint64_t> freq_;
  RecyclerStats stats_;
};

}  // namespace mirror::monet

#endif  // MIRROR_MONET_RECYCLER_H_
