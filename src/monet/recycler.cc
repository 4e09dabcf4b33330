#include "monet/recycler.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <string_view>

namespace mirror::monet {

namespace {

/// Approximate resident bytes of one cached candidate list.
uint64_t CandidateBytes(const PackedCandidates& cands) {
  return 96 + cands.payload_bytes();  // + entry, key, bookkeeping overhead
}

constexpr size_t kMaxFreqEntries = 8192;

static_assert(sizeof(size_t) == 8, "popularity keys are 64-bit hashes");

/// Popularity-table keys: 64-bit hashes, so a request builds no string
/// and the table holds no query text. A collision merges two keys'
/// counts, which can change admission or score but never the bytes
/// served: results_ and cands_ keep full keys.
uint64_t ResultFreqKey(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

uint64_t CandidateFreqKey(std::string_view bat,
                          const SelectInterval& interval) {
  // A dbl interval hashes its bounds' bits, each plus 0.0: -0.0 + 0.0 is
  // +0.0, and both zeros bound the same rows.
  const bool dbl = interval.type == ValueType::kDbl;
  uint64_t h = std::hash<std::string_view>{}(bat);
  for (uint64_t x :
       {static_cast<uint64_t>(interval.type),
        dbl ? std::bit_cast<uint64_t>(interval.dlo + 0.0) : interval.lo,
        dbl ? std::bit_cast<uint64_t>(interval.dhi + 0.0) : interval.hi}) {
    // boost::hash_combine's mix.
    h ^= std::hash<uint64_t>{}(x) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

/// Whether two cacheable intervals of one BAT keep the same rows.
bool SameInterval(const SelectInterval& a, const SelectInterval& b) {
  return a.Contains(b) && b.Contains(a);
}

}  // namespace

// ---------------------------------------------------------------------------
// Recycler.

uint64_t Recycler::Fence() {
  std::lock_guard<std::mutex> lock(mu_);
  results_.clear();
  cands_.clear();
  bytes_held_ = 0;
  ++stats_.invalidations;
  stats_.result_entries = 0;
  stats_.candidate_entries = 0;
  stats_.bytes_held = 0;
  // Release so a reader that observes the new generation also observes
  // (at least) the cleared cache; the catalog mutation itself is ordered
  // by the caller's write path.
  return generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

uint64_t Recycler::TouchFreq(uint64_t key) {
  if (freq_.size() >= kMaxFreqEntries && freq_.find(key) == freq_.end()) {
    // Popularity table full: forget everything rather than pinning an
    // arbitrary old hot set forever. Live entries keep their own freq.
    freq_.clear();
  }
  return ++freq_[key];
}

bool Recycler::MakeRoom(uint64_t need, uint64_t incoming_score) {
  if (need > budget_bytes_) return false;
  if (bytes_held_ + need <= budget_bytes_) return true;
  // Victim order: lower score first, then least recently used. Only
  // entries strictly colder than the incoming one may be displaced.
  struct Victim {
    uint64_t score;
    uint64_t last_used;
    uint64_t bytes;
    bool is_result;
    std::string key;           // result key, or candidate bat name
    SelectInterval interval;   // candidate interval
  };
  std::vector<Victim> victims;
  for (const auto& [key, e] : results_) {
    victims.push_back({e.score(), e.last_used, e.bytes, true, key, {}});
  }
  for (const auto& [bat, bucket] : cands_) {
    for (const Entry& e : bucket) {
      victims.push_back(
          {e.score(), e.last_used, e.bytes, false, bat, e.interval});
    }
  }
  std::sort(victims.begin(), victims.end(), [](const Victim& a,
                                               const Victim& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.last_used < b.last_used;
  });
  uint64_t reclaimable = 0;
  size_t take = 0;
  while (take < victims.size() && bytes_held_ - reclaimable + need >
                                      budget_bytes_) {
    if (victims[take].score >= incoming_score) return false;
    reclaimable += victims[take].bytes;
    ++take;
  }
  if (bytes_held_ - reclaimable + need > budget_bytes_) return false;
  for (size_t i = 0; i < take; ++i) {
    if (victims[i].is_result) {
      EraseResult(victims[i].key);
    } else {
      EraseCandidate(victims[i].key, victims[i].interval);
    }
    ++stats_.evictions;
  }
  return true;
}

void Recycler::EraseResult(const std::string& key) {
  auto it = results_.find(key);
  if (it == results_.end()) return;
  bytes_held_ -= it->second.bytes;
  results_.erase(it);
}

void Recycler::EraseCandidate(const std::string& bat,
                              const SelectInterval& interval) {
  auto bucket = cands_.find(bat);
  if (bucket == cands_.end()) return;
  std::vector<Entry>& entries = bucket->second;
  for (size_t j = 0; j < entries.size(); ++j) {
    if (!SameInterval(entries[j].interval, interval)) continue;
    bytes_held_ -= entries[j].bytes;
    entries[j] = std::move(entries.back());
    entries.pop_back();
    break;
  }
  if (entries.empty()) cands_.erase(bucket);
}

std::shared_ptr<const std::vector<uint8_t>> Recycler::LookupResult(
    uint64_t gen, const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gen != generation_.load(std::memory_order_relaxed)) {
    ++stats_.result_misses;
    return nullptr;
  }
  auto it = results_.find(key);
  if (it == results_.end()) {
    ++stats_.result_misses;
    TouchFreq(ResultFreqKey(key));
    return nullptr;
  }
  Entry& e = it->second;
  e.freq = TouchFreq(ResultFreqKey(key));
  e.last_used = ++clock_;
  ++stats_.result_hits;
  return e.payload;
}

std::shared_ptr<const std::vector<uint8_t>> Recycler::PeekResult(
    uint64_t gen, const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (gen != generation_.load(std::memory_order_relaxed)) return nullptr;
  auto it = results_.find(key);
  return it == results_.end() ? nullptr : it->second.payload;
}

void Recycler::InsertResult(
    uint64_t gen, const std::string& key,
    std::shared_ptr<const std::vector<uint8_t>> payload,
    uint64_t cost_micros) {
  if (payload == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (gen != generation_.load(std::memory_order_relaxed)) return;
  // Second-request admission (the doorkeeper): a reply is cached only
  // when its key was requested before. Ad-hoc queries (fresh bindings on
  // every request) would otherwise fill the budget with entries that
  // never hit. The count is the key's popularity, one per request, kept
  // across fences. A refusal here is not counted as admissions_rejected,
  // which stays the budget's counter.
  auto f = freq_.find(ResultFreqKey(key));
  if (f == freq_.end() || f->second < 2) return;
  if (results_.find(key) != results_.end()) {
    // Another execution of the same query already published this
    // generation's bytes; keep the incumbent (both are valid).
    return;
  }
  Entry e;
  e.bytes = payload->size() + key.size() + 128;
  e.cost_micros = cost_micros;
  e.freq = f->second;
  e.last_used = ++clock_;
  if (!MakeRoom(e.bytes, e.score())) {
    ++stats_.admissions_rejected;
    return;
  }
  e.payload = std::move(payload);
  bytes_held_ += e.bytes;
  results_.emplace(key, std::move(e));
  stats_.result_entries = results_.size();
  stats_.bytes_held = bytes_held_;
}

std::optional<CandidateList> Recycler::LookupCandidates(
    uint64_t gen, const std::string& bat, const SelectInterval& interval,
    bool* subsumed) {
  *subsumed = false;
  if (!interval.cacheable()) return std::nullopt;
  std::shared_ptr<const PackedCandidates> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    found = FindCandidates(gen, bat, interval, subsumed);
  }
  // Decoding is the costly part (a bitmap over a 1M-row BAT expands to a
  // 4 MB vector); the pinned pointer keeps the entry's bytes alive even
  // if a fence or eviction drops it meanwhile.
  if (found == nullptr) return std::nullopt;
  return found->Unpack();
}

std::shared_ptr<const PackedCandidates> Recycler::FindCandidates(
    uint64_t gen, const std::string& bat, const SelectInterval& interval,
    bool* subsumed) {
  if (gen != generation_.load(std::memory_order_relaxed)) {
    ++stats_.candidate_misses;
    return nullptr;
  }
  const uint64_t fkey = CandidateFreqKey(bat, interval);
  auto bucket = cands_.find(bat);
  if (bucket != cands_.end()) {
    // An equal interval replays; else the smallest cached interval
    // containing the query's seeds it — the tightest pre-filter costs the
    // narrow select the fewest probes.
    Entry* best = nullptr;
    for (Entry& e : bucket->second) {
      if (!e.interval.Contains(interval)) continue;
      if (interval.Contains(e.interval)) {
        e.freq = TouchFreq(fkey);
        e.last_used = ++clock_;
        ++stats_.candidate_hits;
        return e.cands;
      }
      if (best == nullptr || e.cands->size() < best->cands->size()) {
        best = &e;
      }
    }
    if (best != nullptr) {
      best->freq = TouchFreq(CandidateFreqKey(bat, best->interval));
      best->last_used = ++clock_;
      ++stats_.candidate_subsumption_hits;
      *subsumed = true;
      TouchFreq(fkey);  // the narrow predicate is popular too
      return best->cands;
    }
  }
  ++stats_.candidate_misses;
  TouchFreq(fkey);
  return nullptr;
}

void Recycler::InsertCandidates(uint64_t gen, const std::string& bat,
                                const SelectInterval& interval,
                                const CandidateList& list,
                                uint64_t cost_micros) {
  // Stale or uncacheable: skip the packing too.
  if (gen != generation() || !interval.cacheable()) return;
  auto cands = std::make_shared<const PackedCandidates>(list.Pack());
  std::lock_guard<std::mutex> lock(mu_);
  if (gen != generation_.load(std::memory_order_relaxed)) return;
  auto bucket = cands_.find(bat);
  if (bucket != cands_.end()) {
    for (const Entry& e : bucket->second) {
      if (SameInterval(e.interval, interval)) return;  // incumbent wins
    }
  }
  // Candidates admit on first sighting, unlike results: a cached
  // interval also serves every narrower predicate on its BAT through
  // subsumption, so an entry's worth is not its own key's repeat count
  // (the e2e rank_mix workload, whose requests never repeat, draws ~0.97
  // candidate hits per query from such entries).
  Entry e;
  e.interval = interval;
  e.bytes = CandidateBytes(*cands);
  e.cost_micros = cost_micros;
  auto f = freq_.find(CandidateFreqKey(bat, interval));
  e.freq = f != freq_.end() ? f->second : 1;
  e.last_used = ++clock_;
  if (!MakeRoom(e.bytes, e.score())) {
    ++stats_.admissions_rejected;
    return;
  }
  e.cands = std::move(cands);
  bytes_held_ += e.bytes;
  cands_[bat].push_back(std::move(e));
  stats_.bytes_held = bytes_held_;
  size_t n = 0;
  for (const auto& [name, b] : cands_) n += b.size();
  stats_.candidate_entries = n;
}

void Recycler::set_budget_bytes(uint64_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = budget;
  // Shrinking below the held total evicts coldest-first down to fit.
  while (bytes_held_ > budget_bytes_) {
    if (!MakeRoom(0, std::numeric_limits<uint64_t>::max())) break;
  }
  stats_.bytes_held = bytes_held_;
  stats_.result_entries = results_.size();
  size_t n = 0;
  for (const auto& [bat, b] : cands_) n += b.size();
  stats_.candidate_entries = n;
}

uint64_t Recycler::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_bytes_;
}

RecyclerStats Recycler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RecyclerStats out = stats_;
  out.bytes_held = bytes_held_;
  out.result_entries = results_.size();
  size_t n = 0;
  for (const auto& [bat, b] : cands_) n += b.size();
  out.candidate_entries = n;
  return out;
}

}  // namespace mirror::monet
