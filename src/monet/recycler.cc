#include "monet/recycler.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string_view>

#include "base/str_util.h"

namespace mirror::monet {

namespace {

/// A selection bound usable for interval matching, as a double holding
/// its exact value. An int column compares exactly with an int literal
/// and as doubles with a dbl one (the naive oracle's order); both agree
/// with plain real-number order when the int round-trips through double
/// and the dbl lies within +-2^53, so interval containment is sound
/// exactly then. Other bounds (a dbl at or past 2^53 selects the ints
/// that round onto it) bypass the recycler.
bool ExactDoubleBound(const Value& v, double* out) {
  switch (v.type()) {
    case ValueType::kInt: {
      double d = static_cast<double>(v.i());
      if (static_cast<int64_t>(d) != v.i()) return false;
      *out = d;
      return true;
    }
    case ValueType::kDbl:
      if (!(std::fabs(v.d()) < 0x1p53)) return false;  // NaN and inf too
      *out = v.d();
      return true;
    default:
      return false;  // strings/oids/void: not interval-matched
  }
}

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

uint64_t CandidateFreqKey(std::string_view bat, std::string_view ikey) {
  const uint64_t h = std::hash<std::string_view>{}(bat);
  // boost::hash_combine's mix of the two hashes.
  return h ^ (std::hash<std::string_view>{}(ikey) + 0x9e3779b97f4a7c15ull +
              (h << 6) + (h >> 2));
}

}  // namespace

// ---------------------------------------------------------------------------
// SelectPredicate.

bool SelectPredicate::FromInstr(const mil::Instr& instr,
                                std::string load_name, SelectPredicate* out) {
  SelectPredicate p;
  switch (instr.op) {
    case mil::OpCode::kSelectEq: {
      double v = 0;
      if (!ExactDoubleBound(instr.imm0, &v)) return false;
      p.lo = p.hi = v;
      break;
    }
    case mil::OpCode::kSelectCmp: {
      double v = 0;
      if (!ExactDoubleBound(instr.imm0, &v)) return false;
      switch (instr.cmp_op) {
        case CmpOp::kEq:
          p.lo = p.hi = v;
          break;
        case CmpOp::kLt:
          p.hi = v;
          p.hi_incl = false;
          break;
        case CmpOp::kLe:
          p.hi = v;
          break;
        case CmpOp::kGt:
          p.lo = v;
          p.lo_incl = false;
          break;
        case CmpOp::kGe:
          p.lo = v;
          break;
        case CmpOp::kNeq:
          return false;  // not an interval
      }
      break;
    }
    case mil::OpCode::kSelectRange: {
      double lo = 0;
      double hi = 0;
      if (!ExactDoubleBound(instr.imm0, &lo) ||
          !ExactDoubleBound(instr.imm1, &hi)) {
        return false;
      }
      p.lo = lo;
      p.hi = hi;
      p.lo_incl = instr.flag0;
      p.hi_incl = instr.flag1;
      break;
    }
    default:
      return false;
  }
  p.bat = std::move(load_name);
  *out = std::move(p);
  return true;
}

bool SelectPredicate::SubsumedBy(const SelectPredicate& wider) const {
  if (bat != wider.bat) return false;
  // Lower end: this must start at or after the wider interval's start;
  // at an equal bound an inclusive narrow end needs an inclusive wide one.
  if (lo < wider.lo) return false;
  if (lo == wider.lo && lo_incl && !wider.lo_incl) return false;
  if (hi > wider.hi) return false;
  if (hi == wider.hi && hi_incl && !wider.hi_incl) return false;
  return true;
}

std::string SelectPredicate::IntervalKey() const {
  return base::StrFormat("%c%.17g:%.17g%c", lo_incl ? '[' : '(', lo, hi,
                         hi_incl ? ']' : ')');
}

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
    std::string key;   // result key, or candidate bat name
    std::string ikey;  // candidate interval key
  };
  std::vector<Victim> victims;
  for (const auto& [key, e] : results_) {
    victims.push_back({e.score(), e.last_used, e.bytes, true, key, {}});
  }
  for (const auto& [bat, bucket] : cands_) {
    for (const auto& [ikey, e] : bucket) {
      victims.push_back({e.score(), e.last_used, e.bytes, false, bat, ikey});
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
      EraseCandidate(victims[i].key, victims[i].ikey);
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
                              const std::string& ikey) {
  auto bucket = cands_.find(bat);
  if (bucket == cands_.end()) return;
  auto it = bucket->second.find(ikey);
  if (it == bucket->second.end()) return;
  bytes_held_ -= it->second.bytes;
  bucket->second.erase(it);
  if (bucket->second.empty()) cands_.erase(bucket);
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
    uint64_t gen, const SelectPredicate& pred, bool* subsumed) {
  *subsumed = false;
  std::shared_ptr<const PackedCandidates> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    found = FindCandidates(gen, pred, subsumed);
  }
  // Decoding is the costly part (a bitmap over a 1M-row BAT expands to a
  // 4 MB vector); the pinned pointer keeps the entry's bytes alive even
  // if a fence or eviction drops it meanwhile.
  if (found == nullptr) return std::nullopt;
  return found->Unpack();
}

std::shared_ptr<const PackedCandidates> Recycler::FindCandidates(
    uint64_t gen, const SelectPredicate& pred, bool* subsumed) {
  if (gen != generation_.load(std::memory_order_relaxed)) {
    ++stats_.candidate_misses;
    return nullptr;
  }
  const std::string ikey = pred.IntervalKey();
  const uint64_t fkey = CandidateFreqKey(pred.bat, ikey);
  auto bucket = cands_.find(pred.bat);
  if (bucket != cands_.end()) {
    auto exact = bucket->second.find(ikey);
    if (exact != bucket->second.end()) {
      Entry& e = exact->second;
      e.freq = TouchFreq(fkey);
      e.last_used = ++clock_;
      ++stats_.candidate_hits;
      return e.cands;
    }
    // Subsumption: the smallest cached interval containing the query's —
    // the tightest pre-filter costs the narrow select the fewest probes.
    Entry* best = nullptr;
    for (auto& [k, e] : bucket->second) {
      if (!pred.SubsumedBy(e.pred)) continue;
      if (best == nullptr || e.cands->size() < best->cands->size()) {
        best = &e;
      }
    }
    if (best != nullptr) {
      best->freq =
          TouchFreq(CandidateFreqKey(pred.bat, best->pred.IntervalKey()));
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

void Recycler::InsertCandidates(uint64_t gen, const SelectPredicate& pred,
                                const CandidateList& list,
                                uint64_t cost_micros) {
  if (gen != generation()) return;  // stale: skip the packing too
  auto cands = std::make_shared<const PackedCandidates>(list.Pack());
  std::lock_guard<std::mutex> lock(mu_);
  if (gen != generation_.load(std::memory_order_relaxed)) return;
  const std::string ikey = pred.IntervalKey();
  auto& bucket = cands_[pred.bat];
  if (bucket.find(ikey) != bucket.end()) return;  // incumbent wins
  // Candidates admit on first sighting, unlike results: a cached
  // interval also serves every narrower predicate on its BAT through
  // subsumption, so an entry's worth is not its own key's repeat count
  // (the e2e rank_mix workload, whose requests never repeat, draws ~0.97
  // candidate hits per query from such entries).
  Entry e;
  e.pred = pred;
  e.bytes = CandidateBytes(*cands);
  e.cost_micros = cost_micros;
  auto f = freq_.find(CandidateFreqKey(pred.bat, ikey));
  e.freq = f != freq_.end() ? f->second : 1;
  e.last_used = ++clock_;
  if (!MakeRoom(e.bytes, e.score())) {
    if (bucket.empty()) cands_.erase(pred.bat);
    ++stats_.admissions_rejected;
    return;
  }
  e.cands = std::move(cands);
  bytes_held_ += e.bytes;
  cands_[pred.bat].emplace(ikey, std::move(e));
  stats_.bytes_held = bytes_held_;
  size_t n = 0;
  for (const auto& [bat, b] : cands_) n += b.size();
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
