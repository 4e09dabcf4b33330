#ifndef MIRROR_MONET_CANDIDATE_H_
#define MIRROR_MONET_CANDIDATE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "monet/position_vector.h"

namespace mirror::monet {

class PackedCandidates;

/// A selection vector over one base BAT: the late-materialization
/// representation of "these rows survive". Production column stores run
/// whole selection/semijoin pipelines over candidate lists and copy tuples
/// only at pipeline breakers; the Mirror kernel does the same (see
/// ARCHITECTURE.md, "materialization boundaries").
///
/// Two encodings, mirroring MonetDB's candidate lists:
///  - dense: the contiguous position range [first, first+count), stored in
///    O(1) space (the "no selection yet" and Slice cases);
///  - sparse: an explicitly sorted vector of row positions, held in
///    page-granular storage (PositionVector): a freed list returns its
///    pages to the OS.
///
/// Positions are row indexes into the base BAT, NOT oids: a candidate list
/// is only meaningful together with the BAT it was derived from.
class CandidateList {
 public:
  /// The empty selection.
  CandidateList() = default;

  /// All rows of a BAT of size `n`.
  static CandidateList All(size_t n) { return Dense(0, n); }

  /// The dense position range [first, first+count).
  static CandidateList Dense(size_t first, size_t count);

  /// An explicit position vector; must be sorted ascending and free of
  /// duplicates (checked in debug builds).
  static CandidateList FromPositions(PositionVector positions);

  size_t size() const { return dense_ ? count_ : positions_.size(); }
  bool empty() const { return size() == 0; }
  bool is_dense() const { return dense_; }
  /// First position of a dense range (dense lists only).
  size_t first() const { return first_; }

  /// The i-th surviving row position (candidates are always ascending).
  size_t PositionAt(size_t i) const {
    return dense_ ? first_ + i : positions_[i];
  }

  /// Set intersection with another candidate list over the same base.
  CandidateList Intersect(const CandidateList& other) const;

  /// Set union with another candidate list over the same base.
  CandidateList Union(const CandidateList& other) const;

  /// Set difference: positions of this list not in `other`.
  CandidateList Difference(const CandidateList& other) const;

  /// The sub-list [start, start+count) in candidate order — Slice over an
  /// unmaterialized pipeline (clamped like Slice).
  CandidateList Sliced(size_t start, size_t count) const;

  /// The stored form of this list (see PackedCandidates).
  PackedCandidates Pack() const;

  /// Positions as size_t (tests and diagnostics compare lists by these).
  std::vector<size_t> ToPositions() const;

  /// The underlying sorted positions (sparse lists only) — lets gathers
  /// and morsels run off the 32-bit form in place.
  std::span<const uint32_t> sparse_positions() const { return positions_; }

  /// e.g. "cand[dense 5..12)" or "cand[7 rows]".
  std::string DebugString() const;

 private:
  bool dense_ = true;
  size_t first_ = 0;
  size_t count_ = 0;
  PositionVector positions_;
};

/// A CandidateList in the form a cache holds it, in the spirit of
/// MonetDB's bitmask candidate lists. A dense list stays its O(1) range.
/// A sparse list is kept as a bitmap over [first, last] or as its sorted
/// position vector, whichever takes fewer bytes: ceil(span / 64) words of
/// 8 bytes against 4 bytes per position, positions on a tie. There is no
/// density threshold to tune; the byte counts decide.
///
/// Unpack() gives back the list position for position and shape for
/// shape (dense stays dense, sparse stays sparse).
class PackedCandidates {
 public:
  /// Number of candidate positions the list holds.
  size_t size() const { return count_; }
  /// Bytes of the packed payload: the bitmap words or the positions
  /// (0 for a dense list).
  size_t payload_bytes() const {
    return words_.size() * sizeof(uint64_t) +
           positions_.size() * sizeof(uint32_t);
  }

  CandidateList Unpack() const;

 private:
  friend class CandidateList;
  enum class Form : uint8_t { kDense, kBitmap, kPositions };

  Form form_ = Form::kDense;
  size_t first_ = 0;  // dense: range start; bitmap: position of bit 0
  size_t count_ = 0;
  /// Bit j of word w marks position first_ + 64 * w + j.
  std::vector<uint64_t> words_;
  PositionVector positions_;
};

}  // namespace mirror::monet

#endif  // MIRROR_MONET_CANDIDATE_H_
