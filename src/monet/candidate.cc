#include "monet/candidate.h"

#include <algorithm>
#include <bit>
#include <iterator>

#include "base/logging.h"
#include "base/str_util.h"

namespace mirror::monet {

CandidateList CandidateList::Dense(size_t first, size_t count) {
  CandidateList out;
  out.dense_ = true;
  out.first_ = first;
  out.count_ = count;
  return out;
}

CandidateList CandidateList::FromPositions(PositionVector positions) {
#ifndef NDEBUG
  for (size_t i = 1; i < positions.size(); ++i) {
    MIRROR_CHECK(positions[i - 1] < positions[i])
        << "candidate positions must be strictly ascending";
  }
#endif
  CandidateList out;
  out.dense_ = false;
  out.positions_ = std::move(positions);
  return out;
}

CandidateList CandidateList::Intersect(const CandidateList& other) const {
  if (dense_ && other.dense_) {
    size_t lo = std::max(first_, other.first_);
    size_t hi = std::min(first_ + count_, other.first_ + other.count_);
    return Dense(lo, hi > lo ? hi - lo : 0);
  }
  // Dense-vs-sparse: the sparse positions inside the dense range form one
  // contiguous run of the sorted vector; find it and copy it once.
  auto clamp_to_dense = [](const CandidateList& sparse,
                           const CandidateList& dense) {
    const PositionVector& p = sparse.positions_;
    auto lo = std::lower_bound(p.begin(), p.end(), dense.first_);
    auto hi = std::lower_bound(lo, p.end(), dense.first_ + dense.count_);
    return FromPositions(PositionVector(lo, hi));
  };
  if (dense_) return clamp_to_dense(other, *this);
  if (other.dense_) return clamp_to_dense(*this, other);
  PositionVector out;
  out.reserve(std::min(positions_.size(), other.positions_.size()));
  std::set_intersection(positions_.begin(), positions_.end(),
                        other.positions_.begin(), other.positions_.end(),
                        std::back_inserter(out));
  return FromPositions(std::move(out));
}

CandidateList CandidateList::Union(const CandidateList& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  if (dense_ && other.dense_ && first_ <= other.first_ + other.count_ &&
      other.first_ <= first_ + count_) {
    // Overlapping or adjacent dense ranges stay dense.
    size_t lo = std::min(first_, other.first_);
    size_t hi = std::max(first_ + count_, other.first_ + other.count_);
    return Dense(lo, hi - lo);
  }
  // Both lists are read in place, a dense range as first_ + i and a
  // sparse list as its uint32 positions: no widened copy of either side.
  const size_t n = size();
  const size_t m = other.size();
  PositionVector out;
  out.reserve(n + m);
  size_t i = 0;
  size_t j = 0;
  while (i < n && j < m) {
    const size_t a = PositionAt(i);
    const size_t b = other.PositionAt(j);
    out.push_back(static_cast<uint32_t>(std::min(a, b)));
    i += a <= b ? 1 : 0;
    j += b <= a ? 1 : 0;
  }
  for (; i < n; ++i) out.push_back(static_cast<uint32_t>(PositionAt(i)));
  for (; j < m; ++j) out.push_back(static_cast<uint32_t>(other.PositionAt(j)));
  return FromPositions(std::move(out));
}

CandidateList CandidateList::Difference(const CandidateList& other) const {
  if (empty() || other.empty()) return *this;
  const size_t n = size();
  const size_t m = other.size();
  PositionVector out;
  out.reserve(n);
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t p = PositionAt(i);
    while (j < m && other.PositionAt(j) < p) ++j;
    if (j == m || other.PositionAt(j) != p) {
      out.push_back(static_cast<uint32_t>(p));
    }
  }
  return FromPositions(std::move(out));
}

CandidateList CandidateList::Sliced(size_t start, size_t count) const {
  size_t n = size();
  start = std::min(start, n);
  count = std::min(count, n - start);
  if (dense_) return Dense(first_ + start, count);
  return FromPositions(PositionVector(
      positions_.begin() + static_cast<ptrdiff_t>(start),
      positions_.begin() + static_cast<ptrdiff_t>(start + count)));
}

PackedCandidates CandidateList::Pack() const {
  PackedCandidates out;
  out.count_ = size();
  if (dense_) {
    out.first_ = first_;
    return out;
  }
  const size_t words =
      positions_.empty()
          ? 0
          : (size_t{positions_.back()} - positions_.front()) / 64 + 1;
  if (words * sizeof(uint64_t) < positions_.size() * sizeof(uint32_t)) {
    out.form_ = PackedCandidates::Form::kBitmap;
    out.first_ = positions_.front();
    out.words_.assign(words, 0);
    for (uint32_t p : positions_) {
      const size_t off = p - out.first_;
      out.words_[off / 64] |= uint64_t{1} << (off % 64);
    }
  } else {
    out.form_ = PackedCandidates::Form::kPositions;
    out.positions_ = positions_;
  }
  return out;
}

CandidateList PackedCandidates::Unpack() const {
  switch (form_) {
    case Form::kDense:
      return CandidateList::Dense(first_, count_);
    case Form::kPositions:
      return CandidateList::FromPositions(positions_);
    case Form::kBitmap:
      break;
  }
  PositionVector out;
  out.resize(count_);
  size_t k = 0;
  for (size_t w = 0; w < words_.size(); ++w) {
    const size_t base = first_ + w * 64;
    for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      out[k++] = static_cast<uint32_t>(base + std::countr_zero(bits));
    }
  }
  return CandidateList::FromPositions(std::move(out));
}

std::vector<size_t> CandidateList::ToPositions() const {
  std::vector<size_t> out(size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = PositionAt(i);
  return out;
}

std::string CandidateList::DebugString() const {
  if (dense_) {
    return base::StrFormat("cand[dense %zu..%zu)", first_, first_ + count_);
  }
  return base::StrFormat("cand[%zu rows]", positions_.size());
}

}  // namespace mirror::monet
