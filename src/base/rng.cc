#include "base/rng.h"

#include <algorithm>
#include <cmath>

namespace mirror::base {

double Rng::Gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller transform; u1 in (0,1] to keep log finite.
  double u1 = 1.0 - UniformDouble();
  double u2 = UniformDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  MIRROR_CHECK_GT(n, 0u);
  auto cached = std::find_if(
      zipf_cdfs_.begin(), zipf_cdfs_.end(),
      [&](const ZipfCdf& z) { return z.n == n && z.s == s; });
  if (cached == zipf_cdfs_.end()) {
    // Build the CDF once per (n, s); sampling is then a binary search.
    if (zipf_cdfs_.size() == kZipfCdfs) zipf_cdfs_.erase(zipf_cdfs_.begin());
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (uint64_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf[k] = sum;
    }
    for (uint64_t k = 0; k < n; ++k) cdf[k] /= sum;
    zipf_cdfs_.push_back(ZipfCdf{n, s, std::move(cdf)});
    cached = zipf_cdfs_.end() - 1;
  }
  const std::vector<double>& cdf = cached->cdf;
  double u = UniformDouble();
  auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) return n - 1;
  return static_cast<uint64_t>(it - cdf.begin());
}

}  // namespace mirror::base
