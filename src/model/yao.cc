#include "model/yao.h"

#include <algorithm>
#include <cmath>

namespace carat::model {

double YaoExpectedBlocks(long long total_records, long long total_blocks,
                         long long selected_records) {
  if (total_blocks <= 0 || total_records <= 0) return 0.0;
  if (selected_records <= 0) return 0.0;
  selected_records = std::min(selected_records, total_records);

  const double n = static_cast<double>(total_records);
  const double m = static_cast<double>(total_blocks);
  const double d = n / m;  // records per block

  // P[a given block untouched] = prod_{i=1..k} (n - d - i + 1) / (n - i + 1).
  // Computed in log space for numerical robustness at large k.
  double log_p = 0.0;
  for (long long i = 1; i <= selected_records; ++i) {
    const double numer = n - d - static_cast<double>(i) + 1.0;
    const double denom = n - static_cast<double>(i) + 1.0;
    if (numer <= 0.0) return m;  // block certainly touched
    log_p += std::log(numer) - std::log(denom);
  }
  return m * (1.0 - std::exp(log_p));
}

double MeanIosPerRequest(long long total_records, long long total_blocks,
                         int requests, int records_per_request) {
  if (requests <= 0) return 0.0;
  const double g = YaoExpectedBlocks(
      total_records, total_blocks,
      static_cast<long long>(requests) * records_per_request);
  return g / requests;
}

double YaoExpectedBlocksReal(double total_records, double total_blocks,
                             double selected_records) {
  if (total_blocks <= 0.0 || total_records <= 0.0) return 0.0;
  if (selected_records <= 0.0) return 0.0;
  selected_records = std::min(selected_records, total_records);
  const double n = total_records;
  const double m = total_blocks;
  const double d = n / m;
  if (n - d - selected_records + 1.0 <= 0.0) return m;
  // log C(n-d, k) - log C(n, k) via lgamma. lgamma_r, not std::lgamma:
  // std::lgamma writes glibc's global `signgam`, a data race when solves run
  // concurrently. The values are the same bit for bit.
  int sign = 0;
  const double log_p = lgamma_r(n - d + 1.0, &sign) -
                       lgamma_r(n - d - selected_records + 1.0, &sign) -
                       lgamma_r(n + 1.0, &sign) +
                       lgamma_r(n - selected_records + 1.0, &sign);
  return m * (1.0 - std::exp(log_p));
}

double AccessSkew::ContentionFactor() const {
  if (IsUniform()) return 1.0;
  const double s = hot_data_fraction;
  const double a = std::min(hot_access_fraction, 1.0);
  return a * a / s + (1.0 - a) * (1.0 - a) / (1.0 - s);
}

double YaoExpectedBlocksSkewed(long long total_records, long long total_blocks,
                               long long selected_records,
                               const AccessSkew& skew) {
  if (skew.IsUniform()) {
    return YaoExpectedBlocks(total_records, total_blocks, selected_records);
  }
  const double s = skew.hot_data_fraction;
  const double a = std::min(skew.hot_access_fraction, 1.0);
  const double hot_blocks = s * static_cast<double>(total_blocks);
  const double cold_blocks = static_cast<double>(total_blocks) - hot_blocks;
  const double hot_records = s * static_cast<double>(total_records);
  const double cold_records = static_cast<double>(total_records) - hot_records;
  const double k = static_cast<double>(selected_records);
  return YaoExpectedBlocksReal(hot_records, hot_blocks, a * k) +
         YaoExpectedBlocksReal(cold_records, cold_blocks, (1.0 - a) * k);
}

}  // namespace carat::model
