#ifndef MWSIBE_E2EBENCH_STATS_H_
#define MWSIBE_E2EBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace e2e {

/// Order statistics of one sample set. Percentiles interpolate linearly
/// between closest ranks; an empty set reads as all zeros.
struct Summary {
  size_t n = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
};

Summary Summarize(std::vector<double> samples);

/// The q-quantile (0 <= q <= 1) of a sorted sample set.
double QuantileSorted(const std::vector<double>& sorted, double q);

}  // namespace e2e

#endif  // MWSIBE_E2EBENCH_STATS_H_
