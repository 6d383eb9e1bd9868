#ifndef INSTANTDB_UTIL_HISTOGRAM_H_
#define INSTANTDB_UTIL_HISTOGRAM_H_

#include <cstddef>
#include <vector>

namespace instantdb {

/// \brief Latency/size histogram used by the degradation statistics and the
/// benchmark harness. Stores raw samples; percentiles computed on demand.
class Histogram {
 public:
  void Add(double value);
  void Merge(const Histogram& other);
  void Clear();

  size_t count() const { return samples_.size(); }
  double min() const;
  double max() const;
  double mean() const;
  /// p in [0, 100]. Nearest-rank percentile; 0 with no samples.
  double Percentile(double p) const;

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace instantdb

#endif  // INSTANTDB_UTIL_HISTOGRAM_H_
