#include "util/histogram.h"

#include <algorithm>
#include <cmath>

namespace instantdb {

void Histogram::Add(double value) {
  samples_.push_back(value);
  sorted_ = false;
}

void Histogram::Merge(const Histogram& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

void Histogram::Clear() {
  samples_.clear();
  sorted_ = true;
}

void Histogram::EnsureSorted() const {
  if (!sorted_) {
    auto* self = const_cast<Histogram*>(this);
    std::sort(self->samples_.begin(), self->samples_.end());
    self->sorted_ = true;
  }
}

double Histogram::min() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  return samples_.front();
}

double Histogram::max() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  return samples_.back();
}

double Histogram::mean() const {
  if (samples_.empty()) return 0;
  double sum = 0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double Histogram::Percentile(double p) const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t idx = static_cast<size_t>(std::llround(rank));
  return samples_[std::min(idx, samples_.size() - 1)];
}

}  // namespace instantdb
