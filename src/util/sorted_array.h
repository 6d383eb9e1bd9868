#ifndef INSTANTDB_UTIL_SORTED_ARRAY_H_
#define INSTANTDB_UTIL_SORTED_ARRAY_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace instantdb {

/// Helpers for the row-id-sorted arrays with a consumed head that stand in
/// for per-entry tree and hash nodes (the state stores' mirror, a
/// partition's row map).

/// Grows `v` by 1/16 instead of doubling when it is full, so the slack
/// capacity per entry stays small.
template <typename T>
void GrowForOneMore(std::vector<T>* v) {
  if (v->size() == v->capacity()) v->reserve(v->size() + v->size() / 16 + 64);
}

/// First position in [first, last) whose element is >= `key`, searched
/// forward from `first`: steps 1, 2, 4, ... until an element >= key, then a
/// binary search inside that bracket. Probing ascending keys from the
/// previous answer costs O(1) per key in a dense run and O(log gap) across a
/// gap, where a fresh binary search would cost O(log n) every time.
template <typename T>
const T* GallopLowerBound(const T* first, const T* last, const T& key) {
  if (first == last || !(*first < key)) return first;
  const T* lo = first;  // *lo < key: the answer lies in (lo, last]
  for (std::ptrdiff_t step = 1; step < last - lo; step *= 2) {
    if (!(lo[step] < key)) return std::lower_bound(lo + 1, lo + step, key);
    lo += step;
  }
  return std::lower_bound(lo + 1, last, key);
}

}  // namespace instantdb

#endif  // INSTANTDB_UTIL_SORTED_ARRAY_H_
