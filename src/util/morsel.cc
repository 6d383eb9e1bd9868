#include "util/morsel.h"

#include <algorithm>

namespace instantdb {

MorselScheduler::MorselScheduler(std::vector<std::vector<Morsel>> plan) {
  size_t total = 0;
  size_t depth = 0;
  for (auto& partition : plan) {
    for (Morsel& m : partition) m.ordinal = total++;
    depth = std::max(depth, partition.size());
  }
  morsels_.reserve(total);
  for (size_t i = 0; i < depth; ++i) {
    for (const auto& partition : plan) {
      if (i < partition.size()) morsels_.push_back(partition[i]);
    }
  }
}

}  // namespace instantdb
