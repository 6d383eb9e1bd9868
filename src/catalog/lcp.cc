#include "catalog/lcp.h"

#include <algorithm>

#include "common/strings.h"

namespace instantdb {

namespace {

/// a + b with saturation at kForever.
Micros SaturatingAdd(Micros a, Micros b) {
  if (a == kForever || b == kForever) return kForever;
  if (a > kForever - b) return kForever;
  return a + b;
}

}  // namespace

Result<AttributeLcp> AttributeLcp::Make(std::vector<LcpPhase> phases) {
  if (phases.empty()) {
    return Status::InvalidArgument("LCP needs at least one phase");
  }
  int prev_level = -1;
  for (size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].level <= prev_level) {
      return Status::InvalidArgument(
          "LCP levels must be strictly increasing (degradation is "
          "irreversible)");
    }
    prev_level = phases[i].level;
    if (phases[i].duration <= 0) {
      return Status::InvalidArgument("LCP phase durations must be positive");
    }
    if (phases[i].duration == kForever && i + 1 != phases.size()) {
      return Status::InvalidArgument(
          "only the last LCP phase may last forever");
    }
  }
  return AttributeLcp(std::move(phases));
}

AttributeLcp AttributeLcp::Retention(Micros ttl) {
  auto r = Make({{0, ttl}});
  return *r;
}

AttributeLcp AttributeLcp::KeepForever() {
  auto r = Make({{0, kForever}});
  return *r;
}

Micros AttributeLcp::PhaseEndOffset(int i) const {
  Micros end = 0;
  for (int p = 0; p <= i && p < num_phases(); ++p) {
    end = SaturatingAdd(end, phases_[p].duration);
  }
  return end;
}

int AttributeLcp::PhaseAt(Micros offset) const {
  Micros end = 0;
  for (int p = 0; p < num_phases(); ++p) {
    end = SaturatingAdd(end, phases_[p].duration);
    if (offset < end) return p;
  }
  return num_phases();  // removed
}

std::string AttributeLcp::ToString() const {
  std::string out;
  for (int i = 0; i < num_phases(); ++i) {
    if (i > 0) out += " -> ";
    out += StringPrintf("d%d(level=%d", i, phases_[i].level);
    if (phases_[i].duration == kForever) {
      out += ", forever)";
    } else {
      out += StringPrintf(", %.3gh)",
                          static_cast<double>(phases_[i].duration) /
                              static_cast<double>(kMicrosPerHour));
    }
  }
  if (DegradesFully()) out += " -> ⊥";
  return out;
}

void AttributeLcp::EncodeTo(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(phases_.size()));
  for (const auto& phase : phases_) {
    PutVarint32(dst, static_cast<uint32_t>(phase.level));
    PutVarint64(dst, static_cast<uint64_t>(phase.duration));
  }
}

Result<AttributeLcp> AttributeLcp::DecodeFrom(Slice* input) {
  uint32_t n;
  if (!GetVarint32(input, &n)) return Status::Corruption("bad LCP");
  std::vector<LcpPhase> phases(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t level;
    uint64_t duration;
    if (!GetVarint32(input, &level) || !GetVarint64(input, &duration)) {
      return Status::Corruption("bad LCP phase");
    }
    phases[i] = {static_cast<int>(level), static_cast<Micros>(duration)};
  }
  return Make(std::move(phases));
}

// ---------------------------------------------------------------------------
// TupleLcp
// ---------------------------------------------------------------------------

TupleLcp TupleLcp::Make(const std::vector<const AttributeLcp*>& lcps) {
  TupleLcp out;
  // Collect every finite transition instant of every attribute.
  std::vector<Micros> instants = {0};
  for (const AttributeLcp* lcp : lcps) {
    for (int p = 0; p < lcp->num_phases(); ++p) {
      const Micros end = lcp->PhaseEndOffset(p);
      if (end != kForever) instants.push_back(end);
    }
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());

  // Tuple removal: when ALL attributes have reached their final automaton
  // state (paper: "until all degradable attributes have reached their final
  // state", after which the whole tuple disappears).
  Micros removal = 0;
  for (const AttributeLcp* lcp : lcps) {
    removal = std::max(removal, lcp->RemovalOffset());
  }
  out.removal_offset_ = lcps.empty() ? kForever : removal;

  for (Micros t : instants) {
    if (out.removal_offset_ != kForever && t >= out.removal_offset_) break;
    TupleState state;
    state.start_offset = t;
    state.attr_phase.reserve(lcps.size());
    for (const AttributeLcp* lcp : lcps) {
      state.attr_phase.push_back(lcp->PhaseAt(t));
    }
    out.states_.push_back(std::move(state));
  }
  return out;
}

std::string TupleLcp::ToString() const {
  std::string out;
  for (int i = 0; i < num_states(); ++i) {
    if (i > 0) out += " -> ";
    out += StringPrintf("t%d@%.3gh(", i,
                        static_cast<double>(states_[i].start_offset) /
                            static_cast<double>(kMicrosPerHour));
    for (size_t a = 0; a < states_[i].attr_phase.size(); ++a) {
      if (a > 0) out += ",";
      out += StringPrintf("d%d", states_[i].attr_phase[a]);
    }
    out += ")";
  }
  if (removal_offset_ != kForever) {
    out += StringPrintf(" -> removed@%.3gh",
                        static_cast<double>(removal_offset_) /
                            static_cast<double>(kMicrosPerHour));
  }
  return out;
}

}  // namespace instantdb
