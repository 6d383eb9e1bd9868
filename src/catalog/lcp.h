#ifndef INSTANTDB_CATALOG_LCP_H_
#define INSTANTDB_CATALOG_LCP_H_

#include <limits>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "util/coding.h"

namespace instantdb {

/// Sentinel duration: the attribute never leaves this state (the paper's
/// traditional-database behaviour, and the last state of policies that stop
/// degrading before removal).
inline constexpr Micros kForever = std::numeric_limits<Micros>::max();

/// One state d_i of an attribute LCP: the value is held generalized to GT
/// level `level` for `duration` microseconds, after which the transition to
/// the next state (or to removal, for the last phase) fires.
struct LcpPhase {
  int level = 0;
  Micros duration = kForever;

  bool operator==(const LcpPhase& other) const {
    return level == other.level && duration == other.duration;
  }
};

/// \brief Life Cycle Policy of one degradable attribute (paper §II, Fig. 2):
/// a deterministic finite automaton over accuracy states d_0 … d_{n-1}, plus
/// the implicit final state ⊥ (value removed) reached when the last phase's
/// duration elapses.
///
/// Phase indices are "attribute states" throughout the engine; the phase
/// index of a value equals the index into this automaton, and the state
/// stores of the storage layer are keyed by it.
class AttributeLcp {
 public:
  AttributeLcp() = default;

  /// Validates and builds a policy. Levels must be non-negative and strictly
  /// increasing (degradation is irreversible); durations positive; only the
  /// last phase may last forever.
  static Result<AttributeLcp> Make(std::vector<LcpPhase> phases);

  /// The paper's *limited retention* baseline as a degenerate LCP: keep the
  /// accurate value for `ttl`, then remove.
  static AttributeLcp Retention(Micros ttl);

  /// Traditional no-degradation baseline: accurate forever.
  static AttributeLcp KeepForever();

  int num_phases() const { return static_cast<int>(phases_.size()); }
  const LcpPhase& phase(int i) const { return phases_[i]; }
  const std::vector<LcpPhase>& phases() const { return phases_; }

  /// Offset (since insertion) at which phase `i` ends and the next
  /// transition fires; kForever if it never ends.
  Micros PhaseEndOffset(int i) const;

  /// Phase index holding at `offset` since insertion; `num_phases()` when
  /// the value has been removed (⊥).
  int PhaseAt(Micros offset) const;

  /// Offset at which the value disappears entirely, kForever if never.
  Micros RemovalOffset() const { return PhaseEndOffset(num_phases() - 1); }

  /// True if the value eventually reaches ⊥.
  bool DegradesFully() const { return RemovalOffset() != kForever; }

  std::string ToString() const;

  void EncodeTo(std::string* dst) const;
  static Result<AttributeLcp> DecodeFrom(Slice* input);

  bool operator==(const AttributeLcp& other) const {
    return phases_ == other.phases_;
  }

 private:
  explicit AttributeLcp(std::vector<LcpPhase> phases)
      : phases_(std::move(phases)) {}

  std::vector<LcpPhase> phases_;
};

/// One state t_k of a tuple LCP: the vector of attribute phase indices in
/// effect from `start_offset` (since tuple insertion) until the next state.
struct TupleState {
  Micros start_offset = 0;
  /// attr_phase[i] indexes into degradable attribute i's LCP; a value of
  /// `lcp.num_phases()` means that attribute has reached ⊥.
  std::vector<int> attr_phase;
};

/// \brief Tuple-level LCP (paper §II, Fig. 3): the product automaton of the
/// per-attribute LCPs. Because every LCP is a chain, the product is a chain
/// too — one tuple state per distinct attribute-transition instant.
class TupleLcp {
 public:
  TupleLcp() = default;

  static TupleLcp Make(const std::vector<const AttributeLcp*>& lcps);

  const std::vector<TupleState>& states() const { return states_; }
  int num_states() const { return static_cast<int>(states_.size()); }

  /// Offset at which the whole tuple disappears: all degradable attributes
  /// have reached their final state and the paper removes the tuple (both
  /// stable and degradable parts). kForever if any attribute lingers.
  Micros RemovalOffset() const { return removal_offset_; }

  std::string ToString() const;

 private:
  std::vector<TupleState> states_;
  Micros removal_offset_ = kForever;
};

}  // namespace instantdb

#endif  // INSTANTDB_CATALOG_LCP_H_
