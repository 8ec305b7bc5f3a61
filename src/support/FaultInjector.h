//===- support/FaultInjector.h - deterministic fault injection ----*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic fault injection for the simulated CM/2. Every
/// fault decision is a pure function of (seed, fault kind, per-kind op
/// index): the injector keeps one monotonically increasing op counter per
/// kind and hashes it with the seed, so the fault schedule never depends
/// on wall clock, host thread count, or address-space layout. All fire()
/// calls are made on the host (sequencer) thread at operation entry/exit -
/// never inside a parallel sweep - which makes the schedule, the recovery
/// work, and therefore the program output and cycle ledger bit-identical
/// at every -threads=N.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_SUPPORT_FAULTINJECTOR_H
#define F90Y_SUPPORT_FAULTINJECTOR_H

#include <cstdint>
#include <string>

namespace f90y {
namespace support {

/// The failure modes the simulator can inject.
enum class FaultKind : unsigned {
  RouterDrop,   ///< Router message dropped (transpose/section/spread).
  GridTimeout,  ///< NEWS grid-link timeout (cshift/eoshift/reductions).
  Corruption,   ///< Transfer corrupted in flight, caught by the checksum.
  PeTrap,       ///< A PE trapped during a PEAC routine.
  FpuException, ///< FPU exception on a node datapath during a routine.
  AllocOom,     ///< Parallel-heap allocation failure.
};
constexpr unsigned NumFaultKinds = 6;

/// "router-drop", "grid-timeout", ... (the -faults spec keys).
const char *faultKindName(FaultKind K);

/// Per-kind injection probabilities (per injection opportunity). The
/// -faults=<spec> flag parses into one of these:
///   spec  := entry (',' entry)*
///   entry := kind ':' probability        e.g. "router-drop:0.01"
///          | "all" ':' probability       every kind at once
struct FaultSpec {
  double Prob[NumFaultKinds] = {0, 0, 0, 0, 0, 0};

  double prob(FaultKind K) const { return Prob[static_cast<unsigned>(K)]; }
  bool any() const;
  bool operator==(const FaultSpec &O) const = default;

  /// Parses \p Text; false (with \p Error set) on a malformed spec.
  static bool parse(const std::string &Text, FaultSpec &Out,
                    std::string &Error);
};

/// Injection and recovery totals for one execution.
struct FaultCounters {
  uint64_t Injected[NumFaultKinds] = {0, 0, 0, 0, 0, 0};
  uint64_t Retries = 0;   ///< Transient comm attempts retried with backoff.
  uint64_t Rollbacks = 0; ///< Field checkpoints restored.
  uint64_t Replays = 0;   ///< PEAC dispatches re-executed after a trap.

  uint64_t injected(FaultKind K) const {
    return Injected[static_cast<unsigned>(K)];
  }
  uint64_t totalInjected() const;
  bool operator==(const FaultCounters &O) const = default;

  /// One-line rendering for -stats and test failure messages.
  std::string str() const;
};

/// The injector owned by one Execution. Not thread-safe by design: calls
/// are made from the host statement loop only (see file comment).
class FaultInjector {
public:
  FaultInjector(const FaultSpec &Spec, uint64_t Seed)
      : Spec(Spec), Seed(Seed) {}

  /// True when kind \p K has a nonzero probability.
  bool enabled(FaultKind K) const { return Spec.prob(K) > 0; }

  /// Decides the next injection opportunity for \p K, advancing its op
  /// counter. When it fires, the injection counter increments and \p
  /// RawOut (if given) receives the decision's raw 64-bit draw, usable
  /// for derived deterministic choices (e.g. which PE trapped).
  bool fire(FaultKind K, uint64_t *RawOut = nullptr);

  const FaultSpec &spec() const { return Spec; }
  uint64_t seed() const { return Seed; }

  FaultCounters &counters() { return Counters; }
  const FaultCounters &counters() const { return Counters; }

  /// Rewinds all op counters and totals, so consecutive runs under one
  /// injector see the identical schedule.
  void reset();

  /// The injector's complete mutable state: the per-kind op counters that
  /// position the deterministic schedule, plus the injection/recovery
  /// totals. Snapshotting and restoring this across a process kill is
  /// what makes a resumed run's fault schedule continue exactly where the
  /// killed run left off (checkpoint/restart, DESIGN.md section 9).
  struct State {
    uint64_t OpIndex[NumFaultKinds] = {0, 0, 0, 0, 0, 0};
    FaultCounters Counters;
    bool operator==(const State &O) const {
      for (unsigned K = 0; K < NumFaultKinds; ++K)
        if (OpIndex[K] != O.OpIndex[K])
          return false;
      return Counters == O.Counters;
    }
  };

  State snapshotState() const {
    State S;
    for (unsigned K = 0; K < NumFaultKinds; ++K)
      S.OpIndex[K] = OpIndex[K];
    S.Counters = Counters;
    return S;
  }
  void restoreState(const State &S) {
    for (unsigned K = 0; K < NumFaultKinds; ++K)
      OpIndex[K] = S.OpIndex[K];
    Counters = S.Counters;
  }

private:
  FaultSpec Spec;
  uint64_t Seed = 0;
  uint64_t OpIndex[NumFaultKinds] = {0, 0, 0, 0, 0, 0};
  FaultCounters Counters;
};

} // namespace support
} // namespace f90y

#endif // F90Y_SUPPORT_FAULTINJECTOR_H
