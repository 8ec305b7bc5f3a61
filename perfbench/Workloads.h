//===- perfbench/Workloads.h - the benchmark's four workloads ---*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// swe, relax-ckpt, corpus and serve. Each one loads a different layer of
/// the system; README.md gives their make-up and why they were chosen.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_PERFBENCH_WORKLOADS_H
#define F90Y_PERFBENCH_WORKLOADS_H

#include "Bench.h"

#include <memory>

namespace perfbench {

/// What one round of a workload measured. Times are host wall seconds.
struct RoundResult {
  double CompileS = 0;  ///< Summed over compile calls.
  double RunS = 0;      ///< Summed over Execution::run calls.
  double RestoreS = 0;  ///< The resumed run (relax-ckpt only).
  double CpuS = 0;      ///< Process CPU over the compiles and runs.
  double Jobs = 0;      ///< Compile-and-run jobs completed.
  double SimCycles = 0; ///< Simulated cycles over every run.
  double SimGflops = 0;
  double PeacInstructions = 0;
  /// Traced rounds only: per-layer values, and the wall time the
  /// per-layer self times should add up to.
  LayerMap Layers;
  double LayerWallUs = 0;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and computes the check
  /// references from the benchmark's own models (and, for serve, the
  /// driver-API runs). Called once, first; not part of setup_s.
  virtual void prepare(Tally &T) = 0;
  /// The workload's cold start: compiles every distinct program once.
  /// Timed as setup_s; called several times.
  virtual void setup() = 0;
  /// Property checks made once per process (e.g. thread-count identity).
  virtual void onceChecks(Tally &T) { (void)T; }
  /// One whole round of the workload's operations, each checked.
  virtual RoundResult round(Tally &T, bool Traced) = 0;
};

/// The workload named by \p C.Workload, or null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const Config &C);

} // namespace perfbench

#endif // F90Y_PERFBENCH_WORKLOADS_H
