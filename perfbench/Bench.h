//===- perfbench/Bench.h - shared benchmark machinery -----------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run configuration, the tally of
/// operations attempted and failed, clocks, reading fields back from a
/// finished execution, and the two ways of compiling one job. The untraced
/// way calls driver::Compilation::compile, as a user does. The traced way
/// calls each public stage entry point in turn (lexer, parser, procedure
/// integration, lowering, every transform pass, the verifier, the back
/// end) and times each call from here, so per-layer numbers come from
/// outside the program.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_PERFBENCH_BENCH_H
#define F90Y_PERFBENCH_BENCH_H

#include "driver/Driver.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line configuration of one benchmark process.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Small inputs, every check (the smoke mode).
  bool Smoke = false;
  /// Perturb every reference, so that every checked operation must fail
  /// (the negative case that proves the checks can fail).
  bool Perturb = false;
  /// serve's workers, and the thread count the one-thread runs of swe and
  /// relax-ckpt are checked against once.
  unsigned Threads = 1;
  /// Scratch directory inside the checkout (checkpoint files).
  std::string WorkDir;
  /// Repository root (examples/programs lives under it).
  std::string RepoRoot;
};

/// Operations attempted and failed, plus whether every check that was
/// expected to pass did. An operation is one compile-and-run job (or one
/// serve record) with its outputs checked.
class Tally {
public:
  /// Records one operation. \p KnownFault marks a job that fails because
  /// of a fault named in the benchmark's README; its failure is counted
  /// but does not make the run incorrect.
  void op(bool Ok, const std::string &What, bool KnownFault = false);
  /// Records a workload-level property check (not an operation).
  void property(bool Ok, const std::string &What);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  bool correct() const { return Correct; }
  const std::vector<std::string> &notes() const { return Notes; }

private:
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  std::vector<std::string> Notes;
  void note(const std::string &S);
};

double wallNow();    ///< Seconds on a steady clock.
double cpuNow();     ///< Process CPU seconds (all threads).
double peakRssMb();  ///< Peak resident set of the process so far.
double median(std::vector<double> V);

/// \p Name read back element by element in logical order (layout-aware),
/// or empty when the field is gone (fused away).
std::vector<double> logicalField(f90y::driver::Execution &E,
                                 const std::string &Name);

/// Per-layer values of one traced round, by metric name.
using LayerMap = std::map<std::string, double>;

/// One compiled job, by either path. Owns everything the host program
/// refers to.
class CompiledJob {
public:
  ~CompiledJob();
  CompiledJob(CompiledJob &&) noexcept;
  CompiledJob &operator=(CompiledJob &&) noexcept;

  bool ok() const { return Program != nullptr; }
  const f90y::host::HostProgram &program() const { return *Program; }
  const std::string &error() const { return Error; }
  /// Static PEAC instructions over every routine (loop bodies).
  uint64_t peacInstructions() const;

  /// driver::Compilation::compile; \p Seconds receives its wall time.
  static CompiledJob viaDriver(const std::string &Source,
                               const f90y::driver::CompileOptions &Opts,
                               double &Seconds);
  /// The same pipeline, stage by stage, each stage timed from here into
  /// \p Layers (microseconds) with its counts; \p Metrics receives the
  /// stage-internal counters (backend instructions and slots). \p Seconds
  /// receives the wall time of the whole pipeline.
  static CompiledJob viaStages(const std::string &Source,
                               const f90y::driver::CompileOptions &Opts,
                               LayerMap &Layers,
                               f90y::observe::MetricsRegistry *Metrics,
                               double &Seconds);

private:
  CompiledJob();
  struct Stages;
  std::unique_ptr<f90y::driver::Compilation> Comp;
  std::unique_ptr<Stages> Staged;
  const f90y::host::HostProgram *Program = nullptr;
  std::string Error;
};

/// Adds the execution sub-layers of one traced Execution::run to
/// \p Layers: each wall-domain parallel-for span goes to the comm op or
/// PEAC dispatch the cycle domain records next in sequence, checkpoint
/// spans to checkpoint I/O, and the rest of the execute span to host
/// statements. \p Trace is cleared afterwards.
void attributeExecution(f90y::observe::TraceRecorder &Trace,
                        LayerMap &Layers);

/// Adds the runtime counters of \p Metrics (comm bytes and hops, host
/// statements, PEAC dispatches, engine cache misses, coalesced shifts) to
/// \p Layers, and the ledger of \p Report. \p Metrics is cleared
/// afterwards.
void addRunCounters(f90y::observe::MetricsRegistry &Metrics,
                    const f90y::driver::RunReport &Report, LayerMap &Layers);

/// Every per-layer metric the benchmark reports, in BENCHMARK.json order,
/// with its unit.
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/// Per-layer self times (microseconds) that together should tile the
/// compile and run wall time of a traced round.
const std::vector<std::string> &selfTimeLayers();

} // namespace perfbench

#endif // F90Y_PERFBENCH_BENCH_H
