//===- host/HostExecutor.h - Front-end execution -------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled HostProgram against a CM runtime instance: the
/// simulated SPARC front end. Scalar expressions evaluate host-side; PEAC
/// dispatches run on the simulated PE set; communication goes through the
/// CM runtime; all time lands in the runtime's cycle ledger.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_HOST_HOSTEXECUTOR_H
#define F90Y_HOST_HOSTEXECUTOR_H

#include "host/HostIR.h"
#include "interp/RtValue.h"
#include "runtime/Checkpoint.h"
#include "support/Diagnostics.h"
#include "support/RtStatus.h"

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <optional>
#include <string>

namespace f90y {
namespace host {

/// Runs host programs. The runtime (and its ledger) is owned by the
/// caller so benchmarks can inspect cycle categories afterwards.
class HostExecutor {
public:
  HostExecutor(runtime::CmRuntime &RT, DiagnosticEngine &Diags)
      : RT(RT), Diags(Diags) {}

  /// Executes \p Program to completion; false on a runtime error.
  bool run(const HostProgram &Program);

  /// Watchdog: abort (as a runtime error) after \p N executed host
  /// statements. 0 disables the limit.
  void setMaxSteps(uint64_t N) { MaxSteps = N; }

  /// Attaches the run's checkpoint controller (null: checkpointing off).
  /// The executor consults it at every step boundary - the end of each
  /// iteration of an outermost SerialDo/While loop - to write checkpoints
  /// and to honor the -crash-at-step test hook.
  void setCheckpoint(runtime::ckpt::Controller *C) { Ckpt = C; }

  /// Arms the next run() to resume from \p S instead of starting fresh:
  /// the executor replays only the program's structure (allocations, loop
  /// entries) up to the checkpointed loop, reinstates the snapshotted
  /// state wholesale, and continues from the following iteration. The
  /// state is consumed by that run.
  void setRestoreState(runtime::ckpt::CheckpointState S) {
    Restore = std::move(S);
  }

  /// Completed outermost-loop iterations of the last run (continues from
  /// the checkpoint's count on a restored run).
  uint64_t stepIndex() const { return StepIndex; }

  /// Enables the Section 5.3.2 extension model: communication may proceed
  /// concurrently with subsequent PEAC computation that touches none of
  /// the fields in flight. Hidden cycles accumulate in the ledger's
  /// OverlappedCycles. Off by default (the paper's strict
  /// virtual-processor model).
  void setOverlapCommCompute(bool On) { OverlapCommCompute = On; }

  const std::string &output() const { return Output; }

  /// Post-run inspection (top-level allocations are kept alive).
  std::optional<interp::RtVal> getScalar(const std::string &Name) const;
  /// Field handle of a (still-allocated) array, or -1.
  int fieldHandle(const std::string &Name) const;

  /// Pre-run seeds, mirroring the reference interpreter's hooks.
  void presetScalar(const std::string &Name, interp::RtVal V) {
    PresetScalars[Name] = V;
  }
  void presetArray(const std::string &Name, std::vector<double> Values) {
    PresetArrays[Name] = std::move(Values);
  }

private:
  runtime::CmRuntime &RT;
  DiagnosticEngine &Diags;
  const HostProgram *Program = nullptr;
  std::string Output;
  bool Failed = false;
  uint64_t MaxSteps = 0; ///< Watchdog statement limit (0: unlimited).
  uint64_t Steps = 0;    ///< Statements executed so far this run.

  // Checkpoint/restart (DESIGN.md section 9). A "step" is one completed
  // iteration of a depth-0 (outermost) SerialDo or While loop; such loops
  // are numbered in entry order (LoopSeq) so a checkpoint can name its
  // resume point structurally.
  runtime::ckpt::Controller *Ckpt = nullptr;
  std::optional<runtime::ckpt::CheckpointState> Restore;
  bool Restoring = false; ///< Structure-only replay toward the resume point.
  uint64_t StepIndex = 0; ///< Completed outermost-loop iterations.
  uint32_t LoopSeq = 0;   ///< Next entry-order id for a depth-0 loop.
  unsigned LoopDepth = 0; ///< Loop nesting depth of the current statement.

  std::map<std::string, interp::RtVal> Scalars;
  std::map<std::string, runtime::ElemKind> ScalarKinds;
  std::map<std::string, int> FieldHandles;
  std::map<std::string, std::vector<int64_t>> LoopCoords;

  std::map<std::string, interp::RtVal> PresetScalars;
  std::map<std::string, std::vector<double>> PresetArrays;

  struct DeferredWrite {
    int Handle;
    std::vector<int64_t> Coord;
    double V;
  };
  std::vector<DeferredWrite> *Deferred = nullptr;

  // Section 5.3.2 overlap model: the in-flight accounting lives in the
  // runtime's split-phase ledger (CmRuntime::commIssue / noteCompute /
  // commWaitAll); the executor only decides which statements issue, hide
  // under, or serialize against an exchange.
  bool OverlapCommCompute = false;

  /// Serializes against any in-flight communication.
  void flushPendingComm() { RT.commWaitAll(); }
  /// Issues the just-charged communication of \p Cycles over the field
  /// \p Handles as the (single) in-flight exchange.
  void beginPendingComm(double Cycles, const std::vector<int> &Handles);
  /// Overlaps \p Cycles of node work against in-flight communication if
  /// the touched field handles are disjoint from it; returns the cycles
  /// credited to OverlappedCycles.
  double overlapAgainstPending(double Cycles, const std::vector<int> &Touched);

  void error(const std::string &Msg) {
    if (!Failed)
      Diags.error(SourceLocation(), Msg);
    Failed = true;
  }

  /// Folds a communication status into the run: true when Ok, otherwise
  /// reports the (already retried and still failing) fault and fails.
  bool checkComm(const support::RtStatus &St) {
    if (St.isOk())
      return true;
    error("unrecovered communication fault: " + St.str());
    return false;
  }

  /// One field-to-field comm statement: resolves \p Fields to handles
  /// (failing with "<Noun> references an unallocated array"), runs \p Op
  /// on them, and issues the cycles it charged as the in-flight exchange
  /// over those handles.
  void execComm(
      const char *Noun, const std::vector<std::string> &Fields,
      const std::function<support::RtStatus(const std::vector<int> &)> &Op);

  void exec(const HostStmt *S);
  void execCallPeac(const CallPeacStmt *S);
  /// Shared SerialDo/ParallelLoop iteration. With \p ResumeFrom set (a
  /// restored depth-0 SerialDo), iteration continues from the coordinate
  /// *after* \p ResumeFrom under the already-assigned loop id \p ResumeId.
  void execLoop(const HostStmt *S,
                const std::vector<int64_t> *ResumeFrom = nullptr,
                uint32_t ResumeId = 0);
  /// While execution; \p ResumeId non-null resumes a restored depth-0
  /// While (no initial comm flush - the in-flight exchange was restored).
  void execWhile(const WhileStmt *W, const uint32_t *ResumeId = nullptr);
  /// Structure-only replay toward the checkpoint's resume point: only
  /// Seq/AllocScope are entered and only depth-0 loops are matched;
  /// everything else is skipped (its effects arrive with applyRestore).
  void execRestore(const HostStmt *S);
  /// End-of-iteration hook for depth-0 loops: advances StepIndex, writes
  /// a checkpoint when one is due, and honors -crash-at-step.
  void stepBoundary(uint32_t LoopId, const std::string &Domain,
                    const std::vector<int64_t> *Coord);
  /// Snapshots the complete resumable state at a step boundary.
  runtime::ckpt::CheckpointState
  buildCheckpointState(uint32_t LoopId, const std::string &Domain,
                       const std::vector<int64_t> *Coord);
  /// Reinstates \p S wholesale at the resume point; false (with a
  /// diagnostic) when the replayed allocation structure does not match.
  bool applyRestore(const runtime::ckpt::CheckpointState &S);
  interp::RtVal evalScalar(const nir::Value *V);
  interp::RtVal convertFor(interp::RtVal V, runtime::ElemKind K);
};

} // namespace host
} // namespace f90y

#endif // F90Y_HOST_HOSTEXECUTOR_H
