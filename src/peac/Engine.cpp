//===- peac/Engine.cpp - compile-once PEAC execution engine -----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "peac/Engine.h"

#include "peac/Kernels.h"

#include "observe/Metrics.h"
#include "support/Hash.h"

#include <algorithm>

using namespace f90y;
using namespace f90y::peac;
using namespace f90y::peac::engine;

//===----------------------------------------------------------------------===//
// Translation
//===----------------------------------------------------------------------===//

namespace f90y {
namespace peac {
namespace engine {

/// A Routine translated once into a flat program of pre-resolved ops.
/// Immutable after translation; shared by every dispatch (and thread)
/// that executes the routine.
class CompiledRoutine {
public:
  std::vector<CompiledOp> Prog;
  std::vector<LaneVec> ImmPool; ///< Pre-broadcast immediate operands.
  ScratchUse Use;               ///< Registers the body actually touches.
  unsigned NumPtrArgs = 0;

  /// Sweeps one PE's subgrid slice. Reuses per-thread scratch (grown
  /// once, zeroed per PE for interpreter parity), so the steady-state
  /// sweep performs no heap allocation.
  void runPE(const ExecArgs &Args, const LaneVec *ScalarPool, unsigned PE,
             unsigned Width, int64_t Iters) const;
};

} // namespace engine
} // namespace peac
} // namespace f90y

namespace {

/// Reusable per-thread sweep scratch: the engine's replacement for the
/// interpreter's per-PE PEState heap allocations.
struct EngineScratch {
  std::vector<LaneVec> VRegs;
  std::vector<LaneVec> Spill;
  std::vector<double *> Bases;
};

EngineScratch &tlsScratch() {
  static thread_local EngineScratch S;
  return S;
}

OperandRef classifyOperand(const Operand &O, const Routine &R,
                           std::vector<LaneVec> &ImmPool) {
  OperandRef Ref;
  switch (O.K) {
  case Operand::Kind::VReg:
    Ref.F = OperandRef::Form::VReg;
    Ref.Index = O.Reg;
    break;
  case Operand::Kind::SReg:
    Ref.F = OperandRef::Form::SReg;
    Ref.Index = O.Reg;
    break;
  case Operand::Kind::Imm: {
    Ref.F = OperandRef::Form::Imm;
    Ref.Index = static_cast<uint32_t>(ImmPool.size());
    LaneVec V;
    for (double &L : V.L)
      L = O.Imm;
    ImmPool.push_back(V);
    break;
  }
  case Operand::Kind::Mem:
    if (O.Reg >= R.NumPtrArgs) {
      // Spill slot: one lane vector of PE-local scratch; offset and
      // stride do not participate (PEState::memAddr semantics).
      Ref.F = OperandRef::Form::Spill;
      Ref.Index = O.Reg - R.NumPtrArgs;
    } else {
      Ref.F = OperandRef::Form::Mem;
      Ref.Index = O.Reg;
      Ref.Offset = O.Offset;
      Ref.Stride = O.Stride;
    }
    break;
  }
  return Ref;
}

std::shared_ptr<const CompiledRoutine> translate(const Routine &R) {
  auto CR = std::make_shared<CompiledRoutine>();
  CR->Use = R.scratchUse();
  CR->NumPtrArgs = R.NumPtrArgs;
  CR->Prog.reserve(R.Body.size());
  for (const Instruction &I : R.Body) {
    CompiledOp Op;
    const unsigned NSrcs =
        static_cast<unsigned>(std::min<size_t>(I.Srcs.size(), 3));
    Op.Kernel = lookupKernel(I.Op, NSrcs);
    for (unsigned S = 0; S < NSrcs; ++S)
      Op.Srcs[S] = classifyOperand(I.Srcs[S], R, CR->ImmPool);
    if (I.HasMemDst) {
      Op.Dst = classifyOperand(I.MemDst, R, CR->ImmPool);
    } else {
      Op.Dst.F = OperandRef::Form::VReg;
      Op.Dst.Index = I.DstVReg;
    }
    F90Y_CHECK(Op.Dst.F == OperandRef::Form::VReg ||
                   Op.Dst.F == OperandRef::Form::Mem ||
                   Op.Dst.F == OperandRef::Form::Spill,
               "PEAC destination must be a vector register or memory");
    CR->Prog.push_back(Op);
  }
  return CR;
}

//===----------------------------------------------------------------------===//
// Structural fingerprint (FNV-1a)
//===----------------------------------------------------------------------===//

using support::Fnv1a;

void hashOperand(Fnv1a &F, const Operand &O) {
  F.u64(static_cast<uint64_t>(O.K));
  F.u64(O.Reg);
  F.f64(O.Imm);
  F.u64(static_cast<uint64_t>(O.Offset));
  F.u64(static_cast<uint64_t>(O.Stride));
}

uint64_t fingerprint(const Routine &R) {
  Fnv1a F;
  F.str(R.Name);
  F.u64(R.NumPtrArgs);
  F.u64(R.NumScalarArgs);
  F.u64(R.NumSpillSlots);
  F.u64(R.Body.size());
  for (const Instruction &I : R.Body) {
    F.u64(static_cast<uint64_t>(I.Op));
    F.u64(I.Srcs.size());
    for (const Operand &S : I.Srcs)
      hashOperand(F, S);
    F.u64(I.DstVReg);
    F.u64(I.HasMemDst);
    if (I.HasMemDst)
      hashOperand(F, I.MemDst);
    F.u64(I.FusedWithPrev);
    F.u64(I.IsSpill);
  }
  return F.H;
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-PE sweep
//===----------------------------------------------------------------------===//

void CompiledRoutine::runPE(const ExecArgs &Args, const LaneVec *ScalarPool,
                            unsigned PE, unsigned Width,
                            int64_t Iters) const {
  EngineScratch &S = tlsScratch();
  if (S.VRegs.size() < Use.VRegs)
    S.VRegs.resize(Use.VRegs);
  if (S.Spill.size() < Use.SpillSlots)
    S.Spill.resize(Use.SpillSlots);
  if (S.Bases.size() < NumPtrArgs)
    S.Bases.resize(NumPtrArgs);
  // Interpreter parity: a fresh PEState zero-initializes its register
  // files per PE, so a routine that reads before writing sees zeros.
  std::fill_n(S.VRegs.begin(), Use.VRegs, LaneVec{});
  std::fill_n(S.Spill.begin(), Use.SpillSlots, LaneVec{});
  for (unsigned P = 0; P < NumPtrArgs; ++P) {
    const PtrBinding &B = Args.Ptrs[P];
    S.Bases[P] = B.Data + static_cast<size_t>(PE) * B.PEStride + B.Offset;
  }

  PEContext C;
  C.VRegs = S.VRegs.data();
  C.Spill = S.Spill.data();
  C.ScalarPool = ScalarPool;
  C.ImmPool = ImmPool.data();
  C.Bases = S.Bases.data();
  C.Width = Width;
  const CompiledOp *Begin = Prog.data();
  const CompiledOp *End = Begin + Prog.size();
  for (int64_t It = 0; It < Iters; ++It) {
    C.IterBase = It * Width;
    // It < Iters implies at least one valid lane remains.
    C.StoreLanes = static_cast<unsigned>(
        std::min<int64_t>(Width, Args.SubgridElems - C.IterBase));
    for (const CompiledOp *Op = Begin; Op != End; ++Op)
      Op->Kernel(*Op, C);
  }
}

//===----------------------------------------------------------------------===//
// RoutineCache
//===----------------------------------------------------------------------===//

RoutineCache::~RoutineCache() = default;

RoutineCache &RoutineCache::process() {
  static RoutineCache C;
  return C;
}

std::shared_ptr<const CompiledRoutine>
RoutineCache::get(const Routine &R, observe::MetricsRegistry *Metrics) {
  const uint64_t FP = fingerprint(R);
  std::shared_ptr<const CompiledRoutine> CR;
  bool Hit = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Map.find(&R);
    if (It != Map.end() && It->second.Fingerprint == FP) {
      ++Hits;
      Hit = true;
      CR = It->second.Compiled;
    } else {
      // Miss (or a stale entry from a freed routine whose address was
      // reused). Translation happens under the lock deliberately: when
      // multiple engines first touch one shared routine concurrently (the
      // serve scheduler's workers over a cached compilation), exactly one
      // translation runs and exactly one miss is counted, so the
      // peac.engine.cache.* totals stay a pure function of the workload.
      // Translation is a short, allocation-bound walk of the routine body;
      // holding the lock across it is cheaper than racing duplicates.
      CR = translate(R);
      if (Map.size() >= MaxEntries && !Map.count(&R))
        Map.clear();
      Map[&R] = Entry{FP, CR};
      ++Misses;
    }
  }
  if (Metrics)
    Metrics->count(Hit ? "peac.engine.cache.hits"
                       : "peac.engine.cache.misses");
  return CR;
}

void RoutineCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Map.clear();
}

size_t RoutineCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Map.size();
}

uint64_t RoutineCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

uint64_t RoutineCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

//===----------------------------------------------------------------------===//
// ExecutionEngine
//===----------------------------------------------------------------------===//

ExecResult ExecutionEngine::execute(const Routine &R, const ExecArgs &Args,
                                    const cm2::CostModel &Costs,
                                    support::ThreadPool *Pool,
                                    support::FaultInjector *FI,
                                    observe::MetricsRegistry *Metrics) {
  if (Kind == EngineKind::Interp)
    return peac::execute(R, Args, Costs, Pool, FI, Metrics);

  std::shared_ptr<const CompiledRoutine> CR = Cache->get(R, Metrics);
  F90Y_CHECK(CR->Use.VRegs <= Costs.VectorRegs,
             "PEAC routine uses more vector registers than the machine");
  F90Y_CHECK(CR->Use.SpillSlots <= R.NumSpillSlots,
             "PEAC routine references undeclared spill slots");
  F90Y_CHECK(CR->Use.ScalarArgs <= Args.Scalars.size(),
             "PEAC routine references unbound scalar arguments");
  F90Y_CHECK(R.NumPtrArgs <= Args.Ptrs.size(),
             "PEAC routine references unbound pointer arguments");

  const unsigned Width = Costs.VectorWidth;
  const int64_t Iters =
      Args.SubgridElems <= 0 ? 0 : (Args.SubgridElems + Width - 1) / Width;

  // Scalar arguments are dispatch constants: broadcast them to lane
  // vectors once here (on the calling thread, before the sweep) so
  // kernels resolve an SReg to a plain pointer. Thread-local and grown
  // once, like the sweep scratch.
  static thread_local std::vector<LaneVec> ScalarPool;
  if (ScalarPool.size() < CR->Use.ScalarArgs)
    ScalarPool.resize(CR->Use.ScalarArgs);
  for (unsigned I = 0; I < CR->Use.ScalarArgs; ++I)
    for (double &L : ScalarPool[I].L)
      L = Args.Scalars[I];
  const LaneVec *Scalars = ScalarPool.data();

  const CompiledRoutine *Program = CR.get();
  return detail::dispatch(R, Args, Costs, Pool, FI, Metrics,
                          [Program, &Args, Scalars, Width,
                           Iters](unsigned PE) {
                            Program->runPE(Args, Scalars, PE, Width, Iters);
                          });
}

void ExecutionEngine::warmup(const std::vector<Routine> &Routines,
                             observe::MetricsRegistry *Metrics) {
  if (Kind == EngineKind::Interp)
    return;
  for (const Routine &R : Routines)
    (void)Cache->get(R, Metrics);
}
