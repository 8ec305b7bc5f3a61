//===- runtime/CmRuntime.cpp - CM runtime system -----------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CmRuntime.h"

#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "support/FaultInjector.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <new>

using namespace f90y;
using namespace f90y::runtime;
using support::FaultInjector;
using support::FaultKind;
using support::RtCode;
using support::RtResult;
using support::RtStatus;

const Geometry *CmRuntime::getGeometry(const std::vector<int64_t> &Extents,
                                       const std::vector<int64_t> &Los) {
  std::string Key;
  for (size_t D = 0; D < Extents.size(); ++D)
    Key += std::to_string(Los[D]) + ":" + std::to_string(Extents[D]) + "x";
  auto It = Geometries.find(Key);
  if (It != Geometries.end())
    return It->second.get();
  auto Geo = std::make_unique<Geometry>(
      Geometry::layout(Extents, Los, Costs.NumPEs, Costs.VectorWidth));
  const Geometry *Raw = Geo.get();
  Geometries[Key] = std::move(Geo);
  return Raw;
}

RtResult<int> CmRuntime::tryAllocField(const Geometry *Geo, ElemKind Kind) {
  size_t Elems = static_cast<size_t>(Geo->GridPEs * Geo->PaddedSubgrid);
  if (Injector && Injector->fire(FaultKind::AllocOom))
    return RtStatus::fault(
        RtCode::OutOfMemory,
        "parallel heap exhausted allocating " + std::to_string(Elems) +
            " elements for geometry " + Geo->signature());
  PeArray A;
  A.Geo = Geo;
  A.Kind = Kind;
  try {
    A.Data.assign(Elems, 0.0);
  } catch (const std::bad_alloc &) {
    return RtStatus::fault(RtCode::OutOfMemory,
                           "host allocation of " + std::to_string(Elems) +
                               " elements failed for geometry " +
                               Geo->signature());
  }
  int Handle = NextHandle++;
  Fields[Handle] = std::move(A);
  return Handle;
}

int CmRuntime::allocField(const Geometry *Geo, ElemKind Kind) {
  // Compiler-internal and scaffolding allocations (coordinate subgrids,
  // tests, benchmarks) bypass OOM injection: the fault model targets
  // program field allocations, which go through tryAllocField.
  FaultInjector *Saved = Injector;
  Injector = nullptr;
  RtResult<int> R = tryAllocField(Geo, Kind);
  Injector = Saved;
  F90Y_CHECK(R.isOk(), "unrecoverable internal field allocation failure");
  return R.value();
}

void CmRuntime::freeField(int Handle) {
  Fields.erase(Handle);
  // The coordinate-field cache hands out plain field handles; drop any
  // entry for this handle so a later coordField for the same geometry
  // rebuilds instead of returning a handle that trips field()'s assert.
  for (auto It = CoordFields.begin(); It != CoordFields.end();) {
    if (It->second == Handle)
      It = CoordFields.erase(It);
    else
      ++It;
  }
}

PeArray &CmRuntime::field(int Handle) {
  auto It = Fields.find(Handle);
  F90Y_CHECK(It != Fields.end(), "use of a freed or invalid field handle");
  return It->second;
}

const PeArray &CmRuntime::field(int Handle) const {
  auto It = Fields.find(Handle);
  F90Y_CHECK(It != Fields.end(), "use of a freed or invalid field handle");
  return It->second;
}

bool CmRuntime::isLiveField(int Handle) const {
  return Fields.count(Handle) != 0;
}

std::vector<double> CmRuntime::snapshotField(int Handle) const {
  return field(Handle).Data;
}

void CmRuntime::restoreField(int Handle, const std::vector<double> &Saved) {
  PeArray &A = field(Handle);
  F90Y_CHECK(Saved.size() == A.Data.size(),
             "field checkpoint does not match the field's storage size");
  // In-place copy: live PEAC pointer bindings into Data stay valid.
  std::copy(Saved.begin(), Saved.end(), A.Data.begin());
  if (Injector)
    ++Injector->counters().Rollbacks;
  if (Trace)
    Trace->cycleInstant("rollback", "fault", Ledger.total(),
                        {observe::arg("field", static_cast<int64_t>(Handle))});
  if (Metrics)
    Metrics->count("fault.rollbacks");
}

RtStatus CmRuntime::runFaultableComm(FaultKind Transient, const char *OpName,
                                     const std::vector<int> &DstHandles,
                                     const std::function<void()> &Sweep) {
  if (!Trace && !Metrics) // Disabled observability: the untouched path.
    return runFaultableCommGated(Transient, OpName, DstHandles, Sweep);

  ObsGeo = nullptr;
  ObsElems = ObsHops = 0;
  const double Before = Ledger.total();
  const uint64_t RetriesBefore = Injector ? Injector->counters().Retries : 0;
  RtStatus St = runFaultableCommGated(Transient, OpName, DstHandles, Sweep);
  const double After = Ledger.total();
  const uint64_t Retries =
      (Injector ? Injector->counters().Retries : 0) - RetriesBefore;
  const int64_t Bytes = ObsElems * 8; // Fields store 8-byte elements.
  if (Trace) {
    std::vector<observe::TraceArg> Args;
    if (ObsGeo)
      Args.push_back(observe::arg("geometry", ObsGeo->signature()));
    Args.push_back(observe::arg("elems", ObsElems));
    Args.push_back(observe::arg("bytes", Bytes));
    Args.push_back(observe::arg("hops", ObsHops));
    if (Retries)
      Args.push_back(observe::arg("retries", Retries));
    if (!St)
      Args.push_back(observe::arg("status", "fault"));
    Trace->cycleSpan(OpName, "comm", Before, After, std::move(Args));
  }
  if (Metrics) {
    std::string P = "comm.";
    for (const char *C = OpName; *C; ++C)
      P += *C == ' ' ? '-' : *C;
    P += '.';
    Metrics->count(P + "ops");
    Metrics->count(P + "bytes", static_cast<uint64_t>(Bytes));
    if (ObsHops)
      Metrics->count(P + "hops", static_cast<uint64_t>(ObsHops));
    Metrics->countCycles(P + "cycles", After - Before);
  }
  return St;
}

RtStatus CmRuntime::runFaultableCommGated(FaultKind Transient,
                                          const char *OpName,
                                          const std::vector<int> &DstHandles,
                                          const std::function<void()> &Sweep) {
  FaultInjector *FI = Injector;
  if (!FI) { // Zero-fault fast path: no gates, no checkpoint.
    Sweep();
    return RtStatus::ok();
  }

  // Transient pre-transfer faults (dropped router message, grid-link
  // timeout): the op fails before any data moves, charges the startup it
  // wasted plus an escalating backoff, and is retried.
  for (unsigned Attempt = 1; FI->fire(Transient); ++Attempt) {
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        static_cast<double>(Costs.FaultRetryBackoffCycles) * Attempt;
    if (Attempt > MaxFaultRetries)
      return RtStatus::fault(
          RtCode::CommFault,
          std::string(OpName) + ": " +
              (Transient == FaultKind::RouterDrop
                   ? "router message dropped on "
                   : "NEWS grid link timed out on ") +
              std::to_string(Attempt) + " consecutive attempts; giving up");
    ++FI->counters().Retries;
    if (Trace)
      Trace->cycleInstant("retry", "fault", Ledger.total(),
                          {observe::arg("op", OpName),
                           observe::arg("attempt",
                                        static_cast<uint64_t>(Attempt))});
    if (Metrics)
      Metrics->count("fault.retries");
  }

  // The transfer itself, with end-to-end corruption detection. A
  // corrupted transfer rolls every destination back to its pre-op
  // checkpoint and redoes the whole sweep (recharging its cycles: the
  // machine really repeats the work).
  std::vector<std::pair<int, std::vector<double>>> Ckpts;
  if (FI->enabled(FaultKind::Corruption))
    for (int DstHandle : DstHandles)
      Ckpts.emplace_back(DstHandle, snapshotField(DstHandle));
  for (unsigned Attempt = 1;; ++Attempt) {
    Sweep();
    if (!FI->fire(FaultKind::Corruption))
      return RtStatus::ok();
    if (Attempt > MaxFaultRetries)
      return RtStatus::fault(RtCode::DataCorrupt,
                             std::string(OpName) +
                                 ": transfer checksum failed on " +
                                 std::to_string(Attempt) +
                                 " consecutive attempts; giving up");
    for (const auto &[DstHandle, Ckpt] : Ckpts)
      restoreField(DstHandle, Ckpt);
    ++FI->counters().Retries;
    Ledger.CommCycles +=
        static_cast<double>(Costs.FaultRetryBackoffCycles) * Attempt;
    if (Trace)
      Trace->cycleInstant("retry", "fault", Ledger.total(),
                          {observe::arg("op", OpName),
                           observe::arg("attempt",
                                        static_cast<uint64_t>(Attempt))});
    if (Metrics)
      Metrics->count("fault.retries");
  }
}

int CmRuntime::coordField(const Geometry *Geo, unsigned Dim) {
  std::string Key = Geo->signature() + "#" + std::to_string(Dim);
  auto It = CoordFields.find(Key);
  if (It != CoordFields.end())
    return It->second;
  int Handle = allocField(Geo, ElemKind::Int);
  PeArray &A = field(Handle);
  std::vector<int64_t> Coord;
  for (int64_t PE = 0; PE < Geo->GridPEs; ++PE) {
    double *Base = A.peBase(PE);
    for (int64_t Off = 0; Off < Geo->PaddedSubgrid; ++Off) {
      if (Geo->coordOf(PE, Off, Coord))
        Base[Off] = static_cast<double>(Coord[Dim - 1] + Geo->Los[Dim - 1]);
      else
        Base[Off] = 0; // Padding positions never feed active results.
    }
  }
  CoordFields[Key] = Handle;
  return Handle;
}

void CmRuntime::setFieldLayout(int Handle, std::vector<int64_t> AxisMap,
                               std::vector<int64_t> Offsets) {
  PeArray &A = field(Handle);
  bool AnyOffset = false;
  for (int64_t O : Offsets)
    AnyOffset |= O != 0;
  A.AxisMap = AnyOffset ? std::move(AxisMap) : std::vector<int64_t>();
  A.LayoutOffsets = AnyOffset ? std::move(Offsets) : std::vector<int64_t>();
}

double CmRuntime::readElement(int Handle,
                              const std::vector<int64_t> &ZeroCoord) {
  PeArray &A = field(Handle);
  int64_t PE, Off;
  if (A.hasLayout()) {
    std::vector<int64_t> Slot;
    A.toSlot(ZeroCoord, Slot);
    A.Geo->locate(Slot, PE, Off);
  } else
    A.Geo->locate(ZeroCoord, PE, Off);
  Ledger.CommCycles += Costs.RouterPerElem;
  if (Metrics) { // Scalar router traffic: too fine-grained for spans.
    Metrics->count("comm.element-read.ops");
    Metrics->countCycles("comm.element-read.cycles", Costs.RouterPerElem);
  }
  return A.peBase(PE)[Off];
}

void CmRuntime::writeElement(int Handle,
                             const std::vector<int64_t> &ZeroCoord,
                             double V) {
  PeArray &A = field(Handle);
  int64_t PE, Off;
  if (A.hasLayout()) {
    std::vector<int64_t> Slot;
    A.toSlot(ZeroCoord, Slot);
    A.Geo->locate(Slot, PE, Off);
  } else
    A.Geo->locate(ZeroCoord, PE, Off);
  Ledger.CommCycles += Costs.RouterPerElem;
  if (Metrics) {
    Metrics->count("comm.element-write.ops");
    Metrics->countCycles("comm.element-write.cycles", Costs.RouterPerElem);
  }
  if (A.Kind == ElemKind::Int)
    V = std::trunc(V);
  else if (A.Kind == ElemKind::Bool)
    V = V != 0 ? 1.0 : 0.0;
  A.peBase(PE)[Off] = V;
}

int64_t CmRuntime::hopDistance(const Geometry &Geo, int64_t FromPE,
                               int64_t ToPE, size_t D) {
  // Decompose the PE numbers along the grid (row-major).
  int64_t From = FromPE, To = ToPE;
  int64_t FromC = 0, ToC = 0;
  for (size_t K = Geo.Extents.size(); K-- > 0;) {
    int64_t FC = From % Geo.Grid[K];
    int64_t TC = To % Geo.Grid[K];
    From /= Geo.Grid[K];
    To /= Geo.Grid[K];
    if (K == D) {
      FromC = FC;
      ToC = TC;
    }
  }
  int64_t N = Geo.Grid[D];
  int64_t Fwd = ((ToC - FromC) % N + N) % N;
  return Fwd < N - Fwd ? Fwd : N - Fwd;
}

template <typename SourceOf>
CmRuntime::MoveCounts CmRuntime::gather(int Dst, int Src, const SourceOf &Map,
                                        std::optional<size_t> HopAxis) {
  PeArray &D = field(Dst);
  const PeArray &S = field(Src);
  const Geometry &DG = *D.Geo, &SG = *S.Geo;
  // An in-place move reads the source as it stood before the sweep.
  std::vector<double> Before;
  if (Dst == Src)
    Before = S.Data;
  const double *From = Dst == Src ? Before.data() : S.Data.data();

  // Destination PEs are independent, so chunks of them run concurrently.
  // Wire time is accumulated as integer hop counts per chunk and combined
  // in chunk order: the ledger charge is exact and thread-count
  // independent.
  return support::reduceChunksOrdered<MoveCounts>(
      Pool, DG.GridPEs,
      [&](int64_t Begin, int64_t End) {
        MoveCounts C;
        std::vector<int64_t> Coord, SrcCoord(SG.rank());
        for (int64_t PE = Begin; PE < End; ++PE) {
          double *Out = D.peBase(PE);
          for (int64_t Off = 0; Off < DG.SubgridElems; ++Off) {
            if (!DG.coordOf(PE, Off, Coord))
              continue;
            if (!Map(Coord, SrcCoord)) {
              Out[Off] = 0.0; // A real in-PE store, charged as local.
              ++C.FillElems;
              continue;
            }
            int64_t SrcPE, SrcOff;
            SG.locate(SrcCoord, SrcPE, SrcOff);
            Out[Off] = From[SrcPE * SG.PaddedSubgrid + SrcOff];
            if (!HopAxis)
              continue;
            if (SrcPE == PE)
              ++C.LocalElems;
            else
              C.WireHops += hopDistance(DG, PE, SrcPE, *HopAxis);
          }
        }
        return C;
      },
      [](MoveCounts &Acc, const MoveCounts &C) { Acc += C; });
}

RtStatus CmRuntime::shift(const char *OpName,
                          const std::vector<ShiftSpec> &Shifts, int Src,
                          unsigned Dim, bool EndOff) {
  const Geometry &Geo = *field(Src).Geo;
  size_t Axis = static_cast<size_t>(Dim - 1);
  int64_t N = Geo.Extents[Axis];
  std::vector<int> DstHandles;
  DstHandles.reserve(Shifts.size());
  for (const ShiftSpec &Spec : Shifts) {
    F90Y_CHECK(field(Spec.Dst).Geo->Extents == Geo.Extents,
               (std::string(OpName) + " requires a common shape").c_str());
    DstHandles.push_back(Spec.Dst);
  }

  // Every clause's data moves with its own gather, in clause order (an
  // aliased destination behaves exactly like the unfused sequence), but
  // the grid pays the fixed communication startup once. Positions shifted
  // past the edge by an end-off shift receive the EOSHIFT fill. A fault
  // retries or rolls back the whole exchange - all destinations together
  // - as one operation.
  return runFaultableComm(FaultKind::GridTimeout, OpName, DstHandles, [&] {
    MoveCounts Total;
    for (const ShiftSpec &Spec : Shifts) {
      const int64_t Shift = Spec.Shift;
      Total += gather(
          Spec.Dst, Src,
          [&](const std::vector<int64_t> &To, std::vector<int64_t> &From) {
            From = To;
            int64_t Pos = To[Axis] + Shift;
            if (!EndOff)
              Pos = (Pos % N + N) % N;
            else if (Pos < 0 || Pos >= N)
              return false;
            From[Axis] = Pos;
            return true;
          },
          Axis);
    }
    noteSweep(Geo, Geo.totalElements() * static_cast<int64_t>(Shifts.size()),
              Total.WireHops);
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        (Costs.GridLocalPerElem *
             static_cast<double>(Total.LocalElems + Total.FillElems) +
         Costs.GridWirePerElemHop * static_cast<double>(Total.WireHops)) /
            static_cast<double>(Geo.GridPEs);
  });
}

RtStatus CmRuntime::cshift(int Dst, int Src, unsigned Dim, int64_t Shift) {
  return shift("cshift", {{Dst, Shift}}, Src, Dim, /*EndOff=*/false);
}

RtStatus CmRuntime::eoshift(int Dst, int Src, unsigned Dim, int64_t Shift) {
  return shift("eoshift", {{Dst, Shift}}, Src, Dim, /*EndOff=*/true);
}

RtStatus CmRuntime::multiShift(const std::vector<ShiftSpec> &Shifts, int Src,
                               unsigned Dim, bool EndOff) {
  F90Y_CHECK(!Shifts.empty(), "multiShift requires at least one shift");
  // Exchanges saved relative to the unfused sequence (counted once per
  // call, not per fault retry: retries repeat work, not fusions).
  if (Metrics && Shifts.size() > 1)
    Metrics->count("comm.coalesced",
                   static_cast<uint64_t>(Shifts.size() - 1));
  return shift("multi-shift", Shifts, Src, Dim, EndOff);
}

RtStatus CmRuntime::transpose(int Dst, int Src) {
  const Geometry &DG = *field(Dst).Geo, &SG = *field(Src).Geo;
  F90Y_CHECK(DG.rank() == 2 && SG.rank() == 2, "transpose requires rank 2");
  // The destination must have the transposed extents, or the coordinate
  // swap below would ask SG.locate for out-of-range positions and read
  // other fields' subgrid memory. A correct program can hit this through
  // mismatched declarations, so it is a recoverable status, not a check.
  if (DG.Extents[0] != SG.Extents[1] || DG.Extents[1] != SG.Extents[0])
    return RtStatus::fault(
        RtCode::ShapeMismatch,
        "transpose: destination extents " + std::to_string(DG.Extents[0]) +
            "x" + std::to_string(DG.Extents[1]) +
            " are not the transpose of source extents " +
            std::to_string(SG.Extents[0]) + "x" +
            std::to_string(SG.Extents[1]));

  return runFaultableComm(FaultKind::RouterDrop, "transpose", {Dst}, [&] {
    gather(Dst, Src,
           [](const std::vector<int64_t> &To, std::vector<int64_t> &From) {
             From[0] = To[1];
             From[1] = To[0];
             return true;
           });
    noteSweep(DG, DG.totalElements(), /*Hops=*/0);
    // Transpose goes through the router; charge the per-element cost
    // spread across the machine (all PEs inject concurrently).
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        Costs.RouterPerElem * static_cast<double>(DG.totalElements()) /
            static_cast<double>(DG.GridPEs);
  });
}

RtStatus CmRuntime::sectionCopy(int Dst,
                                const std::vector<SectionDim> &DstSec,
                                int Src,
                                const std::vector<SectionDim> &SrcSec) {
  PeArray &D = field(Dst);
  const PeArray &S = field(Src);
  const Geometry &DG = *D.Geo, &SG = *S.Geo;
  F90Y_CHECK(DstSec.size() == DG.rank() && SrcSec.size() == SG.rank(),
             "section rank mismatch");

  // Iterate the section's position space.
  int64_t Total = 1;
  for (const SectionDim &SD : DstSec)
    Total *= SD.Count;
  if (Total == 0)
    return RtStatus::ok();

  return runFaultableComm(FaultKind::RouterDrop, "section copy", {Dst}, [&] {
    // Buffer destination values first: overlapping src/dst sections of the
    // same array keep Fortran vector semantics. The gather runs in parallel
    // over chunks of the section's linear position space (each position owns
    // its own Writes slot); the buffered writes are applied serially so
    // degenerate sections with repeated destination positions keep the
    // serial last-write order.
    std::vector<std::pair<size_t, double>> Writes(static_cast<size_t>(Total));
    struct Part {
      int64_t LocalElems = 0;
      int64_t RemoteElems = 0;
    };
    Part Counts = support::reduceChunksOrdered<Part>(
        Pool, Total,
        [&](int64_t Begin, int64_t End) {
          Part P;
          std::vector<int64_t> Pos(DstSec.size());
          std::vector<int64_t> DC(DstSec.size()), SC(SrcSec.size());
          // Decompose the chunk's first linear position (row-major).
          int64_t L = Begin;
          for (size_t K = DstSec.size(); K-- > 0;) {
            Pos[K] = L % DstSec[K].Count;
            L /= DstSec[K].Count;
          }
          for (int64_t Done = Begin; Done < End; ++Done) {
            for (size_t K = 0; K < DstSec.size(); ++K) {
              DC[K] = DstSec[K].Start + Pos[K] * DstSec[K].Stride;
              SC[K] = SrcSec[K].Start + Pos[K] * SrcSec[K].Stride;
            }
            int64_t DPE, DOff, SPE, SOff;
            DG.locate(DC, DPE, DOff);
            SG.locate(SC, SPE, SOff);
            double V = S.peBase(SPE)[SOff];
            if (D.Kind == ElemKind::Int)
              V = std::trunc(V);
            Writes[static_cast<size_t>(Done)] = {
                static_cast<size_t>(DPE * DG.PaddedSubgrid + DOff), V};
            if (SPE == DPE)
              ++P.LocalElems;
            else
              ++P.RemoteElems;
            for (size_t K = DstSec.size(); K-- > 0;) {
              if (++Pos[K] < DstSec[K].Count)
                break;
              Pos[K] = 0;
            }
          }
          return P;
        },
        [](Part &Acc, const Part &P) {
          Acc.LocalElems += P.LocalElems;
          Acc.RemoteElems += P.RemoteElems;
        });
    for (const auto &[Idx, V] : Writes)
      D.Data[Idx] = V;

    noteSweep(DG, Total, /*Hops=*/0);
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        (Costs.GridLocalPerElem * static_cast<double>(Counts.LocalElems) +
         Costs.RouterPerElem * static_cast<double>(Counts.RemoteElems)) /
            static_cast<double>(DG.GridPEs);
  });
}

RtResult<double> CmRuntime::tryReduce(ReduceOp Op, int Src) {
  const PeArray &S = field(Src);
  const Geometry &Geo = *S.Geo;
  double Out = 0;

  // Per-chunk partial folds in PE order, combined in chunk order. The
  // chunk decomposition is fixed by the PE count alone (ThreadPool
  // contract), so the result is identical at every thread count; for Sum
  // and Product the chunked combine may differ from a whole-machine left
  // fold in the final ulps, exactly as the real machine's tree combine
  // does (see programs_test's note on machine-vs-interpreter order).
  RtStatus St = runFaultableComm(FaultKind::GridTimeout, "reduce", {}, [&] {
    struct Part {
      bool Seen = false;
      double Acc = 0;
      int64_t CountTrue = 0;
    };
    Part Total = support::reduceChunksOrdered<Part>(
        Pool, Geo.GridPEs,
        [&](int64_t Begin, int64_t End) {
          Part P;
          std::vector<int64_t> Coord;
          for (int64_t PE = Begin; PE < End; ++PE) {
            const double *Base = S.peBase(PE);
            for (int64_t Off = 0; Off < Geo.SubgridElems; ++Off) {
              if (!Geo.coordOf(PE, Off, Coord))
                continue;
              double V = Base[Off];
              switch (Op) {
              case ReduceOp::Sum:
                P.Acc += V;
                break;
              case ReduceOp::Product:
                P.Acc = P.Seen ? P.Acc * V : V;
                break;
              case ReduceOp::Max:
                P.Acc = P.Seen ? (V > P.Acc ? V : P.Acc) : V;
                break;
              case ReduceOp::Min:
                P.Acc = P.Seen ? (V < P.Acc ? V : P.Acc) : V;
                break;
              case ReduceOp::Count:
              case ReduceOp::Any:
              case ReduceOp::All:
                P.CountTrue += V != 0;
                break;
              }
              P.Seen = true;
            }
          }
          return P;
        },
        [&](Part &A, const Part &P) {
          if (!P.Seen)
            return;
          if (!A.Seen) {
            A = P;
            return;
          }
          switch (Op) {
          case ReduceOp::Sum:
            A.Acc += P.Acc;
            break;
          case ReduceOp::Product:
            A.Acc *= P.Acc;
            break;
          case ReduceOp::Max:
            A.Acc = P.Acc > A.Acc ? P.Acc : A.Acc;
            break;
          case ReduceOp::Min:
            A.Acc = P.Acc < A.Acc ? P.Acc : A.Acc;
            break;
          case ReduceOp::Count:
          case ReduceOp::Any:
          case ReduceOp::All:
            A.CountTrue += P.CountTrue;
            break;
          }
        });

    noteSweep(Geo, Geo.totalElements(), /*Hops=*/0);
    // Local vectorized reduce + log2(P) combine steps.
    double LocalCycles = static_cast<double>(Geo.SubgridElems) *
                         Costs.VectorAluCycles /
                         static_cast<double>(Costs.VectorWidth);
    double Steps =
        std::ceil(std::log2(static_cast<double>(Geo.GridPEs) + 1));
    Ledger.CommCycles += Costs.CommStartupCycles + LocalCycles +
                         Steps * Costs.ReduceStepCycles;
    if (Op == ReduceOp::Sum || Op == ReduceOp::Product)
      Ledger.Flops += static_cast<uint64_t>(Geo.totalElements());

    switch (Op) {
    case ReduceOp::Count:
      Out = static_cast<double>(Total.CountTrue);
      break;
    case ReduceOp::Any:
      Out = Total.CountTrue > 0 ? 1.0 : 0.0;
      break;
    case ReduceOp::All:
      Out = Total.CountTrue == Geo.totalElements() ? 1.0 : 0.0;
      break;
    default:
      Out = Total.Acc;
      break;
    }
  });
  if (!St)
    return St;
  return Out;
}

double CmRuntime::reduce(ReduceOp Op, int Src) {
  RtResult<double> R = tryReduce(Op, Src);
  F90Y_CHECK(R.isOk(), "unrecoverable reduction fault");
  return R.value();
}

RtStatus CmRuntime::reduceAlongDim(ReduceOp Op, int Dst, int Src,
                                   unsigned Dim) {
  PeArray &D = field(Dst);
  const PeArray &S = field(Src);
  const Geometry &DG = *D.Geo, &SG = *S.Geo;
  size_t Axis = static_cast<size_t>(Dim - 1);
  F90Y_CHECK(Axis < SG.rank() && DG.rank() + 1 == SG.rank(),
             "reduceAlongDim rank mismatch");

  // Every destination element accumulates its own source line along the
  // reduced axis, in axis order, independently of all others - so chunks
  // of the destination position space run concurrently and the result is
  // bit-identical to the serial sweep.
  return runFaultableComm(FaultKind::GridTimeout, "reduce-dim", {Dst}, [&] {
  support::parallelChunks(
      Pool, DG.totalElements(), [&](int64_t, int64_t Begin, int64_t End) {
        std::vector<int64_t> Pos(DG.rank()), DC(DG.rank()), SC(SG.rank());
        // Decompose the chunk's first linear position (row-major).
        int64_t L = Begin;
        for (size_t K = DG.rank(); K-- > 0;) {
          Pos[K] = L % DG.Extents[K];
          L /= DG.Extents[K];
        }
        for (int64_t Done = Begin; Done < End; ++Done) {
          for (size_t K = 0, Out = 0; K < SG.rank(); ++K)
            SC[K] = K == Axis ? 0 : Pos[Out++];
          double Acc = 0;
          int64_t CountTrue = 0;
          for (int64_t K = 0; K < SG.Extents[Axis]; ++K) {
            SC[Axis] = K;
            int64_t PE, Off;
            SG.locate(SC, PE, Off);
            double V = S.peBase(PE)[Off];
            switch (Op) {
            case ReduceOp::Sum:
              Acc += V;
              break;
            case ReduceOp::Product:
              Acc = K == 0 ? V : Acc * V;
              break;
            case ReduceOp::Max:
              Acc = K == 0 ? V : (V > Acc ? V : Acc);
              break;
            case ReduceOp::Min:
              Acc = K == 0 ? V : (V < Acc ? V : Acc);
              break;
            case ReduceOp::Count:
            case ReduceOp::Any:
            case ReduceOp::All:
              CountTrue += V != 0;
              break;
            }
          }
          if (Op == ReduceOp::Count)
            Acc = static_cast<double>(CountTrue);
          else if (Op == ReduceOp::Any)
            Acc = CountTrue > 0 ? 1 : 0;
          else if (Op == ReduceOp::All)
            Acc = CountTrue == SG.Extents[Axis] ? 1 : 0;
          if (D.Kind == ElemKind::Int)
            Acc = std::trunc(Acc);
          std::copy(Pos.begin(), Pos.end(), DC.begin());
          int64_t DPE, DOff;
          DG.locate(DC, DPE, DOff);
          D.peBase(DPE)[DOff] = Acc;

          for (size_t K = Pos.size(); K-- > 0;) {
            if (++Pos[K] < DG.Extents[K])
              break;
            Pos[K] = 0;
          }
        }
      });

  noteSweep(SG, SG.totalElements(), /*Hops=*/0);
  // Cost: local vectorized accumulate over the source subgrid plus
  // log2(grid along the reduced axis) combine steps, then a redistribution
  // of the rank-reduced result through the router.
  double LocalCycles = static_cast<double>(SG.SubgridElems) *
                       Costs.VectorAluCycles /
                       static_cast<double>(Costs.VectorWidth);
  double Steps = std::ceil(
      std::log2(static_cast<double>(SG.Grid[Axis]) + 1));
  Ledger.CommCycles +=
      Costs.CommStartupCycles + LocalCycles +
      Steps * Costs.ReduceStepCycles +
      Costs.RouterPerElem * static_cast<double>(DG.totalElements()) /
          static_cast<double>(DG.GridPEs > 0 ? DG.GridPEs : 1);
  if (Op == ReduceOp::Sum || Op == ReduceOp::Product)
    Ledger.Flops += static_cast<uint64_t>(SG.totalElements());
  });
}

RtStatus CmRuntime::spreadAlongDim(int Dst, int Src, unsigned Dim) {
  const Geometry &DG = *field(Dst).Geo, &SG = *field(Src).Geo;
  size_t Axis = static_cast<size_t>(Dim - 1);
  F90Y_CHECK(Axis < DG.rank() && DG.rank() == SG.rank() + 1,
             "spreadAlongDim rank mismatch");

  // Pure broadcast: each destination reads the source with the spread
  // axis dropped.
  return runFaultableComm(FaultKind::RouterDrop, "spread", {Dst}, [&] {
    gather(Dst, Src,
           [Axis](const std::vector<int64_t> &To, std::vector<int64_t> &From) {
             for (size_t K = 0, In = 0; K < To.size(); ++K)
               if (K != Axis)
                 From[In++] = To[K];
             return true;
           });
    noteSweep(DG, DG.totalElements(), /*Hops=*/0);
    // Broadcast through the router (each source element fans out).
    Ledger.CommCycles +=
        Costs.CommStartupCycles +
        Costs.RouterPerElem * static_cast<double>(DG.totalElements()) /
            static_cast<double>(DG.GridPEs > 0 ? DG.GridPEs : 1);
  });
}

RtResult<std::string> CmRuntime::tryRenderField(int Handle) {
  const PeArray &A = field(Handle);
  const Geometry &Geo = *A.Geo;
  // Row-major over global coordinates; every element read crosses the
  // router, so the whole render retries as one faultable op.
  std::string Out;
  RtStatus St =
      runFaultableComm(FaultKind::RouterDrop, "field render", {}, [&] {
  Out.clear();
  std::vector<int64_t> Coord(Geo.rank(), 0);
  std::vector<int64_t> Slot;
  bool FirstElem = true;
  while (true) {
    int64_t PE, Off;
    if (A.hasLayout()) {
      A.toSlot(Coord, Slot);
      Geo.locate(Slot, PE, Off);
    } else
      Geo.locate(Coord, PE, Off);
    double V = A.peBase(PE)[Off];
    if (!FirstElem)
      Out += ' ';
    FirstElem = false;
    if (A.Kind == ElemKind::Int)
      Out += std::to_string(static_cast<int64_t>(V));
    else if (A.Kind == ElemKind::Bool)
      Out += V != 0 ? "T" : "F";
    else
      Out += formatDouble(V);
    size_t K = Geo.rank();
    bool Done = true;
    while (K-- > 0) {
      if (++Coord[K] < Geo.Extents[K]) {
        Done = false;
        break;
      }
      Coord[K] = 0;
    }
    if (Done)
      break;
  }
  noteSweep(Geo, Geo.totalElements(), /*Hops=*/0);
  Ledger.CommCycles +=
      Costs.RouterPerElem * static_cast<double>(Geo.totalElements());
  });
  if (!St)
    return St;
  return Out;
}

std::string CmRuntime::renderField(int Handle) {
  RtResult<std::string> R = tryRenderField(Handle);
  F90Y_CHECK(R.isOk(), "unrecoverable field render fault");
  return R.value();
}

//===----------------------------------------------------------------------===//
// Split-phase communication (-comm=overlap)
//===----------------------------------------------------------------------===//

uint64_t CmRuntime::commIssue(double Cycles, const std::vector<int> &Handles) {
  // The data network serializes with itself: there is a single in-flight
  // slot, so issuing a new exchange retires any previous one without
  // further credit (whatever it could hide has already been noted).
  Pending.Token = NextCommToken++;
  Pending.Remaining = Cycles;
  Pending.Handles = Handles;
  Ledger.HostCycles += Costs.CommIssueCycles;
  return Pending.Token;
}

void CmRuntime::commWait(uint64_t Token) {
  // Waiting on a stale token is a no-op: a later issue already retired it.
  if (Pending.Token == Token)
    Pending = InFlightComm();
}

void CmRuntime::commWaitAll() { Pending = InFlightComm(); }

double CmRuntime::noteCompute(double Cycles, const std::vector<int> &Handles) {
  if (Pending.Remaining <= 0)
    return 0.0;
  // A compute phase that touches an exchange's operands must wait for the
  // wire: it earns no credit, and the exchange stops hiding (the sequencer
  // stalls until the transfer drains).
  for (int H : Handles)
    if (std::find(Pending.Handles.begin(), Pending.Handles.end(), H) !=
        Pending.Handles.end()) {
      Pending = InFlightComm();
      return 0.0;
    }
  double Hidden = std::min(Cycles, Pending.Remaining);
  Pending.Remaining -= Hidden;
  double Saved = Hidden * Costs.CommOverlapEfficiency;
  if (Saved <= 0)
    return 0.0;
  Ledger.OverlappedCycles += Saved;
  if (Metrics)
    Metrics->countCycles("comm.overlapped_cycles", Saved);
  if (Trace) // Instants do not participate in the span-tiling invariant.
    Trace->cycleInstant("comm-hidden", "comm", Ledger.total(),
                        {observe::arg("cycles", Saved)});
  return Saved;
}
