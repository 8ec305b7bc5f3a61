//===- tests/runtime_test.cpp - CM runtime unit tests -----------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CmRuntime.h"
#include "runtime/Geometry.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::runtime;

namespace {

cm2::CostModel machineWith(unsigned PEs) {
  cm2::CostModel C;
  C.NumPEs = PEs;
  return C;
}

TEST(Geometry, LayoutFactorsPEsAcrossLargestDims) {
  Geometry G = Geometry::layout({128, 64}, {1, 1}, 16, 4);
  EXPECT_EQ(G.GridPEs, 16);
  // Greedy splitting: 128x64 over 16 PEs -> 8x2 grid with 16x32 subgrids.
  EXPECT_EQ(G.Grid[0] * G.Grid[1], 16);
  EXPECT_EQ(G.Sub[0] * G.Grid[0], 128);
  EXPECT_EQ(G.Sub[1] * G.Grid[1], 64);
  EXPECT_EQ(G.SubgridElems, 128 * 64 / 16);
}

TEST(Geometry, SmallArrayLeavesPEsIdle) {
  Geometry G = Geometry::layout({8}, {1}, 2048, 4);
  EXPECT_EQ(G.GridPEs, 8);
  EXPECT_EQ(G.SubgridElems, 1);
  EXPECT_EQ(G.PaddedSubgrid, 4);
}

TEST(Geometry, UnevenExtentPadsEdgeBlocks) {
  Geometry G = Geometry::layout({10}, {1}, 4, 4);
  EXPECT_EQ(G.GridPEs, 4);
  EXPECT_EQ(G.Sub[0], 3); // ceil(10/4)
  std::vector<int64_t> Coord;
  // PE 3 holds coords 9..11; 10 and 11 are padding.
  EXPECT_TRUE(G.coordOf(3, 0, Coord));
  EXPECT_EQ(Coord[0], 9);
  EXPECT_FALSE(G.coordOf(3, 1, Coord));
  EXPECT_FALSE(G.coordOf(3, 2, Coord));
}

TEST(Geometry, LocateAndCoordOfRoundTrip) {
  Geometry G = Geometry::layout({12, 20}, {1, 1}, 8, 4);
  std::vector<int64_t> Coord(2), Back;
  for (Coord[0] = 0; Coord[0] < 12; ++Coord[0]) {
    for (Coord[1] = 0; Coord[1] < 20; ++Coord[1]) {
      int64_t PE, Off;
      G.locate(Coord, PE, Off);
      ASSERT_LT(PE, G.GridPEs);
      ASSERT_LT(Off, G.SubgridElems);
      ASSERT_TRUE(G.coordOf(PE, Off, Back));
      EXPECT_EQ(Back, Coord);
    }
  }
}

class RuntimeTest : public ::testing::Test {
protected:
  cm2::CostModel Costs = machineWith(8);
  CmRuntime RT{Costs};

  int makeSeqField(const std::vector<int64_t> &Extents) {
    const Geometry *G = RT.getGeometry(Extents, std::vector<int64_t>(
                                                    Extents.size(), 1));
    int H = RT.allocField(G, ElemKind::Real);
    // Fill with the row-major linear index.
    std::vector<int64_t> Coord(Extents.size(), 0);
    int64_t Linear = 0;
    while (true) {
      RT.writeElement(H, Coord, static_cast<double>(Linear++));
      size_t K = Extents.size();
      bool Done = true;
      while (K-- > 0) {
        if (++Coord[K] < Extents[K]) {
          Done = false;
          break;
        }
        Coord[K] = 0;
      }
      if (Done)
        break;
    }
    return H;
  }

  double at(int H, std::vector<int64_t> Coord) {
    return RT.readElement(H, Coord);
  }
};

TEST_F(RuntimeTest, GeometryIsCachedBySignature) {
  const Geometry *A = RT.getGeometry({64, 64}, {1, 1});
  const Geometry *B = RT.getGeometry({64, 64}, {1, 1});
  const Geometry *C = RT.getGeometry({64, 32}, {1, 1});
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
}

TEST_F(RuntimeTest, CShift1D) {
  int Src = makeSeqField({16});
  int Dst = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  RT.cshift(Dst, Src, 1, 1); // dst(i) = src(i+1)
  EXPECT_DOUBLE_EQ(at(Dst, {0}), 1);
  EXPECT_DOUBLE_EQ(at(Dst, {14}), 15);
  EXPECT_DOUBLE_EQ(at(Dst, {15}), 0); // Wraps to src(0).
  RT.cshift(Dst, Src, 1, -1);
  EXPECT_DOUBLE_EQ(at(Dst, {0}), 15); // Wraps to src(15).
  EXPECT_DOUBLE_EQ(at(Dst, {1}), 0);
}

TEST_F(RuntimeTest, CShift2DAlongEachDim) {
  int Src = makeSeqField({4, 4});
  int Dst = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  RT.cshift(Dst, Src, 1, 1); // Rows shift.
  EXPECT_DOUBLE_EQ(at(Dst, {0, 0}), 4);
  EXPECT_DOUBLE_EQ(at(Dst, {3, 2}), 2);
  RT.cshift(Dst, Src, 2, 1); // Columns shift.
  EXPECT_DOUBLE_EQ(at(Dst, {0, 0}), 1);
  EXPECT_DOUBLE_EQ(at(Dst, {2, 3}), 8);
}

TEST_F(RuntimeTest, CShiftChargesCommCycles) {
  int Src = makeSeqField({64});
  int Dst = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  double Before = RT.ledger().CommCycles;
  RT.cshift(Dst, Src, 1, 1);
  EXPECT_GT(RT.ledger().CommCycles, Before + Costs.CommStartupCycles - 1);
}

TEST_F(RuntimeTest, LongerShiftsCostMoreWireTime) {
  int Src = makeSeqField({64});
  int Dst = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  RT.ledger().reset();
  RT.cshift(Dst, Src, 1, 1);
  double Short = RT.ledger().CommCycles;
  RT.ledger().reset();
  RT.cshift(Dst, Src, 1, 24);
  double Long = RT.ledger().CommCycles;
  EXPECT_GT(Long, Short);
}

TEST_F(RuntimeTest, EOShiftZeroFills) {
  int Src = makeSeqField({8});
  int Dst = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  RT.eoshift(Dst, Src, 1, 2);
  EXPECT_DOUBLE_EQ(at(Dst, {0}), 2);
  EXPECT_DOUBLE_EQ(at(Dst, {5}), 7);
  EXPECT_DOUBLE_EQ(at(Dst, {6}), 0);
  EXPECT_DOUBLE_EQ(at(Dst, {7}), 0);
}

TEST_F(RuntimeTest, TransposeSquare) {
  int Src = makeSeqField({4, 4});
  int Dst = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  RT.transpose(Dst, Src);
  EXPECT_DOUBLE_EQ(at(Dst, {1, 2}), at(Src, {2, 1}));
  EXPECT_DOUBLE_EQ(at(Dst, {0, 3}), 12);
}

TEST_F(RuntimeTest, SectionCopyMisaligned) {
  // l(32:64) = l(96:128), zero-based: dst 31..63 <- src 95..127.
  int H = makeSeqField({128});
  std::vector<CmRuntime::SectionDim> DstSec = {{31, 1, 33}};
  std::vector<CmRuntime::SectionDim> SrcSec = {{95, 1, 33}};
  RT.sectionCopy(H, DstSec, H, SrcSec);
  EXPECT_DOUBLE_EQ(at(H, {30}), 30);
  EXPECT_DOUBLE_EQ(at(H, {31}), 95);
  EXPECT_DOUBLE_EQ(at(H, {63}), 127);
  EXPECT_DOUBLE_EQ(at(H, {64}), 64);
}

TEST_F(RuntimeTest, SectionCopyOverlappingKeepsVectorSemantics) {
  int H = makeSeqField({8});
  // l(2:8) = l(1:7): every read happens before any write.
  std::vector<CmRuntime::SectionDim> DstSec = {{1, 1, 7}};
  std::vector<CmRuntime::SectionDim> SrcSec = {{0, 1, 7}};
  RT.sectionCopy(H, DstSec, H, SrcSec);
  EXPECT_DOUBLE_EQ(at(H, {0}), 0);
  EXPECT_DOUBLE_EQ(at(H, {1}), 0);
  EXPECT_DOUBLE_EQ(at(H, {7}), 6);
}

TEST_F(RuntimeTest, Reductions) {
  int H = makeSeqField({10}); // 0..9
  EXPECT_DOUBLE_EQ(RT.reduce(ReduceOp::Sum, H), 45);
  EXPECT_DOUBLE_EQ(RT.reduce(ReduceOp::Max, H), 9);
  EXPECT_DOUBLE_EQ(RT.reduce(ReduceOp::Min, H), 0);
  EXPECT_DOUBLE_EQ(RT.reduce(ReduceOp::Count, H), 9); // Nonzero count.
  EXPECT_DOUBLE_EQ(RT.reduce(ReduceOp::Any, H), 1);
  EXPECT_DOUBLE_EQ(RT.reduce(ReduceOp::All, H), 0); // Element 0 is zero.
}

TEST_F(RuntimeTest, ReductionIgnoresPadding) {
  // 10 elements over 8 PEs: subgrids of 2 with padding; padding must not
  // leak into the sum.
  int H = makeSeqField({10});
  EXPECT_DOUBLE_EQ(RT.reduce(ReduceOp::Sum, H), 45);
}

TEST_F(RuntimeTest, CoordFieldHoldsFortranCoordinates) {
  const Geometry *G = RT.getGeometry({6, 3}, {1, 1});
  int C1 = RT.coordField(G, 1);
  int C2 = RT.coordField(G, 2);
  EXPECT_DOUBLE_EQ(at(C1, {0, 0}), 1);
  EXPECT_DOUBLE_EQ(at(C1, {5, 2}), 6);
  EXPECT_DOUBLE_EQ(at(C2, {0, 0}), 1);
  EXPECT_DOUBLE_EQ(at(C2, {5, 2}), 3);
  // Cached per geometry+dim.
  EXPECT_EQ(RT.coordField(G, 1), C1);
}

TEST_F(RuntimeTest, IntFieldsTruncateOnElementWrite) {
  const Geometry *G = RT.getGeometry({4}, {1});
  int H = RT.allocField(G, ElemKind::Int);
  RT.writeElement(H, {0}, 2.9);
  EXPECT_DOUBLE_EQ(RT.readElement(H, {0}), 2.0);
}

TEST_F(RuntimeTest, RenderFieldRowMajor) {
  const Geometry *G = RT.getGeometry({2, 2}, {1, 1});
  int H = RT.allocField(G, ElemKind::Int);
  RT.writeElement(H, {0, 0}, 1);
  RT.writeElement(H, {0, 1}, 2);
  RT.writeElement(H, {1, 0}, 3);
  RT.writeElement(H, {1, 1}, 4);
  EXPECT_EQ(RT.renderField(H), "1 2 3 4");
}

TEST_F(RuntimeTest, FreeFieldReleasesHandle) {
  const Geometry *G = RT.getGeometry({4}, {1});
  int H = RT.allocField(G, ElemKind::Real);
  RT.freeField(H);
  int H2 = RT.allocField(G, ElemKind::Real);
  EXPECT_NE(H, H2);
}

TEST_F(RuntimeTest, FreeFieldEvictsCoordCache) {
  // Regression: freeing a cached coordinate field used to leave the
  // stale handle in the cache, so the next coordField for the same
  // geometry+dim returned a dangling handle.
  const Geometry *G = RT.getGeometry({6, 3}, {1, 1});
  int C1 = RT.coordField(G, 1);
  int C2 = RT.coordField(G, 2);
  RT.freeField(C1);
  int C1b = RT.coordField(G, 1);
  EXPECT_NE(C1b, C1); // A fresh field, not the freed handle.
  EXPECT_DOUBLE_EQ(at(C1b, {0, 0}), 1);
  EXPECT_DOUBLE_EQ(at(C1b, {5, 2}), 6);
  // The other dim's cache entry is untouched.
  EXPECT_EQ(RT.coordField(G, 2), C2);
  // Freeing a non-coordinate field does not disturb the cache.
  int H = RT.allocField(G, ElemKind::Real);
  RT.freeField(H);
  EXPECT_EQ(RT.coordField(G, 1), C1b);
}

TEST_F(RuntimeTest, CommOpsMatchSerialUnderThreadPool) {
  // The same op sequence on a pooled runtime must produce bit-identical
  // data and ledger charges as the serial (no-pool) runtime.
  support::ThreadPool Pool(4);
  CmRuntime PRT{Costs, &Pool};

  auto fill = [](CmRuntime &R) {
    const Geometry *G = R.getGeometry({12, 20}, {1, 1});
    int Src = R.allocField(G, ElemKind::Real);
    std::vector<int64_t> Coord(2);
    for (Coord[0] = 0; Coord[0] < 12; ++Coord[0])
      for (Coord[1] = 0; Coord[1] < 20; ++Coord[1])
        R.writeElement(Src, Coord,
                       0.5 * static_cast<double>(Coord[0] * 20 + Coord[1]));
    return Src;
  };
  int SA = fill(RT), SB = fill(PRT);
  int DA = RT.allocField(RT.field(SA).Geo, ElemKind::Real);
  int DB = PRT.allocField(PRT.field(SB).Geo, ElemKind::Real);

  RT.ledger().reset();
  PRT.ledger().reset();
  RT.cshift(DA, SA, 1, 3);
  PRT.cshift(DB, SB, 1, 3);
  RT.eoshift(DA, SA, 2, -2);
  PRT.eoshift(DB, SB, 2, -2);
  double RedA = RT.reduce(ReduceOp::Sum, SA);
  double RedB = PRT.reduce(ReduceOp::Sum, SB);

  EXPECT_EQ(RedA, RedB); // Bitwise.
  EXPECT_EQ(RT.field(DA).Data, PRT.field(DB).Data);
  EXPECT_EQ(RT.ledger().CommCycles, PRT.ledger().CommCycles);
}

TEST_F(RuntimeTest, TransposeRequiresTransposedExtents) {
  int Src = makeSeqField({4, 8});
  // Same (untransposed) extents: the coordinate swap would read out of
  // range, so the runtime reports a structured shape mismatch instead.
  int Bad = RT.allocField(RT.getGeometry({4, 8}, {1, 1}), ElemKind::Real);
  support::RtStatus St = RT.transpose(Bad, Src);
  EXPECT_FALSE(St.isOk());
  EXPECT_EQ(St.code(), support::RtCode::ShapeMismatch);
  EXPECT_NE(St.message().find("transpose"), std::string::npos);
  // The transposed destination geometry works and moves every element.
  int Good = RT.allocField(RT.getGeometry({8, 4}, {1, 1}), ElemKind::Real);
  ASSERT_TRUE(RT.transpose(Good, Src).isOk());
  EXPECT_DOUBLE_EQ(at(Good, {5, 2}), at(Src, {2, 5}));
  EXPECT_DOUBLE_EQ(at(Good, {0, 3}), at(Src, {3, 0}));
}

TEST_F(RuntimeTest, EoshiftChargesBoundaryFillStores) {
  // A shift past the whole extent fills every destination element: no
  // element moves, but every store still costs a local cycle. 64 elems
  // over 8 PEs at GridLocalPerElem=1.0: startup + 64/8 exactly.
  int Src = makeSeqField({64});
  int Dst = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  RT.ledger().reset();
  ASSERT_TRUE(RT.eoshift(Dst, Src, 1, 100).isOk());
  EXPECT_DOUBLE_EQ(RT.ledger().CommCycles,
                   Costs.CommStartupCycles + 64.0 / 8.0);
  EXPECT_DOUBLE_EQ(at(Dst, {0}), 0.0);
  EXPECT_DOUBLE_EQ(at(Dst, {63}), 0.0);
}

TEST_F(RuntimeTest, EoshiftLedgerIsExactIncludingFills) {
  // {64} over 8 PEs is 8-element blocks. Shift +2: per PE six elements
  // stay local and two cross one hop into the next block, except the last
  // PE whose top two positions are boundary fills. Exact charge:
  //   startup + (local 48 + fill 2 + 9.6 * 14 hops) / 8 PEs.
  int Src = makeSeqField({64});
  int Dst = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  RT.ledger().reset();
  ASSERT_TRUE(RT.eoshift(Dst, Src, 1, 2).isOk());
  EXPECT_DOUBLE_EQ(RT.ledger().CommCycles,
                   Costs.CommStartupCycles + (50.0 + 9.6 * 14.0) / 8.0);
}

TEST(RuntimeDeathTest, EoshiftRequiresCommonShape) {
  // Like cshift and multiShift, eoshift moves between fields of one
  // shape; a smaller source would otherwise be read past its storage.
  cm2::CostModel Costs = machineWith(8);
  CmRuntime RT(Costs);
  int Src = RT.allocField(RT.getGeometry({4}, {1}), ElemKind::Real);
  int Dst = RT.allocField(RT.getGeometry({64}, {1}), ElemKind::Real);
  EXPECT_DEATH(RT.eoshift(Dst, Src, 1, 1), "eoshift requires a common shape");
}

TEST_F(RuntimeTest, MultiShiftMatchesUnfusedShifts) {
  CmRuntime Ref(Costs); // Unfused reference on an identical machine.
  auto fill = [](CmRuntime &R) {
    const Geometry *G = R.getGeometry({48}, {1});
    int H = R.allocField(G, ElemKind::Real);
    std::vector<int64_t> Coord(1);
    for (Coord[0] = 0; Coord[0] < 48; ++Coord[0])
      R.writeElement(H, Coord, 1.25 * static_cast<double>(Coord[0]) - 3.0);
    return H;
  };
  int Src = fill(RT), RefSrc = fill(Ref);
  int A = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  int B = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  int C = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  int RA = Ref.allocField(Ref.field(RefSrc).Geo, ElemKind::Real);
  int RB = Ref.allocField(Ref.field(RefSrc).Geo, ElemKind::Real);
  int RC = Ref.allocField(Ref.field(RefSrc).Geo, ElemKind::Real);

  RT.ledger().reset();
  Ref.ledger().reset();
  ASSERT_TRUE(RT.multiShift({{A, 1}, {B, -1}, {C, 5}}, Src, 1,
                            /*EndOff=*/false)
                  .isOk());
  ASSERT_TRUE(Ref.cshift(RA, RefSrc, 1, 1).isOk());
  ASSERT_TRUE(Ref.cshift(RB, RefSrc, 1, -1).isOk());
  ASSERT_TRUE(Ref.cshift(RC, RefSrc, 1, 5).isOk());

  EXPECT_EQ(RT.field(A).Data, Ref.field(RA).Data);
  EXPECT_EQ(RT.field(B).Data, Ref.field(RB).Data);
  EXPECT_EQ(RT.field(C).Data, Ref.field(RC).Data);
  // One startup instead of three; the per-element charges are identical.
  EXPECT_DOUBLE_EQ(RT.ledger().CommCycles,
                   Ref.ledger().CommCycles - 2.0 * Costs.CommStartupCycles);
}

TEST_F(RuntimeTest, MultiShiftEoshiftFillsAndCharges) {
  int Src = makeSeqField({32});
  int A = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  int B = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  ASSERT_TRUE(
      RT.multiShift({{A, 2}, {B, -3}}, Src, 1, /*EndOff=*/true).isOk());
  EXPECT_DOUBLE_EQ(at(A, {0}), 2);
  EXPECT_DOUBLE_EQ(at(A, {30}), 0); // Fill.
  EXPECT_DOUBLE_EQ(at(A, {31}), 0);
  EXPECT_DOUBLE_EQ(at(B, {0}), 0); // Fill.
  EXPECT_DOUBLE_EQ(at(B, {2}), 0);
  EXPECT_DOUBLE_EQ(at(B, {3}), 0);
  EXPECT_DOUBLE_EQ(at(B, {4}), 1);
  EXPECT_DOUBLE_EQ(at(B, {31}), 28);
}

TEST_F(RuntimeTest, MultiShiftAliasedDestinationMatchesUnfusedSequence) {
  // A clause whose destination is the source behaves exactly like the
  // unfused sequence: earlier clauses read the original values, the
  // aliased clause snapshots its own source.
  CmRuntime Ref(Costs);
  int Src = makeSeqField({16});
  int A = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  const Geometry *G = Ref.getGeometry({16}, {1});
  int RefSrc = Ref.allocField(G, ElemKind::Real);
  std::vector<int64_t> Coord(1);
  for (Coord[0] = 0; Coord[0] < 16; ++Coord[0])
    Ref.writeElement(RefSrc, Coord, static_cast<double>(Coord[0]));
  int RA = Ref.allocField(G, ElemKind::Real);

  ASSERT_TRUE(
      RT.multiShift({{A, 1}, {Src, 2}}, Src, 1, /*EndOff=*/false).isOk());
  ASSERT_TRUE(Ref.cshift(RA, RefSrc, 1, 1).isOk());
  ASSERT_TRUE(Ref.cshift(RefSrc, RefSrc, 1, 2).isOk());
  EXPECT_EQ(RT.field(A).Data, Ref.field(RA).Data);
  EXPECT_EQ(RT.field(Src).Data, Ref.field(RefSrc).Data);
}

TEST_F(RuntimeTest, MultiShiftRecoversFaultsLikeUnfusedShifts) {
  // Transient grid timeouts and transfer corruption on the coalesced
  // exchange retry / roll back the whole exchange: values match a
  // fault-free machine, and recovery strictly raises the comm charge.
  support::FaultSpec Spec;
  std::string Error;
  ASSERT_TRUE(
      support::FaultSpec::parse("grid-timeout:0.4,corrupt:0.4", Spec, Error))
      << Error;
  support::FaultInjector Injector(Spec, /*Seed=*/7);
  CmRuntime Ref(Costs);

  int Src = makeSeqField({48});
  int A = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  int B = RT.allocField(RT.field(Src).Geo, ElemKind::Real);
  const Geometry *G = Ref.getGeometry({48}, {1});
  int RefSrc = Ref.allocField(G, ElemKind::Real);
  std::vector<int64_t> Coord(1);
  for (Coord[0] = 0; Coord[0] < 48; ++Coord[0])
    Ref.writeElement(RefSrc, Coord, static_cast<double>(Coord[0]));
  int RA = Ref.allocField(G, ElemKind::Real);
  int RB = Ref.allocField(G, ElemKind::Real);
  ASSERT_TRUE(Ref.cshift(RA, RefSrc, 1, 3).isOk());
  ASSERT_TRUE(Ref.cshift(RB, RefSrc, 1, -3).isOk());
  double CleanCharge = 0;
  {
    CmRuntime Clean(Costs);
    int CSrc = Clean.allocField(Clean.getGeometry({48}, {1}),
                                ElemKind::Real);
    int CA = Clean.allocField(Clean.field(CSrc).Geo, ElemKind::Real);
    int CB = Clean.allocField(Clean.field(CSrc).Geo, ElemKind::Real);
    ASSERT_TRUE(Clean.multiShift({{CA, 3}, {CB, -3}}, CSrc, 1, false).isOk());
    CleanCharge = Clean.ledger().CommCycles;
  }

  RT.setFaultInjector(&Injector);
  RT.ledger().reset();
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(RT.multiShift({{A, 3}, {B, -3}}, Src, 1, false).isOk());
  RT.setFaultInjector(nullptr);
  EXPECT_EQ(RT.field(A).Data, Ref.field(RA).Data);
  EXPECT_EQ(RT.field(B).Data, Ref.field(RB).Data);
  EXPECT_GT(Injector.counters().Retries, 0u);
  // Recovery is never free: four exchanges with faults cost strictly more
  // than four fault-free ones.
  EXPECT_GT(RT.ledger().CommCycles, 4.0 * CleanCharge);
}

TEST_F(RuntimeTest, SectionCopyReversedOverlapKeepsVectorSemantics) {
  // l(1:8) = l(8:1:-1): a self-reversal. Every read gathers before any
  // write scatters, so the result is the exact reversal, not a partially
  // overwritten mix.
  int H = makeSeqField({8});
  std::vector<CmRuntime::SectionDim> DstSec = {{0, 1, 8}};
  std::vector<CmRuntime::SectionDim> SrcSec = {{7, -1, 8}};
  ASSERT_TRUE(RT.sectionCopy(H, DstSec, H, SrcSec).isOk());
  for (int64_t I = 0; I < 8; ++I)
    EXPECT_DOUBLE_EQ(at(H, {I}), static_cast<double>(7 - I));
}

TEST_F(RuntimeTest, SectionCopyStridedOverlapKeepsVectorSemantics) {
  // l(2:8:2) = l(1:7:2) on one array: interleaved stride-2 sections.
  int H = makeSeqField({8}); // 0..7
  std::vector<CmRuntime::SectionDim> DstSec = {{1, 2, 4}};
  std::vector<CmRuntime::SectionDim> SrcSec = {{0, 2, 4}};
  ASSERT_TRUE(RT.sectionCopy(H, DstSec, H, SrcSec).isOk());
  EXPECT_DOUBLE_EQ(at(H, {0}), 0);
  EXPECT_DOUBLE_EQ(at(H, {1}), 0);
  EXPECT_DOUBLE_EQ(at(H, {3}), 2);
  EXPECT_DOUBLE_EQ(at(H, {5}), 4);
  EXPECT_DOUBLE_EQ(at(H, {7}), 6);
  EXPECT_DOUBLE_EQ(at(H, {2}), 2); // Untouched odd positions... even src.
}

} // namespace
