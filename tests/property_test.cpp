//===- tests/property_test.cpp - parameterized property sweeps --------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based sweeps (gtest TEST_P):
///  - geometry layout/locate/coordOf round-trips over many shapes and
///    machine sizes;
///  - shift algebra on the runtime (cshift inverse, composition,
///    full-cycle identity) across dims, distances, and machine sizes;
///  - cshift, eoshift, multiShift, transpose and spread against an
///    independent logical-coordinate model of values, hops and cycles;
///  - the compile-and-run-equals-interpret property over a generated
///    family of data-parallel programs, across profiles and machines;
///  - transformation idempotence (optimizing twice = optimizing once).
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "interp/Interpreter.h"
#include "nir/Equality.h"
#include "nir/Printer.h"
#include "observe/Metrics.h"
#include "runtime/CmRuntime.h"
#include "support/ThreadPool.h"
#include "transform/Transforms.h"

#include <gtest/gtest.h>

using namespace f90y;
using namespace f90y::driver;
using namespace f90y::runtime;

namespace {

//===--------------------------------------------------------------------===//
// Geometry round-trip
//===--------------------------------------------------------------------===//

struct GeometryCase {
  std::vector<int64_t> Extents;
  int64_t PEs;
};

// Names each case by its values (e.g. "13x9_pe8") so test names are stable;
// gtest's default byte dump would include the vector's heap address.
void PrintTo(const GeometryCase &C, std::ostream *OS) {
  for (size_t D = 0; D < C.Extents.size(); ++D)
    *OS << (D ? "x" : "") << C.Extents[D];
  *OS << "_pe" << C.PEs;
}

class GeometryProperty : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(GeometryProperty, LocateCoordOfRoundTrip) {
  const GeometryCase &C = GetParam();
  Geometry G = Geometry::layout(C.Extents,
                                std::vector<int64_t>(C.Extents.size(), 1),
                                C.PEs, 4);
  // Structure invariants.
  EXPECT_LE(G.GridPEs, C.PEs);
  int64_t Covered = 1;
  for (size_t D = 0; D < C.Extents.size(); ++D) {
    EXPECT_GE(G.Sub[D] * G.Grid[D], C.Extents[D]);
    Covered *= G.Sub[D] * G.Grid[D];
  }
  EXPECT_GE(Covered, G.totalElements());
  EXPECT_EQ(G.PaddedSubgrid % 4, 0);

  // Every element has a unique home, and the maps invert each other.
  std::set<std::pair<int64_t, int64_t>> Homes;
  std::vector<int64_t> Coord(C.Extents.size(), 0), Back;
  bool Done = false;
  while (!Done) {
    int64_t PE, Off;
    G.locate(Coord, PE, Off);
    ASSERT_GE(PE, 0);
    ASSERT_LT(PE, G.GridPEs);
    ASSERT_GE(Off, 0);
    ASSERT_LT(Off, G.SubgridElems);
    ASSERT_TRUE(Homes.insert({PE, Off}).second)
        << "two elements share PE " << PE << " offset " << Off;
    ASSERT_TRUE(G.coordOf(PE, Off, Back));
    ASSERT_EQ(Back, Coord);
    size_t K = Coord.size();
    Done = true;
    while (K-- > 0) {
      if (++Coord[K] < C.Extents[K]) {
        Done = false;
        break;
      }
      Coord[K] = 0;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(Homes.size()), G.totalElements());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometryProperty,
    ::testing::Values(GeometryCase{{7}, 4}, GeometryCase{{64}, 64},
                      GeometryCase{{64}, 2048}, GeometryCase{{13, 9}, 8},
                      GeometryCase{{16, 16}, 16},
                      GeometryCase{{33, 65}, 32},
                      GeometryCase{{128, 64}, 2048},
                      GeometryCase{{5, 7, 3}, 16},
                      GeometryCase{{8, 8, 8}, 64},
                      GeometryCase{{100}, 1}));

//===--------------------------------------------------------------------===//
// Shift algebra on the runtime
//===--------------------------------------------------------------------===//

struct ShiftCase {
  int64_t N;
  unsigned Dim;
  int64_t Shift;
  unsigned PEs;
  /// The field's shape; empty means the square N x N.
  std::vector<int64_t> Extents = {};
};

std::vector<int64_t> shapeOf(const ShiftCase &C) {
  return C.Extents.empty() ? std::vector<int64_t>{C.N, C.N} : C.Extents;
}

// Names each case by its values; a byte dump would show the padding bytes.
void PrintTo(const ShiftCase &C, std::ostream *OS) {
  if (C.Extents.empty())
    *OS << "n" << C.N;
  else
    for (size_t D = 0; D < C.Extents.size(); ++D)
      *OS << (D ? "x" : "e") << C.Extents[D];
  *OS << "_dim" << C.Dim << "_shift" << C.Shift << "_pe" << C.PEs;
}

/// Calls Fn(Coord, Linear) for every coordinate of \p Ext, row-major.
template <typename Fn>
void forEachCoord(const std::vector<int64_t> &Ext, Fn F) {
  std::vector<int64_t> Coord(Ext.size(), 0);
  for (int64_t Linear = 0;; ++Linear) {
    F(Coord, Linear);
    size_t K = Ext.size();
    while (K-- > 0) {
      if (++Coord[K] < Ext[K])
        break;
      Coord[K] = 0;
    }
    if (K == static_cast<size_t>(-1))
      return;
  }
}

class ShiftProperty : public ::testing::TestWithParam<ShiftCase> {};

TEST_P(ShiftProperty, CShiftInverseAndFullCycle) {
  const ShiftCase &C = GetParam();
  const std::vector<int64_t> Shape = shapeOf(C);
  const int64_t N = Shape[C.Dim - 1];
  cm2::CostModel Costs;
  Costs.NumPEs = C.PEs;
  CmRuntime RT(Costs);
  const Geometry *G =
      RT.getGeometry(Shape, std::vector<int64_t>(Shape.size(), 1));
  int A = RT.allocField(G, ElemKind::Real);
  int B = RT.allocField(G, ElemKind::Real);
  int D = RT.allocField(G, ElemKind::Real);

  forEachCoord(Shape, [&](const std::vector<int64_t> &Coord, int64_t I) {
    RT.writeElement(A, Coord, static_cast<double>(I));
  });
  auto expectSame = [&](int X, int Y) {
    forEachCoord(Shape, [&](const std::vector<int64_t> &Coord, int64_t) {
      ASSERT_DOUBLE_EQ(RT.readElement(X, Coord), RT.readElement(Y, Coord));
    });
  };

  // Inverse: cshift(cshift(A, s), -s) == A.
  RT.cshift(B, A, C.Dim, C.Shift);
  RT.cshift(D, B, C.Dim, -C.Shift);
  expectSame(D, A);

  // Full cycle: shifting by the extent is the identity.
  RT.cshift(B, A, C.Dim, N);
  expectSame(B, A);

  // Composition: shift(s1) then shift(s2) == shift(s1+s2).
  RT.cshift(B, A, C.Dim, C.Shift);
  RT.cshift(D, B, C.Dim, 3);
  RT.cshift(B, A, C.Dim, C.Shift + 3);
  expectSame(B, D);
}

//===--------------------------------------------------------------------===//
// The data-movement ops against an independent logical-coordinate model
//===--------------------------------------------------------------------===//
//
// The model works on row-major logical arrays. It takes only the PE grid
// factorization from the runtime's geometry and derives everything else
// itself: the block size ceil(E/G) per axis, each element's owner PE and
// in-PE offset (both row-major), and ring hop distances along the grid.
// Every op must match it in destination values, in its comm.<op>.* hop
// and byte counters and in its exact CommCycles charge, on a serial
// runtime and on a four-thread pool alike.

/// A logical array: row-major values over Ext.
struct Logical {
  std::vector<int64_t> Ext;
  std::vector<double> V;
};

int64_t linearOf(const std::vector<int64_t> &Ext,
                 const std::vector<int64_t> &X) {
  int64_t L = 0;
  for (size_t D = 0; D < Ext.size(); ++D)
    L = L * Ext[D] + X[D];
  return L;
}

int64_t blockOf(const Geometry &G, size_t D) {
  return (G.Extents[D] + G.Grid[D] - 1) / G.Grid[D];
}

/// Storage index of logical element X under blockwise placement.
size_t storageIndex(const Geometry &G, const std::vector<int64_t> &X) {
  int64_t PE = 0, Off = 0;
  for (size_t D = 0; D < X.size(); ++D) {
    int64_t B = blockOf(G, D);
    PE = PE * G.Grid[D] + X[D] / B;
    Off = Off * B + X[D] % B;
  }
  return static_cast<size_t>(PE * G.PaddedSubgrid + Off);
}

int64_t gridPEs(const Geometry &G) {
  int64_t P = 1;
  for (int64_t GD : G.Grid)
    P *= GD;
  return P;
}

void store(CmRuntime &RT, int H, const Logical &L) {
  PeArray &A = RT.field(H);
  forEachCoord(L.Ext, [&](const std::vector<int64_t> &X, int64_t I) {
    A.Data[storageIndex(*A.Geo, X)] = L.V[static_cast<size_t>(I)];
  });
}

Logical load(const CmRuntime &RT, int H) {
  const PeArray &A = RT.field(H);
  Logical L{A.Geo->Extents, {}};
  forEachCoord(L.Ext, [&](const std::vector<int64_t> &X, int64_t) {
    L.V.push_back(A.Data[storageIndex(*A.Geo, X)]);
  });
  return L;
}

struct ShiftCounts {
  int64_t Local = 0, Fill = 0, Hops = 0;
};

/// Dst = shift of Src along Axis; accumulates the move's counts.
Logical modelShift(const Geometry &G, const Logical &Src, size_t Axis,
                   int64_t Shift, bool EndOff, ShiftCounts &K) {
  Logical Dst{Src.Ext, std::vector<double>(Src.V.size())};
  const int64_t N = Src.Ext[Axis], B = blockOf(G, Axis), Ring = G.Grid[Axis];
  forEachCoord(Src.Ext, [&](const std::vector<int64_t> &X, int64_t I) {
    std::vector<int64_t> Y = X;
    Y[Axis] = X[Axis] + Shift;
    if (EndOff && (Y[Axis] < 0 || Y[Axis] >= N)) {
      Dst.V[static_cast<size_t>(I)] = 0.0;
      ++K.Fill;
      return;
    }
    Y[Axis] = ((Y[Axis] % N) + N) % N;
    Dst.V[static_cast<size_t>(I)] =
        Src.V[static_cast<size_t>(linearOf(Src.Ext, Y))];
    int64_t Fwd = (((Y[Axis] / B - X[Axis] / B) % Ring) + Ring) % Ring;
    if (Fwd == 0)
      ++K.Local;
    else
      K.Hops += std::min(Fwd, Ring - Fwd);
  });
  return Dst;
}

double shiftCycles(const cm2::CostModel &Costs, const Geometry &G,
                   const ShiftCounts &K) {
  return Costs.CommStartupCycles +
         (Costs.GridLocalPerElem * static_cast<double>(K.Local + K.Fill) +
          Costs.GridWirePerElemHop * static_cast<double>(K.Hops)) /
             static_cast<double>(gridPEs(G));
}

double routerCycles(const cm2::CostModel &Costs, const Geometry &G,
                    int64_t Elems) {
  return Costs.CommStartupCycles +
         Costs.RouterPerElem * static_cast<double>(Elems) /
             static_cast<double>(gridPEs(G));
}

Logical seeded(const std::vector<int64_t> &Ext, double Base) {
  Logical L{Ext, {}};
  forEachCoord(Ext, [&](const std::vector<int64_t> &, int64_t I) {
    L.V.push_back(Base + 0.5 * static_cast<double>(I));
  });
  return L;
}

/// One runtime op under a fresh ledger and metrics registry.
struct OpRun {
  support::RtStatus St;
  double Cycles;
  observe::MetricsRegistry M;
};

template <typename Fn> void runOp(CmRuntime &RT, OpRun &R, Fn Op) {
  RT.setMetrics(&R.M);
  RT.ledger().reset();
  R.St = Op();
  R.Cycles = RT.ledger().CommCycles;
  RT.setMetrics(nullptr);
}

void expectMetrics(const OpRun &R, const std::string &Op, int64_t Elems,
                   int64_t Hops) {
  EXPECT_EQ(R.M.value("comm." + Op + ".ops"), 1) << Op;
  EXPECT_EQ(R.M.value("comm." + Op + ".bytes"), static_cast<double>(Elems * 8))
      << Op;
  EXPECT_EQ(R.M.value("comm." + Op + ".hops"), static_cast<double>(Hops))
      << Op;
  EXPECT_EQ(R.M.value("comm." + Op + ".cycles"), R.Cycles) << Op;
}

TEST_P(ShiftProperty, CommOpsMatchLogicalModel) {
  const ShiftCase &C = GetParam();
  const std::vector<int64_t> Shape = shapeOf(C);
  const size_t Axis = C.Dim - 1;
  const int64_t Total = seeded(Shape, 0).V.size();
  cm2::CostModel Costs;
  Costs.NumPEs = C.PEs;

  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    support::ThreadPool Pool(Threads);
    CmRuntime RT(Costs, Threads > 1 ? &Pool : nullptr);
    const Geometry *G =
        RT.getGeometry(Shape, std::vector<int64_t>(Shape.size(), 1));
    auto fresh = [&](const Logical &L) {
      int H = RT.allocField(G, ElemKind::Real);
      std::fill(RT.field(H).Data.begin(), RT.field(H).Data.end(), -7.0);
      store(RT, H, L);
      return H;
    };
    const Logical Src = seeded(Shape, 1.0);
    const Logical Junk = seeded(Shape, -1000.0);

    // cshift and eoshift, into a separate destination and in place.
    for (bool EndOff : {false, true}) {
      const std::string Op = EndOff ? "eoshift" : "cshift";
      for (bool InPlace : {false, true}) {
        SCOPED_TRACE(Op + (InPlace ? " in place" : ""));
        int S = fresh(Src), D = InPlace ? S : fresh(Junk);
        ShiftCounts K;
        Logical Want = modelShift(*G, Src, Axis, C.Shift, EndOff, K);
        OpRun R;
        runOp(RT, R, [&] {
          return EndOff ? RT.eoshift(D, S, C.Dim, C.Shift)
                        : RT.cshift(D, S, C.Dim, C.Shift);
        });
        ASSERT_TRUE(R.St.isOk());
        EXPECT_EQ(load(RT, D).V, Want.V);
        EXPECT_EQ(R.Cycles, shiftCycles(Costs, *G, K));
        expectMetrics(R, Op, Total, K.Hops);
      }
    }

    // multiShift: the first clause overwrites the source, so the later
    // clauses read its shifted values, exactly as the unfused sequence.
    for (bool EndOff : {false, true}) {
      SCOPED_TRACE(EndOff ? "multi eoshift" : "multi cshift");
      int S = fresh(Src), A = fresh(Junk), B = fresh(Junk);
      ShiftCounts K;
      Logical WantS = modelShift(*G, Src, Axis, C.Shift, EndOff, K);
      Logical WantA = modelShift(*G, WantS, Axis, 1, EndOff, K);
      Logical WantB = modelShift(*G, WantS, Axis, -C.Shift - 1, EndOff, K);
      OpRun R;
      runOp(RT, R, [&] {
        return RT.multiShift({{S, C.Shift}, {A, 1}, {B, -C.Shift - 1}}, S,
                             C.Dim, EndOff);
      });
      ASSERT_TRUE(R.St.isOk());
      EXPECT_EQ(load(RT, S).V, WantS.V);
      EXPECT_EQ(load(RT, A).V, WantA.V);
      EXPECT_EQ(load(RT, B).V, WantB.V);
      EXPECT_EQ(R.Cycles, shiftCycles(Costs, *G, K));
      expectMetrics(R, "multi-shift", 3 * Total, K.Hops);
      EXPECT_EQ(R.M.value("comm.coalesced"), 2);
    }

    // transpose (rank 2): in place when square.
    if (Shape.size() == 2) {
      const Geometry *TG = RT.getGeometry({Shape[1], Shape[0]}, {1, 1});
      for (bool InPlace : {false, true}) {
        if (InPlace && Shape[0] != Shape[1])
          continue;
        SCOPED_TRACE(InPlace ? "transpose in place" : "transpose");
        int S = fresh(Src);
        int D = InPlace ? S : RT.allocField(TG, ElemKind::Real);
        Logical Want{{Shape[1], Shape[0]}, {}};
        forEachCoord(Want.Ext, [&](const std::vector<int64_t> &X, int64_t) {
          Want.V.push_back(
              Src.V[static_cast<size_t>(linearOf(Shape, {X[1], X[0]}))]);
        });
        OpRun R;
        runOp(RT, R, [&] { return RT.transpose(D, S); });
        ASSERT_TRUE(R.St.isOk());
        EXPECT_EQ(load(RT, D).V, Want.V);
        EXPECT_EQ(R.Cycles, routerCycles(Costs, *TG, Total));
        expectMetrics(R, "transpose", Total, 0);
      }
    }

    // spread of the shape with the case's axis removed back along it.
    if (Shape.size() > 1) {
      SCOPED_TRACE("spread");
      std::vector<int64_t> Lower = Shape;
      Lower.erase(Lower.begin() + static_cast<std::ptrdiff_t>(Axis));
      const Geometry *LG =
          RT.getGeometry(Lower, std::vector<int64_t>(Lower.size(), 1));
      const Logical Part = seeded(Lower, 3.0);
      int S = RT.allocField(LG, ElemKind::Real);
      store(RT, S, Part);
      int D = fresh(Junk);
      Logical Want{Shape, {}};
      forEachCoord(Shape, [&](const std::vector<int64_t> &X, int64_t) {
        std::vector<int64_t> Y = X;
        Y.erase(Y.begin() + static_cast<std::ptrdiff_t>(Axis));
        Want.V.push_back(Part.V[static_cast<size_t>(linearOf(Lower, Y))]);
      });
      OpRun R;
      runOp(RT, R, [&] { return RT.spreadAlongDim(D, S, C.Dim); });
      ASSERT_TRUE(R.St.isOk());
      EXPECT_EQ(load(RT, D).V, Want.V);
      EXPECT_EQ(R.Cycles, routerCycles(Costs, *G, Total));
      expectMetrics(R, "spread", Total, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, ShiftProperty,
    ::testing::Values(
        ShiftCase{8, 1, 1, 4}, ShiftCase{8, 2, 1, 4}, ShiftCase{8, 1, 3, 16},
        ShiftCase{8, 2, 5, 16}, ShiftCase{12, 1, 7, 8},
        ShiftCase{12, 2, 11, 8}, ShiftCase{16, 1, 15, 64},
        ShiftCase{16, 2, 2, 1}, ShiftCase{9, 1, 4, 32}, ShiftCase{9, 2, 8, 2},
        // Extents of 1, primes, uneven blocks; shifts of 0, -1, +-N and
        // past N; 1 to 2,048 PEs; every dim of ranks 1 to 3.
        ShiftCase{1, 1, 0, 8}, ShiftCase{1, 2, 3, 8},
        ShiftCase{13, 1, -1, 8}, ShiftCase{13, 2, 13, 64},
        ShiftCase{7, 2, -7, 8}, ShiftCase{10, 1, 0, 1},
        ShiftCase{64, 1, 67, 2048}, ShiftCase{64, 2, -1, 2048},
        ShiftCase{0, 1, 3, 8, {11}}, ShiftCase{0, 1, 1000, 2048, {2048}},
        ShiftCase{0, 1, -1, 64, {1, 17}}, ShiftCase{0, 2, 5, 8, {1, 17}},
        ShiftCase{0, 1, -14, 64, {13, 5}}, ShiftCase{0, 2, 6, 64, {13, 5}},
        ShiftCase{0, 2, -71, 2048, {30, 70}},
        ShiftCase{0, 1, 4, 16, {5, 7, 3}}, ShiftCase{0, 2, -8, 64, {5, 7, 3}},
        ShiftCase{0, 3, 2, 16, {5, 7, 3}}));

//===--------------------------------------------------------------------===//
// Compile-and-run equals interpret, over a generated program family
//===--------------------------------------------------------------------===//

/// A deterministic generated program: a sequence of whole-array updates
/// over two shapes with shifts, masks, reductions, and a serial loop,
/// whose exact mix is selected by the seed.
std::string generatedProgram(unsigned Seed) {
  unsigned S = Seed;
  auto Next = [&S]() {
    S = S * 1103515245u + 12345u;
    return (S >> 16) & 0x7fff;
  };
  std::string Src = "program gen\n"
                    "real a(12,12), b(12,12), c(12,12)\n"
                    "real v(12), s\n"
                    "integer i, j, t\n"
                    "forall (i=1:12, j=1:12) a(i,j) = real(i) + "
                    "0.125*real(j)\n"
                    "forall (i=1:12, j=1:12) b(i,j) = real(i*j)*0.01\n"
                    "v = 1.0\n";
  const char *Stmts[] = {
      "c = a*b + 0.5\n",
      "c = cshift(a, 1, 1) - cshift(b, -1, 2)\n",
      "a = merge(a, b, a > b)\n",
      "b = abs(a - b) + 0.25*c\n",
      "s = sum(a)\n",
      "c = a / (1.0 + abs(b))\n",
      "where (a > b)\n  c = a\nelsewhere\n  c = b\nend where\n",
      "a = a + cshift(c, 2, 1)*0.1\n",
      "v = 0.5*v + 1.0\n",
      "b = max(a, min(b, c))\n",
      "do t=1,3\n  a = a*0.9 + 0.1*b\nend do\n",
      "c(1:12:2,:) = a(1:12:2,:)\n",
  };
  unsigned Count = 4 + Next() % 5;
  for (unsigned K = 0; K < Count; ++K)
    Src += Stmts[Next() % (sizeof(Stmts) / sizeof(Stmts[0]))];
  Src += "end\n";
  return Src;
}

struct DiffCase {
  unsigned Seed;
  Profile P;
  unsigned PEs;
};

class CompiledEqualsInterpreted
    : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CompiledEqualsInterpreted, OnGeneratedPrograms) {
  const DiffCase &C = GetParam();
  std::string Src = generatedProgram(C.Seed);
  cm2::CostModel Machine;
  Machine.NumPEs = C.PEs;
  CompileOptions Opts = CompileOptions::forProfile(C.P, Machine);
  Compilation Comp(Opts);
  ASSERT_TRUE(Comp.compile(Src)) << Comp.diags().str() << "\n" << Src;

  DiagnosticEngine IDiags;
  interp::Interpreter Interp(IDiags);
  ASSERT_TRUE(Interp.run(Comp.artifacts().RawNIR)) << IDiags.str();

  Execution Exec(Machine);
  auto Report = Exec.run(Comp.artifacts().Compiled.Program);
  ASSERT_TRUE(Report.has_value()) << Exec.diags().str() << "\n" << Src;

  for (const char *Name : {"a", "b", "c", "v"}) {
    const interp::ArrayStorage *Ref = Interp.getArray(Name);
    ASSERT_NE(Ref, nullptr);
    int Handle = Exec.executor().fieldHandle(Name);
    // A single-use temporary may have been fused away entirely; its value
    // is then folded into (and checked through) its consumer.
    if (Handle < 0)
      continue;
    const PeArray &Got = Exec.runtime().field(Handle);
    std::vector<int64_t> Pos(Ref->Extents.size(), 0);
    bool Done = false;
    while (!Done) {
      int64_t PE, Off;
      Got.Geo->locate(Pos, PE, Off);
      ASSERT_NEAR(Got.peBase(PE)[Off],
                  Ref->Data[Ref->linearIndex(Pos)].asReal(), 1e-9)
          << Name << " seed " << C.Seed << "\n"
          << Src;
      size_t K = Pos.size();
      Done = true;
      while (K-- > 0) {
        if (++Pos[K] < Ref->Extents[K].size()) {
          Done = false;
          break;
        }
        Pos[K] = 0;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CompiledEqualsInterpreted,
    ::testing::Values(DiffCase{1, Profile::F90Y, 8},
                      DiffCase{2, Profile::F90Y, 16},
                      DiffCase{3, Profile::F90Y, 1},
                      DiffCase{4, Profile::CMFStyle, 8},
                      DiffCase{5, Profile::CMFStyle, 64},
                      DiffCase{6, Profile::Naive, 8},
                      DiffCase{7, Profile::F90Y, 4},
                      DiffCase{8, Profile::Naive, 16},
                      DiffCase{9, Profile::F90Y, 32},
                      DiffCase{10, Profile::CMFStyle, 2},
                      DiffCase{11, Profile::F90Y, 128},
                      DiffCase{12, Profile::Naive, 1}));

//===--------------------------------------------------------------------===//
// Transformation idempotence
//===--------------------------------------------------------------------===//

class TransformIdempotence : public ::testing::TestWithParam<unsigned> {};

TEST_P(TransformIdempotence, OptimizeTwiceEqualsOnce) {
  std::string Src = generatedProgram(GetParam());
  Compilation C(CompileOptions::forProfile(Profile::F90Y));
  ASSERT_TRUE(C.compile(Src)) << C.diags().str();
  DiagnosticEngine Diags;
  const nir::ProgramImp *Once = C.artifacts().OptimizedNIR;
  const nir::ProgramImp *Twice =
      transform::optimize(Once, C.nirContext(), Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_TRUE(nir::impsEqual(Once, Twice))
      << "first:\n"
      << nir::printImp(Once) << "\nsecond:\n"
      << nir::printImp(Twice);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformIdempotence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

} // namespace
