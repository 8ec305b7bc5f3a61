//===- perfbench/Models.cpp - independent reference models ---------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Models.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

using namespace perfbench;

namespace {

/// A 2-d field with circular and end-off neighbour access.
struct Grid {
  int64_t N = 0, M = 0;
  std::vector<double> V;
  Grid() = default;
  Grid(int64_t N, int64_t M) : N(N), M(M), V(size_t(N * M), 0.0) {}
  double &at(int64_t I, int64_t J) { return V[size_t(I * M + J)]; }
  double at(int64_t I, int64_t J) const { return V[size_t(I * M + J)]; }
  /// cshift(x, S, Dim) read at (I, J): x(I+S, J) or x(I, J+S), circular.
  double cs(int64_t I, int64_t J, int64_t S, int Dim) const {
    if (Dim == 1)
      return at(((I + S) % N + N) % N, J);
    return at(I, ((J + S) % M + M) % M);
  }
  /// eoshift(x, S, Dim) read at (I, J): zero past either end.
  double eo(int64_t I, int64_t J, int64_t S, int Dim) const {
    int64_t K = (Dim == 1 ? I : J) + S;
    if (K < 0 || K >= (Dim == 1 ? N : M))
      return 0.0;
    return Dim == 1 ? at(K, J) : at(I, K);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// SWE (driver::sweSource)
//===----------------------------------------------------------------------===//

SweReference perfbench::sweModel(int64_t N, int64_t Steps) {
  Grid U(N, N), V(N, N), P(N, N), Uold(N, N), Vold(N, N), Pold(N, N);
  Grid Unew(N, N), Vnew(N, N), Pnew(N, N), Cu(N, N), Cv(N, N), Z(N, N),
      H(N, N);
  const double Dt = 90.0, Dx = 100000.0, Dy = 100000.0;
  const double Fsdx = 4.0 / Dx, Fsdy = 4.0 / Dy;
  const double Pi = 3.1415926535, Tpi = Pi + Pi;
  const double Di = Tpi / double(N), Dj = Tpi / double(N);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double X = double(I + 1) * Di, Y = double(J + 1) * Dj;
      P.at(I, J) = 50000.0 + 5000.0 * (std::sin(X) * std::cos(Y));
      U.at(I, J) = 10.0 * std::sin(X);
      V.at(I, J) = 10.0 * std::cos(Y);
    }
  Uold = U;
  Vold = V;
  Pold = P;
  const double Tdts8 = Dt / 8.0, Tdtsdx = Dt / Dx, Tdtsdy = Dt / Dy;

  SweReference R;
  for (double X : P.V)
    R.InitialMass += X;
  for (int64_t T = 0; T < Steps; ++T) {
    for (int64_t I = 0; I < N; ++I)
      for (int64_t J = 0; J < N; ++J) {
        Cu.at(I, J) = 0.5 * (P.at(I, J) + P.cs(I, J, -1, 1)) * U.at(I, J);
        Cv.at(I, J) = 0.5 * (P.at(I, J) + P.cs(I, J, -1, 2)) * V.at(I, J);
        Z.at(I, J) =
            (Fsdx * (V.at(I, J) - V.cs(I, J, -1, 1)) -
             Fsdy * (U.at(I, J) - U.cs(I, J, -1, 2))) /
            (P.at(I, J) + P.cs(I, J, -1, 1) + P.cs(I, J, -1, 2) +
             P.cs((I - 1 + N) % N, J, -1, 2));
        double Ue = U.cs(I, J, 1, 1), Vn = V.cs(I, J, 1, 2);
        H.at(I, J) = P.at(I, J) + 0.25 * (U.at(I, J) * U.at(I, J) + Ue * Ue +
                                          V.at(I, J) * V.at(I, J) + Vn * Vn);
      }
    for (int64_t I = 0; I < N; ++I)
      for (int64_t J = 0; J < N; ++J) {
        int64_t Im = (I - 1 + N) % N, Ip = (I + 1) % N;
        int64_t Jm = (J - 1 + N) % N, Jp = (J + 1) % N;
        Unew.at(I, J) = Uold.at(I, J) +
                        Tdts8 * (Z.at(I, J) + Z.at(I, Jp)) *
                            (Cv.at(I, J) + Cv.at(Im, J) + Cv.at(I, Jp) +
                             Cv.at(Im, Jp)) -
                        Tdtsdx * (H.at(I, J) - H.at(Im, J));
        Vnew.at(I, J) = Vold.at(I, J) -
                        Tdts8 * (Z.at(I, J) + Z.at(Ip, J)) *
                            (Cu.at(I, J) + Cu.at(I, Jm) + Cu.at(Ip, J) +
                             Cu.at(Ip, Jm)) -
                        Tdtsdy * (H.at(I, J) - H.at(I, Jm));
        Pnew.at(I, J) = Pold.at(I, J) -
                        Tdtsdx * (Cu.at(Ip, J) - Cu.at(I, J)) -
                        Tdtsdy * (Cv.at(I, Jp) - Cv.at(I, J));
      }
    Uold = U;
    Vold = V;
    Pold = P;
    U = Unew;
    V = Vnew;
    P = Pnew;
  }
  R.Fields["u"] = U.V;
  R.Fields["v"] = V.V;
  R.Fields["p"] = P.V;
  // Per element and step: cu 3, cv 3, z 9, h 9, unew 10, vnew 10, pnew 6.
  // Set-up: 13 per element for the three FORALLs, 8 scalar constants.
  R.UsefulFlops =
      uint64_t(N * N) * (uint64_t(50) * uint64_t(Steps) + 13) + 8;
  return R;
}

//===----------------------------------------------------------------------===//
// Misaligned relaxation (driver::misalignedSweSource)
//===----------------------------------------------------------------------===//

RelaxReference perfbench::relaxModel(int64_t N, int64_t Steps) {
  Grid U(N, N), V(N, N), P(N, N), Fe(N, N), Fn(N, N);
  const double Di = 6.2831853 / double(N), Dj = 6.2831853 / double(N);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double X = double(I + 1) * Di, Y = double(J + 1) * Dj;
      P.at(I, J) = 50000.0 + 500.0 * (std::sin(X) * std::cos(Y));
      U.at(I, J) = 10.0 * std::sin(X);
      V.at(I, J) = 10.0 * std::cos(Y);
    }
  for (int64_t T = 0; T < Steps; ++T) {
    for (int64_t I = 0; I < N; ++I)
      for (int64_t J = 0; J < N; ++J) {
        double Pe = P.cs(I, J, 1, 1), Pn = P.cs(I, J, 1, 2);
        double Ue = U.cs(I, J, 1, 1), Vn = V.cs(I, J, 1, 2);
        Fe.at(I, J) = 0.0001 * Pe * Ue + 0.05 * Pe;
        Fn.at(I, J) = 0.0001 * Pn * Vn + 0.05 * Pn;
      }
    for (int64_t I = 0; I < N; ++I)
      for (int64_t J = 0; J < N; ++J) {
        double Q = 0.001 * (Fe.cs(I, J, -1, 1) + Fn.cs(I, J, -1, 2));
        U.at(I, J) = U.at(I, J) - 0.000001 * Q;
        V.at(I, J) = V.at(I, J) - 0.000001 * Q;
        P.at(I, J) = P.at(I, J) - 0.00001 * Q + 0.5;
      }
  }
  RelaxReference R;
  R.Fields["u"] = U.V;
  R.Fields["v"] = V.V;
  R.Fields["p"] = P.V;
  double Sum = 0;
  for (double X : P.V)
    Sum += X;
  R.MeanP = Sum / double(N * N);
  // Per element and step: fe 4, fn 4, q 2, u 2, v 2, p 3. Set-up: 13 per
  // element for the FORALLs and 1 for the printed mean; 2 scalars.
  R.UsefulFlops =
      uint64_t(N * N) * (uint64_t(17) * uint64_t(Steps) + 14) + 2;
  return R;
}

//===----------------------------------------------------------------------===//
// Generated corpus
//===----------------------------------------------------------------------===//

namespace {

/// splitmix64: a fixed generator, so one seed gives one corpus on every
/// standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  int64_t below(int64_t N) { return int64_t(next() % uint64_t(N)); }
  int64_t range(int64_t Lo, int64_t Hi) { return Lo + below(Hi - Lo + 1); }
  bool chance(int Percent) { return below(100) < Percent; }

private:
  uint64_t S;
};

/// An expression over whole arrays whose value stays in [-1, 1]: leaves
/// are arrays, shifted arrays, literals k/8 and scalar means; interior
/// nodes are half-sums, half-differences and products.
struct Expr {
  enum Kind { Ref, CShift, EOShift, Lit, Scalar, Add, Sub, Mul } K = Ref;
  int Arr = 0;      ///< Array index (Ref / shifts) or scalar index.
  int64_t Sh = 0;   ///< Shift amount.
  int Dim = 1;      ///< Shift dimension.
  int Eighths = 0;  ///< Literal value * 8.
  std::unique_ptr<Expr> L, R;
};

struct Program {
  int64_t N, M;
  std::vector<Grid> A;
  std::vector<double> S;
  uint64_t Flops = 0;
};

/// A literal k/D, written with enough digits to be exact in binary.
std::string lit(int K, int D = 8) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4f", std::abs(K) / double(D));
  return K < 0 ? "(-" + std::string(Buf) + ")" : std::string(Buf);
}

/// The Fortran name of array \p I: a1, a2, ...
std::string arrayName(int I) {
  std::string S = "a";
  S += std::to_string(I + 1);
  return S;
}

std::string render(const Expr &E) {
  auto Arr = arrayName;
  switch (E.K) {
  case Expr::Ref:
    return Arr(E.Arr);
  case Expr::CShift:
    return "cshift(" + Arr(E.Arr) + ", " + std::to_string(E.Sh) + ", " +
           std::to_string(E.Dim) + ")";
  case Expr::EOShift:
    return "eoshift(" + Arr(E.Arr) + ", " + std::to_string(E.Sh) + ", " +
           std::to_string(E.Dim) + ")";
  case Expr::Lit:
    return lit(E.Eighths);
  case Expr::Scalar:
    return "s" + std::to_string(E.Arr + 1);
  case Expr::Add:
    return "0.5*(" + render(*E.L) + " + " + render(*E.R) + ")";
  case Expr::Sub:
    return "0.5*(" + render(*E.L) + " - " + render(*E.R) + ")";
  case Expr::Mul:
    return "(" + render(*E.L) + ")*(" + render(*E.R) + ")";
  }
  return "";
}

/// Flops one element of \p E costs.
uint64_t flopsOf(const Expr &E) {
  switch (E.K) {
  case Expr::Add:
  case Expr::Sub:
    return 2 + flopsOf(*E.L) + flopsOf(*E.R);
  case Expr::Mul:
    return 1 + flopsOf(*E.L) + flopsOf(*E.R);
  default:
    return 0;
  }
}

double eval(const Expr &E, const Program &P, int64_t I, int64_t J) {
  switch (E.K) {
  case Expr::Ref:
    return P.A[size_t(E.Arr)].at(I, J);
  case Expr::CShift:
    return P.A[size_t(E.Arr)].cs(I, J, E.Sh, E.Dim);
  case Expr::EOShift:
    return P.A[size_t(E.Arr)].eo(I, J, E.Sh, E.Dim);
  case Expr::Lit:
    return E.Eighths / 8.0;
  case Expr::Scalar:
    return P.S[size_t(E.Arr)];
  case Expr::Add:
    return 0.5 * (eval(*E.L, P, I, J) + eval(*E.R, P, I, J));
  case Expr::Sub:
    return 0.5 * (eval(*E.L, P, I, J) - eval(*E.R, P, I, J));
  case Expr::Mul:
    return eval(*E.L, P, I, J) * eval(*E.R, P, I, J);
  }
  return 0;
}

Grid evalAll(const Expr &E, const Program &P) {
  Grid G(P.N, P.M);
  for (int64_t I = 0; I < P.N; ++I)
    for (int64_t J = 0; J < P.M; ++J)
      G.at(I, J) = eval(E, P, I, J);
  return G;
}

/// Draws one program. Its shape - grid, arrays, statements, loops,
/// expression trees, shifts - comes from \p ShapeSeed alone, so the work a
/// program does is the same for every benchmark seed; the data - initial
/// fields, literal constants, WHERE thresholds - comes from \p DataSeed.
class Generator {
public:
  Generator(uint64_t ShapeSeed, uint64_t DataSeed, bool Small)
      : Shape(ShapeSeed), Data(DataSeed), Small(Small) {}

  CorpusProgram make(const std::string &Name) {
    Program P;
    P.N = Shape.range(Small ? 6 : 8, Small ? 12 : 32);
    P.M = Shape.range(Small ? 6 : 8, Small ? 12 : 32);
    const int Arrays = int(Shape.range(3, 6));
    const int Scalars = 2;
    P.A.assign(size_t(Arrays), Grid(P.N, P.M));
    P.S.assign(size_t(Scalars), 0.0);
    Defined.assign(size_t(Scalars), false);

    std::string Src = "program " + Name + "\n";
    Src += "integer, parameter :: n = " + std::to_string(P.N) + "\n";
    Src += "integer, parameter :: m = " + std::to_string(P.M) + "\n";
    for (int K = 0; K < Arrays; ++K)
      Src += "real a" + std::to_string(K + 1) + "(n,m)\n";
    Src += "real s1, s2\n";
    Src += "integer i, j, t\n";
    for (int K = 0; K < Arrays; ++K) {
      // Values (0..16)/8 - 1: exact in binary, inside [-1, 1].
      int64_t Ki = Data.range(1, 7), Kj = Data.range(1, 7),
              K0 = Data.range(0, 16);
      Src += "forall (i=1:n, j=1:m) a" + std::to_string(K + 1) +
             "(i,j) = real(mod(i*" + std::to_string(Ki) + " + j*" +
             std::to_string(Kj) + " + " + std::to_string(K0) +
             ", 17))/8.0 - 1.0\n";
      for (int64_t I = 0; I < P.N; ++I)
        for (int64_t J = 0; J < P.M; ++J)
          P.A[size_t(K)].at(I, J) =
              double(((I + 1) * Ki + (J + 1) * Kj + K0) % 17) / 8.0 - 1.0;
      P.Flops += 2 * uint64_t(P.N * P.M);
    }

    const int Items = int(Small ? Shape.range(4, 8) : Shape.range(12, 40));
    for (int It = 0; It < Items; ++It) {
      if (Shape.chance(20)) {
        int Trips = int(Shape.range(2, 4));
        int Body = int(Shape.range(2, Small ? 3 : 6));
        // Draw the body once, then replay it Trips times in the model.
        std::vector<Stmt> Stmts;
        for (int B = 0; B < Body; ++B)
          Stmts.push_back(draw(P));
        // Settle every WHERE threshold against all trips before emitting
        // the loop; one that keeps moving gets the always-clear 17/16.
        bool Moved = true;
        for (int Pass = 0; Moved && Pass < 8; ++Pass) {
          Moved = false;
          Program Probe = P;
          for (int T = 0; T < Trips; ++T)
            for (Stmt &S : Stmts)
              Moved = apply(S, Probe, nullptr, "", true) || Moved;
        }
        if (Moved)
          for (Stmt &S : Stmts)
            if (S.K == Stmt::Where)
              S.Threshold16 = 17;
        Src += "do t = 1, " + std::to_string(Trips) + "\n";
        for (int T = 0; T < Trips; ++T)
          for (Stmt &S : Stmts)
            apply(S, P, T == 0 ? &Src : nullptr, "  ", false);
        Src += "end do\n";
      } else {
        Stmt S = draw(P);
        apply(S, P, &Src, "", true);
      }
    }
    // The closing PRINT reads the last array, so it is never dead.
    const int Last = Arrays - 1;
    Src += "print *, 'sum:', sum(a" + std::to_string(Last + 1) + ")\n";
    Src += "end program " + Name + "\n";

    CorpusProgram C;
    C.Name = Name;
    C.Source = std::move(Src);
    for (int K = 0; K < Arrays; ++K)
      C.Expected[arrayName(K)] = P.A[size_t(K)].V;
    for (double X : P.A[size_t(Last)].V) {
      C.PrintedSum += X;
      C.SumScale += std::abs(X);
    }
    P.Flops += uint64_t(P.N * P.M);
    C.UsefulFlops = P.Flops;
    return C;
  }

private:
  Rng Shape, Data;
  bool Small;
  std::vector<bool> Defined; ///< Scalars assigned so far.

  /// One statement, drawn against the state at its first execution.
  struct Stmt {
    enum Kind { Assign, Where, Sum } K = Assign;
    int Dst = 0;
    std::unique_ptr<Expr> E;
    int Mask = 0;        ///< WHERE mask array, or the summed array.
    int Threshold16 = 0; ///< WHERE threshold * 16 (odd).
  };

  std::unique_ptr<Expr> expr(const Program &P, int Depth) {
    auto E = std::make_unique<Expr>();
    const int Arrays = int(P.A.size());
    if (Depth == 0 || Shape.chance(25)) {
      int64_t Pick = Shape.below(100);
      E->Arr = int(Shape.below(Arrays));
      if (Pick < 45) {
        E->K = Expr::Ref;
      } else if (Pick < 70) {
        E->K = Expr::CShift;
        E->Sh = Shape.chance(50) ? Shape.range(1, 2) : -Shape.range(1, 2);
        E->Dim = int(Shape.range(1, 2));
      } else if (Pick < 80) {
        E->K = Expr::EOShift;
        E->Sh = Shape.chance(50) ? 1 : -1;
        E->Dim = int(Shape.range(1, 2));
      } else if (Pick < 92 || !(Defined[0] || Defined[1])) {
        // Never 0 or +-1, so no literal turns into an algebraic identity
        // whose folding would make the shape depend on the data.
        E->K = Expr::Lit;
        E->Eighths = int(Data.range(1, 7)) * (Data.chance(50) ? 1 : -1);
      } else {
        E->K = Expr::Scalar;
        E->Arr = Defined[0] && (!Defined[1] || Shape.chance(50)) ? 0 : 1;
      }
      return E;
    }
    int64_t Pick = Shape.below(100);
    E->K = Pick < 40 ? Expr::Add : Pick < 70 ? Expr::Sub : Expr::Mul;
    E->L = expr(P, Depth - 1);
    E->R = expr(P, Depth - 1);
    return E;
  }

  Stmt draw(const Program &P) {
    Stmt S;
    const int Arrays = int(P.A.size());
    int64_t Pick = Shape.below(100);
    S.Dst = int(Shape.below(Arrays));
    if (Pick < 12) {
      S.K = Stmt::Sum;
      S.Dst = int(Shape.below(2));
      S.Mask = int(Shape.below(Arrays));
      Defined[size_t(S.Dst)] = true;
      return S;
    }
    S.E = expr(P, int(Shape.range(1, Small ? 2 : 4)));
    if (Pick < 30) {
      S.K = Stmt::Where;
      S.Mask = int(Shape.below(Arrays));
      S.Threshold16 = 2 * int(Data.range(-8, 7)) + 1;
    }
    return S;
  }

  /// True when no mask value lies within 1e-6 of the threshold, so
  /// rounding differences cannot flip an element.
  static bool clear(const Grid &Mask, int Threshold16) {
    const double T = Threshold16 / 16.0;
    for (double X : Mask.V)
      if (std::abs(X - T) <= 1e-6)
        return false;
    return true;
  }

  /// Executes \p S on the model and, when \p Src is given, emits it. When
  /// \p MayMove is set and a WHERE's mask lies too close to its threshold,
  /// the threshold moves to the next clear odd sixteenth (17/16, above
  /// every value, always is) and the function returns true.
  bool apply(Stmt &S, Program &P, std::string *Src, const char *Indent,
             bool MayMove) {
    const std::string Dst = arrayName(S.Dst);
    const uint64_t Elems = uint64_t(P.N * P.M);
    if (S.K == Stmt::Sum) {
      double Sum = 0;
      for (double X : P.A[size_t(S.Mask)].V)
        Sum += X;
      P.S[size_t(S.Dst)] = Sum / double(Elems);
      P.Flops += Elems;
      if (Src)
        *Src += std::string(Indent) + "s" + std::to_string(S.Dst + 1) +
                " = sum(a" + std::to_string(S.Mask + 1) + ")/real(n*m)\n";
      return false;
    }
    Grid V = evalAll(*S.E, P);
    if (S.K == Stmt::Assign) {
      P.A[size_t(S.Dst)] = std::move(V);
      P.Flops += flopsOf(*S.E) * Elems;
      if (Src)
        *Src += std::string(Indent) + Dst + " = " + render(*S.E) + "\n";
      return false;
    }
    const Grid &Mask = P.A[size_t(S.Mask)];
    bool Moved = false;
    if (MayMove && !clear(Mask, S.Threshold16)) {
      Moved = true;
      do
        S.Threshold16 += 2;
      while (S.Threshold16 < 17 && !clear(Mask, S.Threshold16));
      S.Threshold16 = std::min(S.Threshold16, 17);
    }
    const double T = S.Threshold16 / 16.0;
    Grid &D = P.A[size_t(S.Dst)];
    std::vector<bool> On(Elems);
    for (size_t K = 0; K < Elems; ++K)
      On[K] = Mask.V[K] > T;
    for (size_t K = 0; K < Elems; ++K)
      if (On[K])
        D.V[K] = V.V[K];
    // Counted over every element, as the machine evaluates it, so the
    // count does not depend on the data.
    P.Flops += flopsOf(*S.E) * Elems;
    if (Src)
      *Src += std::string(Indent) + "where (a" + std::to_string(S.Mask + 1) +
              " > " + lit(S.Threshold16, 16) + ") " + Dst + " = " +
              render(*S.E) + "\n";
    return Moved;
  }
};

} // namespace

std::vector<CorpusProgram> perfbench::generateCorpus(uint64_t Seed,
                                                     unsigned Count,
                                                     bool Small) {
  // Program K's shape is fixed by K; the benchmark seed draws its data.
  std::vector<CorpusProgram> Out;
  for (unsigned K = 0; K < Count; ++K) {
    Generator G(0x5eed0000ull + K, Seed * 1000003ull + K, Small);
    Out.push_back(G.make("gen" + std::to_string(K)));
  }
  return Out;
}

double perfbench::scaledError(const std::vector<double> &Got,
                              const std::vector<double> &Ref) {
  if (Got.size() != Ref.size())
    return -1;
  double Scale = 1, Err = 0;
  for (double X : Ref)
    Scale = std::max(Scale, std::abs(X));
  for (size_t K = 0; K < Got.size(); ++K) {
    double D = std::abs(Got[K] - Ref[K]);
    if (!(D <= Err)) // NaN propagates as an infinite error.
      Err = std::isnan(D) ? std::numeric_limits<double>::infinity() : D;
  }
  return Err / Scale;
}

double perfbench::printedValue(const std::string &Output,
                               const std::string &Label) {
  size_t At = Output.rfind(Label);
  if (At == std::string::npos)
    return std::nan("");
  size_t Colon = Output.find(':', At);
  if (Colon == std::string::npos)
    return std::nan("");
  const char *Begin = Output.c_str() + Colon + 1;
  char *End = nullptr;
  double V = std::strtod(Begin, &End);
  return End == Begin ? std::nan("") : V;
}
