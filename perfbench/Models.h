//===- perfbench/Models.h - independent reference models --------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plain C++ models of the benchmark's programs, written without any of
/// the compiler's code: the paper's SWE update, the misaligned relaxation,
/// and a seeded generator of random array programs that evaluates its own
/// expression trees. Every workload checks the simulator's final fields
/// against these models; none compares against a stored copy of output.
///
/// Fields are stored row-major in logical order: element (i, j), 1-based
/// in Fortran, lives at index (i-1)*M + (j-1).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_PERFBENCH_MODELS_H
#define F90Y_PERFBENCH_MODELS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using FieldMap = std::map<std::string, std::vector<double>>;

/// Final state of driver::sweSource(N, Steps).
struct SweReference {
  FieldMap Fields;        ///< u, v, p after the last step.
  double InitialMass = 0; ///< sum(p) of the initial state.
  uint64_t UsefulFlops = 0;
};
SweReference sweModel(int64_t N, int64_t Steps);

/// Final state of driver::misalignedSweSource(N, Steps).
struct RelaxReference {
  FieldMap Fields; ///< u, v, p after the last step.
  double MeanP = 0; ///< The value the program prints.
  uint64_t UsefulFlops = 0;
};
RelaxReference relaxModel(int64_t N, int64_t Steps);

/// One generated program and what it must compute.
struct CorpusProgram {
  std::string Name;
  std::string Source;
  FieldMap Expected;     ///< Final value of every array.
  double PrintedSum = 0; ///< The value of the program's closing PRINT.
  double SumScale = 1;   ///< Magnitude the printed sum is compared at.
  uint64_t UsefulFlops = 0;
};

/// Draws \p Count programs. Program K's shape (grid, statements, loops,
/// expression trees) is the same for every \p Seed, so the work of a run
/// does not depend on it; \p Seed draws the data (initial fields,
/// literals, WHERE thresholds). Small programs have fewer and shallower
/// statements (the smoke mode's size).
std::vector<CorpusProgram> generateCorpus(uint64_t Seed, unsigned Count,
                                          bool Small);

/// Largest |got - ref| over a field, relative to max(1, max |ref|).
/// Returns a negative value when the sizes differ.
double scaledError(const std::vector<double> &Got,
                   const std::vector<double> &Ref);

/// The number after the last ':' of the last line of \p Output that
/// contains \p Label, or NaN when there is none.
double printedValue(const std::string &Output, const std::string &Label);

} // namespace perfbench

#endif // F90Y_PERFBENCH_MODELS_H
