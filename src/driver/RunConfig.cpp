//===- driver/RunConfig.cpp - the shared run configuration ----------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/RunConfig.h"

#include "support/StringUtil.h"

#include <algorithm>

using namespace f90y;
using namespace f90y::driver;

namespace {

using Str = const std::string &;
using Err = std::string &;

/// Calls \p Set with the position of \p Text among the '|'-separated \p
/// Choices; false with the domain message when it is none of them.
template <typename Fn>
bool pick(std::string_view Choices, Str Text, Str Name, Err Error, Fn Set) {
  for (size_t Pos = 0, Index = 0;; ++Index) {
    size_t Bar = Choices.find('|', Pos);
    if (Choices.substr(Pos, Bar - Pos) == Text) {
      Set(Index);
      return true;
    }
    if (Bar == std::string_view::npos)
      break;
    Pos = Bar + 1;
  }
  Error = Name + " must be " + std::string(Choices) + ", got '" + Text + "'";
  return false;
}

/// A two-way choice: the first alternative sets \p Out, the second clears
/// it.
template <typename Bool>
bool twoWay(std::string_view Choices, Str Text, Str Name, Err Error,
            Bool &Out) {
  return pick(Choices, Text, Name, Error, [&Out](size_t I) { Out = I == 0; });
}

constexpr const char *Profiles = "f90y|cmf|naive";
constexpr Profile ProfileValues[] = {Profile::F90Y, Profile::CMFStyle,
                                     Profile::Naive};
constexpr const char *Booleans = "true|false";
constexpr const char *Engines = "compiled|interp";
constexpr const char *CommModes = "overlap|sync";
constexpr const char *FuseModes = "on|off";
constexpr const char *LayoutModes = "infer|canonical";

const RunConfigKey Table[] = {
    {"profile", ValueKind::String, Profiles,
     "optimization profile (default f90y)",
     [](RunConfig &C, Str T, Str N, Err E) {
       return pick(Profiles, T, N, E,
                   [&C](size_t I) { C.Prof = ProfileValues[I]; });
     }},
    {"cm5", ValueKind::Bool, Booleans, "use the CM/5 machine description",
     [](RunConfig &C, Str T, Str N, Err E) {
       return twoWay(Booleans, T, N, E, C.Cm5);
     }},
    // PEs and threads are positive counts: 0 of either is not a machine.
    {"pes", ValueKind::Number, "N", "simulated PEs (default: the machine's)",
     [](RunConfig &C, Str T, Str N, Err E) {
       return parseDecimal("", N, T, C.Pes, E, 1);
     }},
    {"threads", ValueKind::Number, "N",
     "host sweep threads (default: all hardware threads)",
     [](RunConfig &C, Str T, Str N, Err E) {
       return parseDecimal("", N, T, C.Threads, E, 1);
     }},
    {"exec", ValueKind::String, Engines, "PEAC executor (default compiled)",
     [](RunConfig &C, Str T, Str N, Err E) {
       return pick(Engines, T, N, E, [&C](size_t I) {
         C.Engine = I == 0 ? peac::EngineKind::Compiled
                           : peac::EngineKind::Interp;
       });
     }},
    {"comm", ValueKind::String, CommModes,
     "overlapped or phase-serial comm (default overlap)",
     [](RunConfig &C, Str T, Str N, Err E) {
       return twoWay(CommModes, T, N, E, C.OverlapComm);
     }},
    {"fuse", ValueKind::String, FuseModes,
     "elementwise fusion (unset: the profile's default)",
     [](RunConfig &C, Str T, Str N, Err E) {
       return twoWay(FuseModes, T, N, E, C.Fuse);
     }},
    {"layout", ValueKind::String, LayoutModes,
     "layout inference (unset: the profile's default)",
     [](RunConfig &C, Str T, Str N, Err E) {
       return twoWay(LayoutModes, T, N, E, C.LayoutInfer);
     }},
    {"faults", ValueKind::String, "kind:prob[,...]",
     "fault injection, e.g. all:0.01 or corrupt:0.05",
     [](RunConfig &C, Str T, Str N, Err E) {
       std::string SpecError;
       if (support::FaultSpec::parse(T, C.Faults, SpecError))
         return true;
       E = N + ": " + SpecError;
       return false;
     }},
    {"fault_seed", ValueKind::Number, "N",
     "seed of the fault schedule (default 0)",
     [](RunConfig &C, Str T, Str N, Err E) {
       return parseDecimal("", N, T, C.FaultSeed, E);
     }},
    {"max_steps", ValueKind::Number, "N",
     "abort after N host statements (default 0: never)",
     [](RunConfig &C, Str T, Str N, Err E) {
       return parseDecimal("", N, T, C.MaxSteps, E);
     }},
};

} // namespace

std::string RunConfigKey::flag() const {
  std::string F = std::string("-") + Key;
  for (char &Ch : F)
    if (Ch == '_')
      Ch = '-';
  return F;
}

std::span<const RunConfigKey> driver::runConfigTable() { return Table; }

const RunConfigKey *driver::findRunConfigKey(const std::string &Key) {
  for (const RunConfigKey &K : Table)
    if (Key == K.Key)
      return &K;
  return nullptr;
}

std::string driver::runConfigUsage() {
  std::string Out;
  for (const RunConfigKey &K : Table) {
    std::string Flag = K.flag();
    if (K.Kind != ValueKind::Bool)
      Flag += std::string("=") + K.Domain;
    Flag.resize(std::max<size_t>(Flag.size() + 1, 26), ' ');
    Out += "  " + Flag + K.Help + "\n";
  }
  return Out;
}

RunConfig::FlagResult RunConfig::parseFlag(const std::string &Arg,
                                           std::string &Error) {
  const size_t Eq = Arg.find('=');
  const std::string Flag = Arg.substr(0, Eq);
  for (const RunConfigKey &K : Table) {
    if (Flag != K.flag())
      continue;
    // A bare boolean flag ("-cm5") means true; any other bare flag is
    // handed to its setter as an empty, out-of-domain value.
    std::string Text = Eq != std::string::npos ? Arg.substr(Eq + 1)
                       : K.Kind == ValueKind::Bool ? "true"
                                                   : "";
    return K.Set(*this, Text, Flag, Error) ? FlagResult::Ok
                                           : FlagResult::Error;
  }
  return FlagResult::NotMine;
}

cm2::CostModel RunConfig::machine() const {
  cm2::CostModel M = Cm5 ? cm2::CostModel::cm5() : cm2::CostModel{};
  if (Pes)
    M.NumPEs = Pes;
  return M;
}

CompileOptions RunConfig::compileOptions() const {
  CompileOptions O = CompileOptions::forProfile(Prof, machine());
  O.Transforms.CommSchedule = OverlapComm;
  if (Fuse)
    O.Transforms.Fusion = *Fuse;
  if (LayoutInfer)
    O.Transforms.Layout = *LayoutInfer;
  return O;
}

ExecutionOptions RunConfig::executionOptions() const {
  ExecutionOptions E;
  E.Threads = Threads;
  E.Engine = Engine;
  E.OverlapComm = OverlapComm;
  E.Faults = Faults;
  E.FaultSeed = FaultSeed;
  E.MaxSteps = MaxSteps;
  return E;
}
