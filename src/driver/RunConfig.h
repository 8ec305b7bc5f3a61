//===- driver/RunConfig.h - the shared run configuration --------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run settings f90yc and f90y-serve share, declared once. RunConfig
/// holds them; runConfigTable() lists them, one row per setting with its
/// key, value domain, help line and setter. Everything else is derived
/// from the table:
///
///   - f90yc's flags: "-" + key with '_' spelled '-' ("-fault-seed=N"),
///     bare "-key" for a boolean, and the usage text (runConfigUsage);
///   - f90y-serve's manifest job keys, whose JSON values must have the
///     row's ValueKind before the setter sees their text;
///   - the options: compileOptions() and executionOptions() are the only
///     builders, so the serve artifact fingerprint (which hashes the
///     derived CompileOptions exhaustively) follows the table too.
///
/// fuse and layout are optional: unset means the profile's default (the
/// F90Y profile fuses and infers layout; the CMFStyle and Naive baselines
/// do neither). Only a setting that was given overrides the profile.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_DRIVER_RUNCONFIG_H
#define F90Y_DRIVER_RUNCONFIG_H

#include "driver/Driver.h"

#include <optional>
#include <span>
#include <string>

namespace f90y {
namespace driver {

struct RunConfig {
  Profile Prof = Profile::F90Y;
  bool Cm5 = false;  ///< Use the CM/5 machine description.
  unsigned Pes = 0;  ///< Simulated PEs (0: the machine's default).
  /// Host threads for the simulation sweep (0: all hardware threads).
  /// Output and ledger are bit-identical at every setting.
  unsigned Threads = 0;
  peac::EngineKind Engine = peac::EngineKind::Compiled;
  /// One setting for both halves of communication overlap: the
  /// compile-time schedule (Transforms.CommSchedule) and the split-phase
  /// runtime model (ExecutionOptions::OverlapComm).
  bool OverlapComm = true;
  std::optional<bool> Fuse{};        ///< Unset: the profile's default.
  std::optional<bool> LayoutInfer{}; ///< Unset: the profile's default.
  support::FaultSpec Faults{};
  uint64_t FaultSeed = 0;
  uint64_t MaxSteps = 0; ///< Host-statement watchdog (0: unlimited).

  bool operator==(const RunConfig &O) const = default;

  cm2::CostModel machine() const;
  /// The profile's options, then comm, then fuse/layout when set.
  CompileOptions compileOptions() const;
  /// Execution options without observability sinks or checkpointing,
  /// which belong to the caller.
  ExecutionOptions executionOptions() const;

  enum class FlagResult { NotMine, Ok, Error };
  /// Applies one command-line argument ("-key=value", or bare "-key" for
  /// a boolean). NotMine when \p Arg names no table row; Error, with \p
  /// Error naming the flag, when the value is outside the row's domain.
  FlagResult parseFlag(const std::string &Arg, std::string &Error);
};

/// The JSON kind a manifest value must have for a row.
enum class ValueKind { String, Bool, Number };

/// One row of the run-configuration table.
struct RunConfigKey {
  const char *Key;    ///< Manifest key; the flag spells '_' as '-'.
  ValueKind Kind;
  const char *Domain; ///< The accepted values as usage shows them.
  const char *Help;
  /// Parses \p Text into \p C. False, with \p Error naming the setting as
  /// \p Name spells it ("-pes" or "'pes'"), when out of the domain.
  bool (*Set)(RunConfig &C, const std::string &Text, const std::string &Name,
              std::string &Error);

  /// The f90yc spelling: "-" + Key with '_' as '-'.
  std::string flag() const;
};

std::span<const RunConfigKey> runConfigTable();
/// The row named \p Key, or null.
const RunConfigKey *findRunConfigKey(const std::string &Key);
/// One usage line per row, for f90yc's usage text.
std::string runConfigUsage();

} // namespace driver
} // namespace f90y

#endif // F90Y_DRIVER_RUNCONFIG_H
