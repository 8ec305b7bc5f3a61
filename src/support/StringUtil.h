//===- support/StringUtil.h - String helpers ---------------------*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers used throughout the compiler: case folding (Fortran
/// is case-insensitive), joining, and numeric formatting.
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_SUPPORT_STRINGUTIL_H
#define F90Y_SUPPORT_STRINGUTIL_H

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace f90y {

/// ASCII lowercase copy of \p S. Fortran identifiers and keywords are
/// case-insensitive; the compiler canonicalizes to lowercase.
std::string toLower(std::string_view S);

/// ASCII uppercase copy of \p S.
std::string toUpper(std::string_view S);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts, std::string_view Sep);

/// Formats a double with enough precision to round-trip, trimming trailing
/// zeros ("2.5", "0.125", "1e+20").
std::string formatDouble(double V);

/// True if \p S consists only of ASCII decimal digits (and is non-empty).
bool isDigits(std::string_view S);

/// Strict decimal parse of a command-line flag or manifest value: the
/// whole of \p Text must be an unsigned decimal number in [Min, Max]
/// (no sign, no blanks, no overflow). atoi-style silent zeroes
/// ("-pes=garbage") would hide typos behind a valid-looking
/// configuration. On failure returns false and sets \p Error to
/// "<Tool>: <Flag> must be <range>, got '<Text>'"; the "<Tool>: " prefix
/// is left out when \p Tool is empty.
bool parseDecimal(std::string_view Tool, std::string_view Flag,
                  std::string_view Text, uint64_t &Out, std::string &Error,
                  uint64_t Min = 0,
                  uint64_t Max = std::numeric_limits<uint64_t>::max());

/// As above, into a narrower unsigned type, whose range bounds the value.
template <typename T>
bool parseDecimal(std::string_view Tool, std::string_view Flag,
                  std::string_view Text, T &Out, std::string &Error,
                  uint64_t Min = 0) {
  uint64_t V = 0;
  if (!parseDecimal(Tool, Flag, Text, V, Error, Min,
                    std::numeric_limits<T>::max()))
    return false;
  Out = static_cast<T>(V);
  return true;
}

} // namespace f90y

#endif // F90Y_SUPPORT_STRINGUTIL_H
