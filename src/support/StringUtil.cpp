//===- support/StringUtil.cpp - String helpers ----------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtil.h"

#include <cctype>
#include <charconv>
#include <cstdio>

using namespace f90y;

std::string f90y::toLower(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S)
    Out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(C))));
  return Out;
}

std::string f90y::toUpper(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S)
    Out.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(C))));
  return Out;
}

std::string f90y::join(const std::vector<std::string> &Parts,
                       std::string_view Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string f90y::formatDouble(double V) {
  char Buf[64];
  // %.17g round-trips but is noisy; try shorter representations first.
  for (int Precision : {6, 9, 12, 15, 17}) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, V);
    double Back = 0;
    std::sscanf(Buf, "%lf", &Back);
    if (Back == V)
      break;
  }
  return Buf;
}

bool f90y::isDigits(std::string_view S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
  return true;
}

bool f90y::parseDecimal(std::string_view Tool, std::string_view Flag,
                        std::string_view Text, uint64_t &Out,
                        std::string &Error, uint64_t Min, uint64_t Max) {
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  const auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (isDigits(Text) && Ec == std::errc() && Ptr == End && V >= Min &&
      V <= Max) {
    Out = V;
    return true;
  }
  Error = Tool.empty() ? "" : std::string(Tool) + ": ";
  Error += std::string(Flag) + " must be ";
  Error += Min == 0 ? "a non-negative integer" : "a positive integer";
  if (Max != std::numeric_limits<uint64_t>::max())
    Error += " no greater than " + std::to_string(Max);
  Error += ", got '" + std::string(Text) + "'";
  return false;
}
