//===- support/Hash.h - the repository's one structural hash ----*- C++ -*-===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 64-bit FNV-1a-style hash behind every content address in the
/// repository: the PEAC routine cache's structural fingerprint and the
/// serve artifact cache's compile key. Callers feed fields one by one
/// (never raw struct bytes, which would key on padding).
///
//===----------------------------------------------------------------------===//

#ifndef F90Y_SUPPORT_HASH_H
#define F90Y_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace f90y {
namespace support {

/// FNV-1a with the standard 64-bit prime but an offset basis one digit
/// short of the standard 14695981039346656037, so it is not textbook
/// FNV-1a. The basis is kept so that every fingerprint keeps its value;
/// support_test pins them.
struct Fnv1a {
  uint64_t H = 1469598103934665603ull;

  void bytes(const void *P, size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ull;
    }
  }
  void u64(uint64_t V) { bytes(&V, sizeof V); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    u64(Bits);
  }
  /// Length-prefixed, so adjacent strings cannot alias ("ab"+"c" vs
  /// "a"+"bc").
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
};

} // namespace support
} // namespace f90y

#endif // F90Y_SUPPORT_HASH_H
