//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suites: random vectors, the dense-matrix
/// oracle check (compile a formula through a chosen pipeline configuration,
/// execute it in the VM, and compare with Formula::toMatrix), and small
/// formula factories.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TESTS_TESTUTIL_H
#define SPL_TESTS_TESTUTIL_H

#include "ir/Formula.h"
#include "support/FaultInjection.h"

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

/// Skips the current test when an externally imposed SPL_FAULT matrix is
/// armed (the CI fault job runs the whole suite that way): tests that
/// assert healthy-path behavior — a native kernel compiling, a trial
/// passing — would otherwise report the injected fault as a failure.
/// Requires <gtest/gtest.h> at the use site.
#define SPL_SKIP_IF_FAULTS_ARMED()                                           \
  do {                                                                       \
    if (::spl::fault::armed())                                               \
      GTEST_SKIP() << "SPL_FAULT is armed; this test asserts healthy-path "  \
                      "behavior";                                            \
  } while (0)

namespace spl {
namespace test {

/// Deterministic random complex vector (unit-scale entries).
inline std::vector<Cplx> randomVector(size_t N, unsigned Seed = 12345) {
  std::mt19937 Gen(Seed);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  std::vector<Cplx> V(N);
  for (auto &X : V)
    X = Cplx(Dist(Gen), Dist(Gen));
  return V;
}

/// Deterministic random real vector.
inline std::vector<double> randomRealVector(size_t N, unsigned Seed = 54321) {
  std::mt19937 Gen(Seed);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  std::vector<double> V(N);
  for (auto &X : V)
    X = Dist(Gen);
  return V;
}

/// Largest elementwise |a-b| over \p N entries of \p A and \p B, or +inf
/// when any difference is NaN: `std::max(M, NaN)` keeps M, so a plain max
/// would let an all-NaN output pass every tolerance check.
template <typename T>
inline double maxAbsDiff(const T *A, const T *B, size_t N) {
  double M = 0;
  for (size_t I = 0; I != N; ++I) {
    const double D = std::abs(A[I] - B[I]);
    if (std::isnan(D))
      return std::numeric_limits<double>::infinity();
    M = std::max(M, D);
  }
  return M;
}

/// maxAbsDiff over whole vectors; a size mismatch reads as +inf too.
template <typename T>
inline double maxAbsDiff(const std::vector<T> &A, const std::vector<T> &B) {
  if (A.size() != B.size())
    return std::numeric_limits<double>::infinity();
  return maxAbsDiff(A.data(), B.data(), A.size());
}

/// The real vector \p Y (interleaved complex pairs) against complex \p Want.
inline double maxAbsDiff(const std::vector<double> &Y,
                         const std::vector<Cplx> &Want) {
  if (Y.size() != 2 * Want.size())
    return std::numeric_limits<double>::infinity();
  std::vector<Cplx> Got(Want.size());
  for (size_t I = 0; I != Want.size(); ++I)
    Got[I] = Cplx(Y[2 * I], Y[2 * I + 1]);
  return maxAbsDiff(Got, Want);
}

} // namespace test
} // namespace spl

#endif // SPL_TESTS_TESTUTIL_H
