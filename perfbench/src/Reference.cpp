//===- Reference.cpp - Long-double references from the definitions -*- C++ -*-//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Output checks that share no code with the program: each transform is
/// summed directly from its definition in long double (DFT with
/// w = exp(-2 pi i / N), FFTW r2hc halfcomplex, unnormalized DCT-II,
/// natural-order Hadamard, row-major 2-D DFT), and the energy identity of
/// each transform is checked on the program's full output.
///
/// The error bound is the Cooley-Tukey one, c * eps * log2 N * ||x||_2
/// per output element: each output is a sum of N products formed through
/// log2 N levels of butterflies, every level adding at most a few rounding
/// errors of the running magnitude, and no output is larger than
/// sqrt(N) ||x||_2. Random-sign rounding errors grow like sqrt(N), which
/// cancels that factor. With kC = 8 the worst error seen on every spec of
/// the list is 0.29 of the tolerance (README.md, "Output checks").
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <mutex>
#include <numbers>
#include <set>
#include <sstream>

using namespace perfbench;
using spl::runtime::PlanSpec;

namespace {

constexpr double kC = 8.0;

/// cos/sin(2 pi j / M) for j < M, long double, cached per M.
struct Roots {
  std::vector<long double> C, S;
};

const Roots &roots(std::int64_t M) {
  static std::mutex Mu;
  static std::map<std::int64_t, std::unique_ptr<Roots>> Cache;
  std::lock_guard<std::mutex> L(Mu);
  auto &Slot = Cache[M];
  if (!Slot) {
    Slot = std::make_unique<Roots>();
    Slot->C.resize(static_cast<std::size_t>(M));
    Slot->S.resize(static_cast<std::size_t>(M));
    const long double TwoPi = 2.0L * std::numbers::pi_v<long double>;
    for (std::int64_t J = 0; J != M; ++J) {
      long double A = TwoPi * static_cast<long double>(J) /
                      static_cast<long double>(M);
      Slot->C[J] = cosl(A);
      Slot->S[J] = sinl(A);
    }
  }
  return *Slot;
}

struct CplxL {
  long double Re = 0, Im = 0;
};

/// DFT bin \p K of \p N complex points at X[2 (Off + n Stride)].
CplxL dftBin(const double *X, std::int64_t N, std::int64_t Off,
             std::int64_t Stride, std::int64_t K) {
  const Roots &W = roots(N);
  CplxL Acc;
  for (std::int64_t Nn = 0; Nn != N; ++Nn) {
    std::int64_t Idx = (K * Nn) % N;
    long double Xr = X[2 * (Off + Nn * Stride)];
    long double Xi = X[2 * (Off + Nn * Stride) + 1];
    // x * (cos - i sin)
    Acc.Re += Xr * W.C[Idx] + Xi * W.S[Idx];
    Acc.Im += Xi * W.C[Idx] - Xr * W.S[Idx];
  }
  return Acc;
}

/// Real-input DFT bin \p K.
CplxL realDftBin(const double *X, std::int64_t N, std::int64_t K) {
  const Roots &W = roots(N);
  CplxL Acc;
  for (std::int64_t Nn = 0; Nn != N; ++Nn) {
    std::int64_t Idx = (K * Nn) % N;
    Acc.Re += X[Nn] * W.C[Idx];
    Acc.Im -= X[Nn] * W.S[Idx];
  }
  return Acc;
}

long double dct2Bin(const double *X, std::int64_t N, std::int64_t K) {
  const Roots &W = roots(4 * N); // cos(pi k (2j+1) / 2N) = cos(2 pi m / 4N).
  long double Acc = 0;
  for (std::int64_t J = 0; J != N; ++J)
    Acc += X[J] * W.C[(K * (2 * J + 1)) % (4 * N)];
  return Acc;
}

long double whtBin(const double *X, std::int64_t N, std::int64_t K) {
  long double Acc = 0;
  for (std::int64_t J = 0; J != N; ++J)
    Acc += (__builtin_popcountll(static_cast<unsigned long long>(K & J)) & 1)
               ? -static_cast<long double>(X[J])
               : static_cast<long double>(X[J]);
  return Acc;
}

/// The bins to check: all for N <= 256, else 0, N/2, N-1 and 13 seeded.
std::vector<std::int64_t> chooseBins(std::int64_t N, std::uint64_t Seed) {
  std::vector<std::int64_t> B;
  if (N <= 256) {
    for (std::int64_t K = 0; K != N; ++K)
      B.push_back(K);
    return B;
  }
  std::set<std::int64_t> S = {0, N / 2, N - 1};
  std::mt19937_64 Gen(Seed);
  std::uniform_int_distribution<std::int64_t> D(0, N - 1);
  while (S.size() < 16)
    S.insert(D(Gen));
  return {S.begin(), S.end()};
}

double WorstRatio = 0;
std::mutex WorstMu;

} // namespace

double perfbench::worstReferenceRatio() {
  std::lock_guard<std::mutex> L(WorstMu);
  return WorstRatio;
}

double perfbench::pseudoFlops(const PlanSpec &Spec) {
  double N = static_cast<double>(Spec.Size);
  double F = 5.0 * N * std::log2(N);
  return Spec.Transform == "rdft" ? F / 2 : F;
}

RefResult perfbench::checkReference(const PlanSpec &Spec, const double *X,
                                    const double *Y, std::uint64_t BinSeed) {
  RefResult R;
  const std::string &T = Spec.Transform;
  const std::int64_t N = Spec.Size;
  const bool Complex = T == "fft";
  const std::int64_t Len = Complex ? 2 * N : N;

  long double XNorm2 = 0;
  for (std::int64_t I = 0; I != Len; ++I)
    XNorm2 += static_cast<long double>(X[I]) * X[I];
  const double Log2N = std::log2(static_cast<double>(N));
  R.Tol = kC * DBL_EPSILON * Log2N * std::sqrt(static_cast<double>(XNorm2));

  // Element-wise comparison on the chosen bins.
  auto Compare = [&](std::int64_t Index, long double Ref) {
    double Err = std::fabs(static_cast<double>(Y[Index] - Ref));
    if (!(Err <= R.Tol) && R.Ok) { // NaN fails too.
      R.Ok = false;
      std::ostringstream OS;
      OS << T << " " << N << ": element " << Index << " = " << Y[Index]
         << ", reference " << static_cast<double>(Ref) << ", error " << Err
         << " > tolerance " << R.Tol;
      R.Why = OS.str();
    }
    R.MaxErr = std::max(R.MaxErr, std::isfinite(Err) ? Err : HUGE_VAL);
  };

  for (std::int64_t K : chooseBins(N, BinSeed)) {
    if (T == "fft" && Spec.Shape.size() == 2) {
      const std::int64_t N1 = Spec.Shape[0], N2 = Spec.Shape[1];
      const std::int64_t K1 = K / N2, K2 = K % N2;
      const Roots &W1 = roots(N1);
      CplxL Acc;
      for (std::int64_t R1 = 0; R1 != N1; ++R1) {
        CplxL Row = dftBin(X, N2, R1 * N2, 1, K2);
        std::int64_t Idx = (K1 * R1) % N1;
        Acc.Re += Row.Re * W1.C[Idx] + Row.Im * W1.S[Idx];
        Acc.Im += Row.Im * W1.C[Idx] - Row.Re * W1.S[Idx];
      }
      Compare(2 * K, Acc.Re);
      Compare(2 * K + 1, Acc.Im);
    } else if (T == "fft" && Spec.Shape.size() <= 1) {
      CplxL V = dftBin(X, N, 0, 1, K);
      Compare(2 * K, V.Re);
      Compare(2 * K + 1, V.Im);
    } else if (T == "rdft") {
      // r2hc: element k <= N/2 is Re Y_k, element N-k is Im Y_k.
      if (K <= N / 2)
        Compare(K, realDftBin(X, N, K).Re);
      else
        Compare(K, realDftBin(X, N, N - K).Im);
    } else if (T == "dct2") {
      Compare(K, dct2Bin(X, N, K));
    } else if (T == "wht") {
      Compare(K, whtBin(X, N, K));
    } else {
      R.Ok = false;
      R.Why = "no reference for transform " + T;
      return R;
    }
  }

  {
    std::lock_guard<std::mutex> L(WorstMu);
    WorstRatio = std::max(WorstRatio, R.MaxErr / R.Tol);
  }

  // Energy: the DFT and Hadamard matrices have orthogonal rows of squared
  // norm N; the halfcomplex output stores each conjugate pair once; DCT-II
  // rows have squared norm N (k = 0) and N/2.
  long double Ey = 0, Ex = XNorm2;
  if (T == "fft" || T == "wht") {
    for (std::int64_t I = 0; I != Len; ++I)
      Ey += static_cast<long double>(Y[I]) * Y[I];
    Ex *= N;
  } else if (T == "rdft") {
    Ey = static_cast<long double>(Y[0]) * Y[0] +
         static_cast<long double>(Y[N / 2]) * Y[N / 2];
    for (std::int64_t K = 1; K < N / 2; ++K)
      Ey += 2.0L * (static_cast<long double>(Y[K]) * Y[K] +
                    static_cast<long double>(Y[N - K]) * Y[N - K]);
    Ex *= N;
  } else if (T == "dct2") {
    Ey = static_cast<long double>(Y[0]) * Y[0] / N;
    for (std::int64_t K = 1; K != N; ++K)
      Ey += 2.0L * static_cast<long double>(Y[K]) * Y[K] / N;
  }
  double Rel = static_cast<double>(fabsl(Ey - Ex) / Ex);
  double RelTol = 2 * kC * DBL_EPSILON * Log2N;
  if (!(Rel <= RelTol) && R.Ok) {
    R.Ok = false;
    std::ostringstream OS;
    OS << T << " " << N << ": energy relative error " << Rel
       << " > tolerance " << RelTol;
    R.Why = OS.str();
  }
  return R;
}
