//===- tests/PerfTest.cpp - Performance-evaluation component tests -------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Transforms.h"
#include "perf/Accuracy.h"
#include "perf/MemoryModel.h"
#include "perf/Metrics.h"
#include "support/HostInfo.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

using namespace spl;
using namespace spl::test;

namespace {

TEST(Metrics, PseudoMFlops) {
  // 1024-point FFT in 10us: 5*1024*10 flops / 10us = 512 MFlops... compute.
  double Want = 5.0 * 1024 * 10 / 10.0; // = 5120 "ops per us" = MFlops.
  EXPECT_NEAR(perf::pseudoMFlops(1024, 10e-6), Want, 1e-9);
  EXPECT_NEAR(perf::nominalFlops(8), 5.0 * 8 * 3, 1e-12);
}

TEST(Accuracy, ReferenceDFTMatchesOracle) {
  for (std::int64_t N : {4, 8, 16, 12, 7}) {
    auto X = randomVector(N);
    std::vector<perf::CplxL> XL(N);
    for (std::int64_t I = 0; I != N; ++I)
      XL[I] = perf::CplxL(X[I].real(), X[I].imag());
    auto RefL = perf::referenceDFT(XL);
    auto Want = dftMatrix(N).apply(X);
    std::vector<Cplx> Ref(static_cast<size_t>(N));
    for (std::int64_t I = 0; I != N; ++I)
      Ref[I] = Cplx(static_cast<double>(RefL[I].real()),
                    static_cast<double>(RefL[I].imag()));
    EXPECT_LT(maxAbsDiff(Ref, Want), 1e-10) << "N=" << N;
  }
}

TEST(Accuracy, ExactTransformScoresNearMachineEpsilon) {
  double Err = perf::relativeError(16, [](const std::vector<Cplx> &In,
                                          std::vector<Cplx> &Out) {
    Out = dftMatrix(16).apply(In);
  });
  EXPECT_LT(Err, 1e-14);
}

TEST(Accuracy, BrokenTransformScoresBadly) {
  double Err = perf::relativeError(16, [](const std::vector<Cplx> &In,
                                          std::vector<Cplx> &Out) {
    Out.assign(In.size(), Cplx(0, 0));
  });
  EXPECT_NEAR(Err, 1.0, 1e-12); // ||0 - y|| / ||y|| = 1.
}

TEST(MemoryModel, CountsTempsTablesAndCode) {
  using namespace icode;
  Program P;
  P.InSize = 4;
  P.OutSize = 4;
  P.TempVecSizes = {8};
  P.Tables.push_back(std::vector<Cplx>(16));
  P.NumFltTemps = 2;
  P.Body.push_back(Instr::copy(Operand::fltTemp(0),
                               Operand::vecElem(VecIn, Affine(0))));
  auto U = perf::accountProgram(P, /*BytesPerInstr=*/10);
  EXPECT_EQ(U.TempBytes, 8u * 16);  // Complex elements.
  EXPECT_EQ(U.TableBytes, 16u * 16);
  EXPECT_EQ(U.CodeBytes, 10u);
  EXPECT_EQ(U.total(), U.TempBytes + U.TableBytes + U.CodeBytes);
}

TEST(MemoryModel, RealProgramsUseEightBytesPerElement) {
  icode::Program P;
  P.Type = icode::DataType::Real;
  P.TempVecSizes = {4};
  auto U = perf::accountProgram(P);
  EXPECT_EQ(U.TempBytes, 4u * 8);
}

TEST(Timer, BestOfIsPositiveAndStable) {
  volatile double Sink = 0;
  double T = timeBestOf(
      [&] {
        double S = 0;
        for (int I = 0; I < 1000; ++I)
          S += I * 0.5;
        Sink = S;
      },
      2, 1e-4);
  EXPECT_GT(T, 0);
  EXPECT_LT(T, 0.1);
}

TEST(HostInfo, DetectsSomething) {
  auto Info = HostInfo::detect();
  // On Linux we should at least know the OS and memory.
  EXPECT_FALSE(Info.table().empty());
#if defined(__linux__)
  EXPECT_GT(Info.MemoryBytes, 0u);
  EXPECT_FALSE(Info.OSName.empty());
#endif
}

TEST(HostInfo, FormatBytesMatchesTableOneStyle) {
  EXPECT_EQ(formatBytes(16 * 1024), "16KB");
  EXPECT_EQ(formatBytes(512 * 1024), "512KB");
  EXPECT_EQ(formatBytes(2ull << 20), "2MB");
  EXPECT_EQ(formatBytes(384ull << 20), "384MB");
  EXPECT_EQ(formatBytes(1ull << 30), "1GB");
}

} // namespace
