//===- tests/TransformsTest.cpp - Transform registry tests --------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the transform registry (src/transforms) and the transform
/// definitions behind it: catalog lookups and datatype policies, the dense
/// oracle matrices (dct3 as the dct2 transpose, rdft's halfcomplex rows),
/// rule-vs-matrix parity for every recursive generator rule, and the
/// Kronecker composition of N-D oracles.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "gen/Rules.h"
#include "ir/Transforms.h"
#include "transforms/Registry.h"

#include <gtest/gtest.h>

using namespace spl;

namespace {

TEST(Registry, CatalogLookupsAndNames) {
  for (const char *Name : {"fft", "wht", "rdft", "dct2", "dct3", "dct4"}) {
    const transforms::TransformInfo *TI = transforms::lookup(Name);
    ASSERT_NE(TI, nullptr) << Name;
    EXPECT_STREQ(TI->Name, Name);
    // The diagnostics string must mention every registered transform.
    EXPECT_NE(transforms::supportedNames().find(Name), std::string::npos);
  }
  EXPECT_EQ(transforms::lookup("dct5"), nullptr);
  EXPECT_EQ(transforms::lookup(""), nullptr);
  EXPECT_EQ(transforms::all().size(), 6u);
}

TEST(Registry, DatatypePolicies) {
  const auto *Fft = transforms::lookup("fft");
  const auto *Wht = transforms::lookup("wht");
  const auto *Rdft = transforms::lookup("rdft");
  const auto *Dct2 = transforms::lookup("dct2");
  ASSERT_TRUE(Fft && Wht && Rdft && Dct2);

  EXPECT_TRUE(transforms::allowsDatatype(*Fft, "complex"));
  EXPECT_FALSE(transforms::allowsDatatype(*Fft, "real"));
  // wht kernels compile either way (the pre-registry behavior).
  EXPECT_TRUE(transforms::allowsDatatype(*Wht, "real"));
  EXPECT_TRUE(transforms::allowsDatatype(*Wht, "complex"));
  // rdft is real-in by definition; the complex kernel is an internal
  // detail (KernelDatatype), not a spec-level option.
  EXPECT_TRUE(transforms::allowsDatatype(*Rdft, "real"));
  EXPECT_FALSE(transforms::allowsDatatype(*Rdft, "complex"));
  EXPECT_STREQ(Rdft->NaturalDatatype, "real");
  EXPECT_STREQ(Rdft->KernelDatatype, "complex");
  EXPECT_FALSE(transforms::allowsDatatype(*Dct2, "complex"));
  // Never match a substring or an empty token.
  EXPECT_FALSE(transforms::allowsDatatype(*Wht, "re"));
  EXPECT_FALSE(transforms::allowsDatatype(*Wht, ""));
}

TEST(Registry, SizeRules) {
  const auto *Fft = transforms::lookup("fft");
  const auto *Rdft = transforms::lookup("rdft");
  ASSERT_TRUE(Fft && Rdft);
  EXPECT_TRUE(Fft->ValidSize(64, 16));
  EXPECT_TRUE(Fft->ValidSize(6, 16)); // Dense leaf below the bound.
  EXPECT_FALSE(Fft->ValidSize(48, 16));
  EXPECT_FALSE(Fft->ValidSize(1, 16));
  EXPECT_TRUE(Rdft->ValidSize(64, 16));
  EXPECT_FALSE(Rdft->ValidSize(6, 16)); // Strict powers of two.
  EXPECT_FALSE(Rdft->SupportsND);       // Halfcomplex packing is 1-D.
  EXPECT_TRUE(Fft->SupportsND);
}

TEST(Transforms, Dct3IsDct2Transpose) {
  for (std::int64_t N : {2, 4, 8, 16}) {
    Matrix A = dct3Matrix(N), B = dct2Matrix(N);
    std::vector<Cplx> AEntries, BTransposed;
    for (size_t R = 0; R != A.rows(); ++R)
      for (size_t C = 0; C != A.cols(); ++C) {
        AEntries.push_back(A.at(R, C));
        BTransposed.push_back(B.at(C, R));
      }
    EXPECT_EQ(test::maxAbsDiff(AEntries, BTransposed), 0.0) << "N=" << N;
  }
}

TEST(Transforms, RdftMatrixHasHalfcomplexRows) {
  const std::int64_t N = 8;
  Matrix M = rdftMatrix(N);
  // Row 0 is the DC sum; row N/2 alternates +-1 (the Nyquist bin); rows
  // above N/2 carry the imaginary parts Im Y_k = -sin terms.
  for (std::int64_t J = 0; J != N; ++J) {
    EXPECT_EQ(M.at(0, J), Cplx(1, 0));
    EXPECT_NEAR(M.at(N / 2, J).real(), J % 2 ? -1.0 : 1.0, 1e-12);
    EXPECT_EQ(M.at(N / 2, J).imag(), 0.0);
  }
  for (std::int64_t K = 1; K != N / 2; ++K)
    for (std::int64_t J = 0; J != N; ++J) {
      EXPECT_NEAR(M.at(N - K, J).real(),
                  -std::sin(2 * M_PI * static_cast<double>(K * J) /
                            static_cast<double>(N)),
                  1e-12)
          << "K=" << K << " J=" << J;
      EXPECT_EQ(M.at(N - K, J).imag(), 0.0);
    }
}

TEST(Transforms, RecursiveRulesMatchDenseOracles) {
  // Every registry rule must expand to a formula whose dense semantics are
  // exactly the transform's oracle matrix. This is the contract that lets
  // the planner compile the rule instead of the O(N^2) matrix.
  for (std::int64_t N : {2, 4, 8, 16, 32}) {
    EXPECT_LT(gen::recursiveDCT2(N)->toMatrix().maxAbsDiff(dct2Matrix(N)),
              1e-12)
        << "dct2 N=" << N;
    EXPECT_LT(gen::recursiveDCT3(N)->toMatrix().maxAbsDiff(dct3Matrix(N)),
              1e-12)
        << "dct3 N=" << N;
    EXPECT_LT(gen::recursiveDCT4(N)->toMatrix().maxAbsDiff(dct4Matrix(N)),
              1e-12)
        << "dct4 N=" << N;
    EXPECT_LT(gen::recursiveRDFT(N)->toMatrix().maxAbsDiff(rdftMatrix(N)),
              1e-12)
        << "rdft N=" << N;
  }
}

TEST(Transforms, RdftRuleEntrywiseReal) {
  // The extraction matrix times the complex DFT is entrywise real: the
  // conjugate-pair combinations cancel every imaginary part exactly, so
  // the halfcomplex fold in the runtime never drops information.
  Matrix M = gen::recursiveRDFT(16)->toMatrix();
  std::vector<double> Imag;
  for (size_t R = 0; R != M.rows(); ++R)
    for (size_t C = 0; C != M.cols(); ++C)
      Imag.push_back(M.at(R, C).imag());
  EXPECT_LT(test::maxAbsDiff(Imag, std::vector<double>(Imag.size())), 1e-12);
}

TEST(Registry, OracleMatrixKronsPerDimension) {
  const auto *Fft = transforms::lookup("fft");
  const auto *Dct2 = transforms::lookup("dct2");
  ASSERT_TRUE(Fft && Dct2);

  // One dimension is the plain oracle.
  EXPECT_EQ(transforms::oracleMatrix(*Fft, {8}).maxAbsDiff(dftMatrix(8)),
            0.0);
  // Two dimensions: row-major row-column transform = kron of the oracles.
  Matrix Want = dftMatrix(4).kron(dftMatrix(8));
  EXPECT_EQ(transforms::oracleMatrix(*Fft, {4, 8}).maxAbsDiff(Want), 0.0);
  // Mixed transform kinds never mix: dct2 krons dct2.
  Matrix D = dct2Matrix(4).kron(dct2Matrix(4));
  EXPECT_EQ(transforms::oracleMatrix(*Dct2, {4, 4}).maxAbsDiff(D), 0.0);
  // Three dimensions associate left-to-right.
  Matrix T = dftMatrix(2).kron(dftMatrix(4)).kron(dftMatrix(2));
  EXPECT_EQ(transforms::oracleMatrix(*Fft, {2, 4, 2}).maxAbsDiff(T), 0.0);
}

} // namespace
