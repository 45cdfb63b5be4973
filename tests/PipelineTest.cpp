//===- tests/PipelineTest.cpp - Restructuring and optimization tests ---------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests over the pass pipeline: every configuration of unrolling,
/// scalarization, optimization level, type lowering and peepholes must
/// preserve the dense-matrix semantics, and each pass must deliver its
/// structural promise (no loops after unrolling, no intrinsics after
/// evaluation, fewer operations after optimization, ...).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "frontend/Parser.h"
#include "ir/Builder.h"
#include "lower/Expander.h"
#include "opt/DCE.h"
#include "opt/Pipeline.h"
#include "templates/Registry.h"
#include "vm/Executor.h"
#include "xform/Complex2Real.h"
#include "xform/IntrinEval.h"
#include "xform/Scalarize.h"
#include "xform/Unroll.h"

#include <gtest/gtest.h>

using namespace spl;
using namespace spl::test;

namespace {

icode::Program expandOrDie(const FormulaRef &F, std::int64_t Threshold = 0) {
  Diagnostics Diags;
  static auto Registry = tpl::TemplateRegistry::withBuiltins();
  lower::Expander Exp(Registry, Diags);
  lower::ExpandOptions Opts;
  Opts.UnrollThreshold = Threshold;
  auto P = Exp.expand(F, Opts);
  EXPECT_TRUE(P) << Diags.dump();
  return *P;
}

/// Runs a complex program (VM) and compares against the oracle.
void checkProgramComplex(const icode::Program &P, const FormulaRef &F,
                         double Tol = 1e-9) {
  vm::Executor VM(P);
  std::vector<Cplx> X = randomVector(P.InSize), Got;
  VM.run(X, Got);
  std::vector<Cplx> Want = F->toMatrix().apply(X);
  EXPECT_LT(maxAbsDiff(Got, Want), Tol) << F->print();
}

/// Runs a lowered (interleaved-real) program and compares.
void checkProgramLowered(const icode::Program &P, const FormulaRef &F,
                         double Tol = 1e-9) {
  ASSERT_TRUE(P.LoweredToReal);
  vm::Executor VM(P);
  std::vector<Cplx> X = randomVector(P.InSize);
  std::vector<double> XR(2 * X.size()), YR;
  for (size_t I = 0; I != X.size(); ++I) {
    XR[2 * I] = X[I].real();
    XR[2 * I + 1] = X[I].imag();
  }
  VM.runReal(XR, YR);
  std::vector<Cplx> Want = F->toMatrix().apply(X);
  ASSERT_EQ(YR.size(), Want.size() * 2);
  EXPECT_LT(maxAbsDiff(YR, Want), Tol) << F->print();
}

FormulaRef fft8() {
  Diagnostics Diags;
  FormulaRef F = parseFormulaString(
      "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) "
      "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2)))"
      " (L 8 2))",
      Diags);
  EXPECT_TRUE(F) << Diags.dump();
  return F;
}

TEST(Unroll, FullyUnrolledHasNoLoops) {
  auto P = expandOrDie(fft8(), /*Threshold=*/64);
  auto U = xform::unrollLoops(P);
  EXPECT_TRUE(xform::isStraightLine(U));
  checkProgramComplex(U, fft8());
}

TEST(Unroll, UnflaggedLoopsSurvive) {
  auto P = expandOrDie(fft8(), /*Threshold=*/0);
  auto U = xform::unrollLoops(P);
  EXPECT_FALSE(xform::isStraightLine(U));
  checkProgramComplex(U, fft8());
}

TEST(Unroll, UnrollAllIgnoresFlags) {
  auto P = expandOrDie(fft8(), 0);
  auto U = xform::unrollLoops(P, /*OnlyFlagged=*/false);
  EXPECT_TRUE(xform::isStraightLine(U));
  checkProgramComplex(U, fft8());
}

TEST(Unroll, PartialUnrollPreservesSemantics) {
  FormulaRef F = makeTensor(makeIdentity(8), makeDFT(2));
  auto P = expandOrDie(F);
  for (int Factor : {2, 4, 8}) {
    auto U = xform::partialUnroll(P, Factor);
    checkProgramComplex(U, F);
    // The loop is still there, with a shorter trip count.
    bool FoundLoop = false;
    for (const auto &I : U.Body)
      if (I.Opcode == icode::Op::Loop) {
        FoundLoop = true;
        EXPECT_EQ(I.Hi - I.Lo + 1, 8 / Factor);
      }
    EXPECT_TRUE(FoundLoop);
  }
}

TEST(Unroll, PartialUnrollSkipsIndivisibleTrips) {
  FormulaRef F = makeTensor(makeIdentity(6), makeDFT(2));
  auto P = expandOrDie(F);
  auto U = xform::partialUnroll(P, 4); // 6 % 4 != 0: untouched.
  EXPECT_EQ(U.Body.size(), P.Body.size());
  checkProgramComplex(U, F);
}

TEST(IntrinEval, NoIntrinsicsRemain) {
  auto P = expandOrDie(makeDFT(6));
  auto E = xform::evalIntrinsics(P);
  for (const auto &I : E.Body) {
    EXPECT_FALSE(I.A.is(icode::OpndKind::Intrinsic));
    EXPECT_FALSE(I.B.is(icode::OpndKind::Intrinsic));
  }
  EXPECT_FALSE(E.Tables.empty()); // Loop-indexed W() becomes a table.
  checkProgramComplex(E, makeDFT(6));
}

TEST(IntrinEval, ConstantCallsFoldWithoutTables) {
  // Fully unrolled code evaluates intrinsics to constants; no tables.
  auto P = xform::unrollLoops(expandOrDie(makeDFT(4), 64));
  auto E = xform::evalIntrinsics(P);
  EXPECT_TRUE(E.Tables.empty());
  checkProgramComplex(E, makeDFT(4));
}

TEST(IntrinEval, IdenticalTablesAreShared) {
  // (I 2) (x) F4 instantiates F4's twiddle table twice; the evaluator must
  // share the storage.
  Diagnostics Diags;
  FormulaRef F4 = parseFormulaString(
      "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))",
      Diags);
  ASSERT_TRUE(F4);
  FormulaRef F = makeCompose(makeTensor(makeIdentity(2), F4),
                             makeTensor(F4, makeIdentity(2)));
  auto P = xform::evalIntrinsics(expandOrDie(F));
  // Count distinct tables: T^4_2's diagonal appears repeatedly.
  std::set<size_t> Sizes;
  for (const auto &T : P.Tables)
    Sizes.insert(T.size());
  EXPECT_LE(P.Tables.size(), 2u * Sizes.size() + 2);
  checkProgramComplex(P, F);
}

TEST(Scalarize, TempVectorsBecomeScalars) {
  auto P = xform::evalIntrinsics(xform::unrollLoops(expandOrDie(fft8(), 64)));
  auto S = xform::scalarizeTemps(P);
  for (const auto &I : S.Body) {
    auto NoTempVec = [](const icode::Operand &O) {
      return !(O.Kind == icode::OpndKind::VecElem &&
               O.Id >= icode::FirstTempVec);
    };
    EXPECT_TRUE(NoTempVec(I.Dst));
    EXPECT_TRUE(NoTempVec(I.A));
    EXPECT_TRUE(NoTempVec(I.B));
  }
  checkProgramComplex(S, fft8());
}

TEST(Scalarize, LoopIndexedVectorsKept) {
  auto P = xform::evalIntrinsics(expandOrDie(fft8()));
  auto S = xform::scalarizeTemps(P);
  checkProgramComplex(S, fft8());
}

TEST(Complex2Real, LoweredMatchesComplex) {
  for (const FormulaRef &F :
       {makeDFT(4), makeTwiddle(8, 2),
        makeCompose(makeDFT(2), makeDiagonal({Cplx(0, 1), Cplx(2, -3)}))}) {
    auto P = xform::evalIntrinsics(expandOrDie(F));
    auto R = xform::lowerToReal(P);
    EXPECT_TRUE(R.LoweredToReal);
    checkProgramLowered(R, F);
  }
}

TEST(Complex2Real, MulByMinusIUsesSwapAndNeg) {
  // y = diag(-i, -i) x lowers to copies and negations, no multiplies.
  FormulaRef F = makeDiagonal({Cplx(0, -1), Cplx(0, -1)});
  auto R = xform::lowerToReal(xform::evalIntrinsics(expandOrDie(F)));
  for (const auto &I : R.Body)
    EXPECT_NE(I.Opcode, icode::Op::Mul);
  checkProgramLowered(R, F);
}

TEST(Complex2Real, AliasedSwapIsSafe) {
  // (F 2) then twiddle in place via compose: exercises dst==src swaps.
  FormulaRef F = makeCompose(makeDiagonal({Cplx(0, -1), Cplx(0, 1)}),
                             makeDFT(2));
  auto R = xform::lowerToReal(xform::evalIntrinsics(expandOrDie(F)));
  checkProgramLowered(R, F);
}

TEST(Optimizer, DefaultLevelShrinksUnrolledCode) {
  opt::PipelineOptions None;
  None.Level = opt::OptLevel::None;
  opt::PipelineOptions Full;
  Full.Level = opt::OptLevel::Default;

  auto P = expandOrDie(fft8(), 64);
  auto PNone = opt::runPipeline(P, None);
  auto PFull = opt::runPipeline(P, Full);
  EXPECT_LT(PFull.dynamicOpCount(), PNone.dynamicOpCount());
  checkProgramComplex(PNone, fft8());
  checkProgramComplex(PFull, fft8());
}

TEST(Optimizer, AllLevelsCorrectAcrossFormulas) {
  std::vector<FormulaRef> Formulas = {
      makeDFT(8),
      fft8(),
      makeCompose(makeWHT(4), makeStride(4, 2)),
      makeTensor(makeDFT(2), makeDFT(4)),
      makeDirectSum(makeDFT(4), makeIdentity(2)),
  };
  for (const auto &F : Formulas) {
    for (auto Level : {opt::OptLevel::None, opt::OptLevel::Scalarize,
                       opt::OptLevel::Default}) {
      for (bool Lower : {false, true}) {
        for (std::int64_t Thresh : {std::int64_t(0), std::int64_t(64)}) {
          opt::PipelineOptions Opts;
          Opts.Level = Level;
          Opts.LowerToReal = Lower;
          auto P = opt::runPipeline(expandOrDie(F, Thresh), Opts);
          if (Lower)
            checkProgramLowered(P, F);
          else
            checkProgramComplex(P, F);
        }
      }
    }
  }
}

TEST(Optimizer, ConstantFoldingFoldsTableReads) {
  // Unrolled DFT: all twiddles become constants; the optimizer should fold
  // multiplications by 1 away entirely.
  auto P = expandOrDie(makeDFT(2), 64);
  opt::PipelineOptions Opts;
  auto O = opt::runPipeline(P, Opts);
  // F2 is adds/subs only once folded.
  for (const auto &I : O.Body)
    EXPECT_NE(I.Opcode, icode::Op::Mul);
  checkProgramComplex(O, makeDFT(2));
}

TEST(Optimizer, CSEEliminatesRepeatedExpressions) {
  // (F 4) by definition recomputes W-weighted terms; CSE should reduce the
  // op count versus the unoptimized version.
  opt::PipelineOptions None;
  None.Level = opt::OptLevel::None;
  opt::PipelineOptions Full;
  auto P = expandOrDie(makeDFT(4), 64);
  EXPECT_LT(opt::runPipeline(P, Full).dynamicOpCount(),
            opt::runPipeline(P, None).dynamicOpCount());
}

TEST(Optimizer, DCERemovesUnusedWrites) {
  using namespace icode;
  Program P;
  P.InSize = 1;
  P.OutSize = 1;
  P.NumFltTemps = 3;
  P.Body.push_back(Instr::copy(Operand::fltTemp(0),
                               Operand::vecElem(VecIn, Affine(0))));
  // Dead: f1 never read.
  P.Body.push_back(Instr::bin(Op::Add, Operand::fltTemp(1),
                              Operand::fltTemp(0), Operand::fltTemp(0)));
  P.Body.push_back(Instr::copy(Operand::vecElem(VecOut, Affine(0)),
                               Operand::fltTemp(0)));
  auto O = opt::eliminateDeadCode(P);
  EXPECT_EQ(O.Body.size(), 2u);
}

TEST(Optimizer, DCEKeepsLastOutputWrite) {
  using namespace icode;
  Program P;
  P.InSize = 1;
  P.OutSize = 1;
  // Overwritten output write is dead; the final one stays.
  P.Body.push_back(Instr::copy(Operand::vecElem(VecOut, Affine(0)),
                               Operand::fltConst(Cplx(1, 0))));
  P.Body.push_back(Instr::copy(Operand::vecElem(VecOut, Affine(0)),
                               Operand::vecElem(VecIn, Affine(0))));
  auto O = opt::eliminateDeadCode(P);
  ASSERT_EQ(O.Body.size(), 1u);
  EXPECT_TRUE(O.Body[0].A.is(OpndKind::VecElem));
}

TEST(Optimizer, PeepholeNegToSub) {
  using namespace icode;
  Program P;
  P.InSize = 1;
  P.OutSize = 1;
  P.Body.push_back(Instr::neg(Operand::vecElem(VecOut, Affine(0)),
                              Operand::vecElem(VecIn, Affine(0))));
  auto O = opt::peephole(P);
  ASSERT_EQ(O.Body.size(), 1u);
  EXPECT_EQ(O.Body[0].Opcode, Op::Sub);
  EXPECT_EQ(O.Body[0].A.FConst, Cplx(0, 0));
}

TEST(Optimizer, PeepholeNegConstMulFuses) {
  using namespace icode;
  Program P;
  P.InSize = 1;
  P.OutSize = 1;
  P.NumFltTemps = 1;
  P.Body.push_back(Instr::bin(Op::Mul, Operand::fltTemp(0),
                              Operand::fltConst(Cplx(7, 0)),
                              Operand::vecElem(VecIn, Affine(0))));
  P.Body.push_back(Instr::neg(Operand::vecElem(VecOut, Affine(0)),
                              Operand::fltTemp(0)));
  auto O = opt::peephole(P);
  auto Final = opt::eliminateDeadCode(O);
  ASSERT_EQ(Final.Body.size(), 1u);
  EXPECT_EQ(Final.Body[0].Opcode, Op::Mul);
  EXPECT_EQ(Final.Body[0].A.FConst, Cplx(-7, 0));
}

TEST(Optimizer, PartialUnrollThroughPipeline) {
  FormulaRef F = fft8();
  for (int Factor : {0, 2, 4}) {
    opt::PipelineOptions Opts;
    Opts.PartialUnrollFactor = Factor;
    auto P = opt::runPipeline(expandOrDie(F, /*Threshold=*/0), Opts);
    checkProgramComplex(P, F);
  }
}

TEST(Optimizer, SparcPipelineStaysCorrect) {
  opt::PipelineOptions Opts;
  Opts.SparcPeephole = true;
  auto P = opt::runPipeline(expandOrDie(fft8(), 64), Opts);
  for (const auto &I : P.Body)
    EXPECT_NE(I.Opcode, icode::Op::Neg); // All negations rewritten.
  checkProgramComplex(P, fft8());
}

} // namespace
