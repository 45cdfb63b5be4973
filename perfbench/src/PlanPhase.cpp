//===- PlanPhase.cpp - Cold and warm Planner::plan passes -------*- C++ -*-===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One round plans the list cold (a fresh Planner over empty private wisdom
/// and kernel-cache directories), saves the wisdom, then plans it again
/// with a fresh Planner over the now-warm directories, as after a process
/// restart. The traced run then repeats each planning layer on its own,
/// inside spans: search, expansion, optimization, emission, compilation,
/// cache probe, wisdom load and the guarded trial.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/CEmitter.h"
#include "codegen/VectorEmitter.h"
#include "gen/Enumerate.h"
#include "lower/Expander.h"
#include "opt/Pipeline.h"
#include "opt/ValueNumbering.h"
#include "perf/KernelCache.h"
#include "perf/KernelRunner.h"
#include "perf/NativeCompile.h"
#include "runtime/Planner.h"
#include "search/DPSearch.h"
#include "search/Evaluator.h"
#include "search/PlanCache.h"
#include "support/Subprocess.h"
#include "telemetry/Metrics.h"
#include "templates/Registry.h"

#include <filesystem>
#include <map>

#include <sys/stat.h>

using namespace perfbench;
using namespace spl;
using runtime::Plan;
using runtime::PlanSpec;

namespace {

/// The compiled artifacts in a kernel-cache directory, by name, with each
/// file's inode and size. A compile writes a fresh file and renames it into
/// place, so it adds a name or changes an inode even when it rewrites an
/// existing key; a cache hit only refreshes the timestamp. An unchanged map
/// across a pass means the pass ran no compiler.
std::map<std::string, std::pair<std::uintmax_t, std::uintmax_t>>
artifacts(const std::string &Dir) {
  std::map<std::string, std::pair<std::uintmax_t, std::uintmax_t>> M;
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator(Dir, EC)) {
    struct stat St;
    if (E.path().extension() == ".so" &&
        ::stat(E.path().c_str(), &St) == 0)
      M[E.path().filename().string()] = {
          static_cast<std::uintmax_t>(St.st_ino),
          static_cast<std::uintmax_t>(St.st_size)};
  }
  return M;
}

/// The tier a spec must land on: native, and vector where asked.
bool onExpectedTier(const Case &C, const Plan &P, std::string &Why) {
  if (P.backend() != runtime::Backend::Native) {
    Why = std::string("landed on the ") + runtime::backendName(P.backend()) +
          " tier (" + P.fallbackReason() + ")";
    return false;
  }
  if (C.Spec.Codegen == runtime::CodegenMode::Vector &&
      (P.codegenVariant() != codegen::CodegenVariant::Vector ||
       P.lanes() < 2)) {
    Why = "asked for vector codegen, got " +
          std::string(codegen::variantName(P.codegenVariant()));
    return false;
  }
  return true;
}

/// Checks a fresh plan: tier, and two seeded vectors against the reference.
void checkPlan(const Options &O, const Case &C, Plan *P,
               const std::string &Pass, Report &R) {
  std::string What = Pass + " plan " + C.Label;
  if (!P) {
    R.op(false, What + ": plan() returned null");
    return;
  }
  std::string Why;
  bool Ok = onExpectedTier(C, *P, Why);
  for (int V = 0; V != 2 && Ok; ++V) {
    std::string Tag = C.Label + "#check" + std::to_string(V);
    auto X = seededData(O.Seed, Tag, static_cast<std::size_t>(P->vectorLen()));
    std::vector<double> Y(X.size());
    P->execute(Y.data(), X.data());
    RefResult RR = checkReference(P->spec(), X.data(), Y.data(),
                                  O.Seed + static_cast<std::uint64_t>(V));
    if (!RR.Ok) {
      Ok = false;
      Why = RR.Why;
    }
  }
  R.op(Ok, What + ": " + Why);
}

struct Round {
  double ColdS = 0;
  std::vector<double> WarmMs;
  std::uint64_t ColdCompiles = 0, WarmCompiles = 0;
  PlanSet Cold, Warm;
  std::string Dir, WisdomPath, CacheDir;
};

Round planRound(const Options &O, const std::vector<Case> &List, Report &R) {
  static telemetry::Counter &Compiles = telemetry::counter("native.compiles");
  Round Rd;
  Rd.Dir = freshDir(O, "plan");
  runtime::PlannerOptions PO;
  Rd.WisdomPath = PO.WisdomPath = Rd.Dir + "/wisdom";
  Rd.CacheDir = PO.KernelCacheDir = Rd.Dir + "/kernels";

  {
    Diagnostics D;
    runtime::Planner P(D, PO);
    std::uint64_t C0 = Compiles.value();
    Spans::Scope S("plan.cold_pass");
    auto T0 = Clock::now();
    for (const Case &C : List) {
      Spans::Scope SP("runtime.Planner::plan");
      Rd.Cold[C.Label] = P.plan(C.Spec);
    }
    Rd.ColdS = secondsSince(T0);
    Rd.ColdCompiles = Compiles.value() - C0;
    R.op(P.saveWisdom(), "save wisdom to " + Rd.WisdomPath);
  }
  for (const Case &C : List)
    checkPlan(O, C, Rd.Cold[C.Label].get(), "cold", R);

  const auto Before = artifacts(Rd.CacheDir);
  {
    Diagnostics D;
    runtime::Planner P(D, PO);
    std::uint64_t C0 = Compiles.value();
    Spans::Scope S("plan.warm_pass");
    for (const Case &C : List) {
      Spans::Scope SP("runtime.Planner::plan");
      auto T0 = Clock::now();
      Rd.Warm[C.Label] = P.plan(C.Spec);
      Rd.WarmMs.push_back(secondsSince(T0) * 1e3);
    }
    Rd.WarmCompiles = Compiles.value() - C0;
  }
  const bool NoCompiles = artifacts(Rd.CacheDir) == Before;
  for (const Case &C : List) {
    Plan *W = Rd.Warm[C.Label].get();
    checkPlan(O, C, W, "warm", R);
    Plan *Cd = Rd.Cold[C.Label].get();
    R.op(W && Cd && W->formulaText() == Cd->formulaText() &&
             W->codegenVariant() == Cd->codegenVariant() && NoCompiles,
         "warm plan " + C.Label +
             " has the cold formula and variant, with no compiler call");
  }
  return Rd;
}

/// Milliseconds of one call.
template <typename F> double timeMs(const char *Span, F &&Fn) {
  Spans::Scope S(Span);
  auto T0 = Clock::now();
  Fn();
  return secondsSince(T0) * 1e3;
}

/// The traced run's planning layers, each called on its own for every spec
/// of the list: search from scratch, then the winner through expansion,
/// optimization, emission, compilation with the cache off and a guarded
/// kernel call; then the warm-path layers against the last round's
/// directories.
void planLayers(const std::vector<Case> &List, const Round &Last,
                Report &R) {
  Diagnostics D;
  double SearchMs = 0, ExpandMs = 0, VNMs = 0, PipeMs = 0, EmitMs = 0,
         CcMs = 0, TrialMs = 0, ProbeMs = 0, CKb = 0;
  std::uint64_t Candidates = 0;
  std::vector<std::string> Keys;
  auto Templates = tpl::TemplateRegistry::withBuiltins();

  for (const Case &C : List) {
    Spans::Scope SC("layers." + C.Label);
    Plan *P = Last.Cold.at(C.Label).get();
    if (!P)
      continue; // Already counted as a failed plan.
    const bool Complex = C.Spec.Transform == "fft" ||
                         C.Spec.Transform == "rdft";
    driver::CompilerOptions CO;
    CO.UnrollThreshold = C.Spec.UnrollThreshold;
    CO.EmitCode = false;
    search::OpCountEvaluator Eval(D, CO);
    Eval.setDatatype(Complex ? "complex" : "real");
    if (Complex) {
      search::SearchOptions SO;
      SO.MaxLeaf = C.Spec.MaxLeaf;
      SO.Transform = C.Spec.Transform;
      search::DPSearch Search(Eval, D, SO, nullptr);
      std::vector<std::int64_t> Dims = C.Spec.Shape.size() >= 2
                                           ? C.Spec.Shape
                                           : std::vector{C.Spec.Size};
      SearchMs += timeMs("search.DPSearch", [&] {
        for (std::int64_t N : Dims)
          R.op(Search.best(N).has_value(), "search " + C.Label);
      });
    } else if (C.Spec.Transform == "wht") {
      SearchMs += timeMs("search.DPSearch", [&] {
        for (const FormulaRef &F : gen::enumerateWHT(C.Spec.Size, 24))
          (void)Eval.cost(F);
      });
    }
    Candidates += Eval.evaluations();

    lower::Expander Exp(Templates, D);
    lower::ExpandOptions EO;
    EO.SubName = P->program().SubName;
    EO.Datatype = Complex ? icode::DataType::Complex : icode::DataType::Real;
    EO.UnrollThreshold = C.Spec.UnrollThreshold;
    std::optional<icode::Program> Expanded;
    ExpandMs += timeMs("lower.expand", [&] {
      Expanded = Exp.expand(P->formula(), EO);
    });
    if (!Expanded) {
      R.op(false, "expand " + C.Label);
      continue;
    }
    opt::PipelineOptions PipeO;
    PipeO.LowerToReal = Complex;
    icode::Program Final;
    PipeMs += timeMs("opt.runPipeline",
                     [&] { Final = opt::runPipeline(*Expanded, PipeO); });
    opt::PipelineOptions PreVN = PipeO;
    PreVN.Level = opt::OptLevel::Scalarize;
    icode::Program BeforeVN = opt::runPipeline(*Expanded, PreVN);
    VNMs += timeMs("opt.valueNumber",
                   [&] { (void)opt::valueNumber(BeforeVN); });

    const bool Vector =
        P->codegenVariant() == codegen::CodegenVariant::Vector;
    const codegen::VectorISA ISA = codegen::detectISA();
    std::string Code, Flags = "-O2", Tag;
    EmitMs += timeMs("codegen.emit", [&] {
      if (Vector) {
        codegen::VectorEmitOptions VO;
        VO.ISA = ISA;
        VO.ExternalTables = VO.ThreadSafe = true;
        Code = codegen::emitVectorC(Final, VO);
      } else {
        codegen::CEmitOptions CEO;
        CEO.ExternalTables = CEO.ThreadSafe = true;
        Code = codegen::emitC(Final, CEO);
      }
    });
    if (Vector) {
      Flags += " " + codegen::isaCompilerFlags(ISA);
      Tag = std::string("vector:") + codegen::isaName(ISA);
    }
    CKb += static_cast<double>(Code.size()) / 1024.0;
    Keys.push_back(perf::KernelCache::key(Code, Final.SubName, Flags, Tag));

    perf::KernelCache::setEnabled(false);
    std::unique_ptr<perf::NativeModule> Mod;
    std::string Err;
    CcMs += timeMs("perf.NativeModule::compile", [&] {
      Mod = perf::NativeModule::compile(Code, Final.SubName, &Err, Flags,
                                        nullptr, Tag);
    });
    perf::KernelCache::setEnabled(true);
    R.op(Mod != nullptr, "compile " + C.Label + ": " + Err);

    // The guarded trial around one call of the plan's kernel.
    auto K = freshKernel(*P, R);
    if (!K)
      continue;
    std::vector<double> X(static_cast<std::size_t>(K->inLen()), 0.5),
        Y(static_cast<std::size_t>(K->outLen()));
    GuardedResult G;
    TrialMs += timeMs("support.runGuarded", [&] {
      G = runGuarded(
          [&] {
            K->run(Y.data(), X.data());
            return 0;
          },
          runtime::Planner::trialTimeoutSeconds());
    });
    R.op(G.ok(), "guarded call of " + C.Label + ": " + G.describe());
  }

  // Warm-path layers against the last round's directories.
  double LoadMs = timeMs("search.PlanCache::load", [&] {
    search::PlanCache W(D);
    R.op(W.load(Last.WisdomPath) && W.size() > 0, "wisdom load");
  });
  for (const std::string &Key : Keys) {
    std::optional<std::string> Hit;
    ProbeMs += timeMs("perf.KernelCache::probe",
                      [&] { Hit = perf::KernelCache::probe(Key); });
    R.op(Hit.has_value(), "kernel cache probe hits " + Key);
  }

  const double ColdPlanMs = Last.ColdS * 1e3;
  double WarmPlanMs = 0;
  for (double Ms : Last.WarmMs)
    WarmPlanMs += Ms;

  R.metric("search.ms", SearchMs, "ms");
  R.metric("search.candidates", static_cast<double>(Candidates), "count");
  R.metric("search.candidates_per_s",
           static_cast<double>(Candidates) / (SearchMs / 1e3), "1/s");
  R.metric("lower.expand_ms", ExpandMs, "ms");
  R.metric("opt.vn_ms", VNMs, "ms");
  R.metric("opt.pipeline_ms", PipeMs, "ms");
  R.metric("codegen.emit_ms", EmitMs, "ms");
  R.metric("codegen.c_kb", CKb, "KB");
  R.metric("perf.cc_ms", CcMs, "ms");
  R.metric("perf.compiles_cold", static_cast<double>(Last.ColdCompiles),
           "count");
  R.metric("perf.cache_probe_ms", ProbeMs, "ms");
  R.metric("search.wisdom_load_ms", LoadMs, "ms");
  R.metric("perf.compiles_warm", static_cast<double>(Last.WarmCompiles),
           "count");
  R.op(Last.WarmCompiles == 0, "warm pass ran no compiler (native.compiles)");
  R.metric("support.trial_ms", TrialMs, "ms");
  // Share of Planner::plan wall time the layer spans explain. Value
  // numbering runs inside the pipeline, so it is not added again.
  R.metric("plan.coverage",
           (SearchMs + ExpandMs + PipeMs + EmitMs + CcMs + TrialMs) /
               ColdPlanMs,
           "ratio");
  R.metric("plan.coverage_warm",
           (LoadMs + ExpandMs + PipeMs + EmitMs + ProbeMs + TrialMs) /
               WarmPlanMs,
           "ratio");
}

} // namespace

struct PlanBench::State {
  const Options &O;
  Report &R;
  std::vector<Case> List = planList();
  std::vector<double> ColdS, WarmMs;
  Round First, Last;
  /// The traced run's untraced warm pass; kept until the end, since a plan
  /// must not outlive a later plan loaded from the same cached kernel
  /// (CHANGES.md, FOUND).
  PlanSet Untraced;

  State(const Options &O, Report &R) : O(O), R(R) {}
  Round round() {
    Round Rd = planRound(O, List, R);
    ColdS.push_back(Rd.ColdS);
    WarmMs.insert(WarmMs.end(), Rd.WarmMs.begin(), Rd.WarmMs.end());
    return Rd;
  }
};

PlanBench::PlanBench(const Options &O, Report &R)
    : S(std::make_unique<State>(O, R)) {
  S->First = S->round();
}

PlanBench::~PlanBench() = default;

const PlanSet &PlanBench::plans() const { return S->First.Warm; }

void PlanBench::step() {
  if (!S->Last.Dir.empty())
    removeDir(S->Last.Dir);
  S->Last = S->round();
}

void PlanBench::finish() {
  Report &R = S->R;
  R.metric("plan_cold_s", median(S->ColdS), "s");
  R.metric("plan_warm_ms", median(S->WarmMs), "ms");
  if (!S->O.Trace)
    return;
  const Round &Last = S->Last.Dir.empty() ? S->First : S->Last;
  planLayers(S->List, Last, R);
  // Tracing overhead: the same warm pass with telemetry disarmed.
  telemetry::setMetricsEnabled(false);
  std::vector<double> Untraced;
  {
    Diagnostics D;
    runtime::PlannerOptions PO;
    PO.WisdomPath = Last.WisdomPath;
    PO.KernelCacheDir = Last.CacheDir;
    runtime::Planner P(D, PO);
    for (const Case &C : S->List) {
      auto T1 = Clock::now();
      S->Untraced[C.Label] = P.plan(C.Spec);
      Untraced.push_back(secondsSince(T1) * 1e3);
      checkPlan(S->O, C, S->Untraced[C.Label].get(), "untraced warm", R);
    }
  }
  telemetry::setMetricsEnabled(true);
  R.metric("trace.overhead_plan_warm",
           median(Last.WarmMs) / median(Untraced) - 1, "ratio");
}
