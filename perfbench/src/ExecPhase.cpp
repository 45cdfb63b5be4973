//===- ExecPhase.cpp - execute / executeBatch throughput --------*- C++ -*-===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times only Plan::execute and Plan::executeBatch on warm, pre-touched
/// buffers: no planning runs in the timed region. Small N (fft 64) stresses
/// per-call overhead and lane staging; fft 65536 stresses the kernels.
/// Every timed block is checked bit for bit against the output
/// that was checked against the long-double reference before timing. The
/// timed cases run on one thread; executeBatch at nproc threads is checked
/// in set-up and timed only in the traced run (README.md, on its spread).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baseline/Planner.h"
#include "runtime/AlignedBuffer.h"
#include "perf/KernelRunner.h"
#include "telemetry/Metrics.h"

#include <cmath>
#include <cstring>

using namespace perfbench;
using namespace spl;
using runtime::AlignedBuffer;
using runtime::Plan;

namespace {

/// Median nanoseconds per unit of \p Fn over blocks of about 2 ms, for
/// \p Seconds (at least five blocks). \p Units is the work per call (the
/// vectors of a batch).
template <typename F> double medianNs(double Seconds, double Units, F &&Fn) {
  Fn(); // Warm: page-in, pool threads, staging buffers.
  auto C0 = Clock::now();
  Fn();
  double OneS = std::max(secondsSince(C0), 1e-9);
  const long Reps = std::max<long>(1, std::lround(2e-3 / OneS));
  std::vector<double> PerUnitNs;
  auto T0 = Clock::now();
  do {
    auto B0 = Clock::now();
    for (long I = 0; I != Reps; ++I)
      Fn();
    PerUnitNs.push_back(secondsSince(B0) * 1e9 / (Reps * Units));
  } while (PerUnitNs.size() < 5 || secondsSince(T0) < Seconds);
  return median(PerUnitNs);
}

/// One timed workload of the phase.
struct ExecCase {
  const char *Metric;
  const char *Label;
  std::int64_t Count; ///< Vectors per executeBatch; 0: single execute().
};

const ExecCase Cases[] = {
    {"exec_small_mflops", "fft64", 0},
    {"exec_large_mflops", "fft65536", 0},
    {"batch_small_mflops", "fft64", 1024},
    {"batch_vector_mflops", "fft64v", 1024},
    {"batch_rdft_mflops", "rdft1024", 256},
};

/// 64-byte aligned copy of \p V (as fftw_malloc would give a caller), so
/// the heap's placement of a buffer does not move the timings.
AlignedBuffer aligned(const std::vector<double> &V) {
  AlignedBuffer B(V.size());
  std::copy(V.begin(), V.end(), B.data());
  return B;
}

/// Seeded inputs, checked reference outputs and output buffers of one case.
struct Buffers {
  AlignedBuffer X, Expected, Y;
};

/// Inputs for \p Count vectors (one for single execute), the 1-thread
/// output as the expected result, and the reference check of its first
/// and last vectors.
Buffers prepare(const Options &O, Plan &P, std::int64_t Count,
                const std::string &Label, Report &R) {
  const std::int64_t Vecs = std::max<std::int64_t>(Count, 1);
  const std::size_t Len = static_cast<std::size_t>(P.vectorLen() * Vecs);
  Buffers B;
  B.X = aligned(
      seededData(O.Seed, Label + "#exec" + std::to_string(Count), Len));
  B.Expected = aligned(std::vector<double>(Len));
  B.Y = aligned(std::vector<double>(Len));
  if (Count == 0)
    P.execute(B.Expected.data(), B.X.data());
  else
    P.executeBatch(B.Expected.data(), B.X.data(), Count, 1);
  for (std::int64_t V : {std::int64_t(0), Vecs - 1}) {
    RefResult RR = checkReference(P.spec(), B.X.data() + V * P.vectorLen(),
                                  B.Expected.data() + V * P.vectorLen(),
                                  O.Seed + static_cast<std::uint64_t>(V));
    R.op(RR.Ok, Label + " vector " + std::to_string(V) + ": " + RR.Why);
  }
  return B;
}

void execLayers(const Options &O, double S, const PlanSet &Plans,
                Report &R) {
  auto P64 = findPlan(Plans, "fft64"), P64K = findPlan(Plans, "fft65536"),
       P4K = findPlan(Plans, "fft4096"), P64V = findPlan(Plans, "fft64v"),
       P1K = findPlan(Plans, "fft1024"), PR = findPlan(Plans, "rdft1024");
  if (!P64 || !P64K || !P4K || !P64V || !P1K || !PR) {
    R.op(false, "execute layers: a plan of the list is missing");
    return;
  }

  // The compiled kernels called directly on pre-staged data.
  auto KernelNs = [&](perf::CompiledKernel &K) {
    AlignedBuffer X = aligned(seededData(O.Seed, "kernel", K.inLen())),
                  Y(static_cast<std::size_t>(K.outLen()));
    Spans::Scope Sp("runtime.kernel");
    return medianNs(S, K.lanes(), [&] { K.run(Y.data(), X.data()); });
  };
  auto ExecNs = [&](Plan &P) {
    AlignedBuffer X = aligned(seededData(O.Seed, "exec", P.vectorLen())),
                  Y(X.size());
    Spans::Scope Sp("runtime.Plan::execute");
    return medianNs(S, 1, [&] { P.execute(Y.data(), X.data()); });
  };
  auto BatchNs = [&](Plan &P, std::int64_t Count, int Threads) {
    AlignedBuffer X = aligned(
                      seededData(O.Seed, "batch", P.vectorLen() * Count)),
                  Y(X.size());
    Spans::Scope Sp("runtime.Plan::executeBatch");
    return medianNs(S, static_cast<double>(Count), [&] {
      P.executeBatch(Y.data(), X.data(), Count, Threads);
    });
  };

  auto K64 = freshKernel(*P64, R), K64K = freshKernel(*P64K, R),
       K64V = freshKernel(*P64V, R);
  if (!K64 || !K64K || !K64V)
    return;
  const double KNs = KernelNs(*K64);
  R.metric("runtime.kernel_ns", KNs, "ns");
  R.metric("runtime.kernel_large_ns", KernelNs(*K64K), "ns");
  const double ENs = ExecNs(*P64);
  R.metric("runtime.execute_overhead_ns", ENs - KNs, "ns");

  const double B1 = BatchNs(*P64, 1024, 1), BM = BatchNs(*P64, 1024, O.Threads);
  R.metric("runtime.batch_ns_per_vec_1t", B1, "ns");
  R.metric("runtime.batch_ns_per_vec_mt", BM, "ns");
  R.metric("runtime.parallel_eff_small", B1 / BM / O.Threads, "ratio");
  const double L1 = BatchNs(*P4K, 64, 1), LM = BatchNs(*P4K, 64, O.Threads);
  R.metric("runtime.batch_large_mt_mflops", pseudoFlops(P4K->spec()) / LM * 1e3,
           "MFlops");
  R.metric("runtime.parallel_eff_large", L1 / LM / O.Threads, "ratio");

  const double VK = KernelNs(*K64V), VB = BatchNs(*P64V, 1024, 1);
  R.metric("codegen.vector_kernel_ns", VK, "ns");
  R.metric("runtime.staging_share_vector", (VB - VK) / VB, "ratio");
  R.metric("transforms.rdft_over_fft",
           BatchNs(*PR, 256, 1) / BatchNs(*P1K, 256, 1), "ratio");

  // src/baseline, the FFTW substitute, at the same sizes: no change to the
  // SPL program moves it, so it shows host drift.
  for (auto [Name, N] : {std::pair{"control.baseline_small_mflops", 64},
                         std::pair{"control.baseline_large_mflops", 65536}}) {
    auto BP = baseline::plan(N, baseline::PlanMode::Estimate);
    if (!BP.Best) {
      R.op(false, std::string("baseline plan ") + Name);
      continue;
    }
    auto XD = seededData(O.Seed, "baseline", 2 * static_cast<std::size_t>(N));
    std::vector<baseline::C> X(N), Y(N);
    for (int I = 0; I != N; ++I)
      X[I] = baseline::C(XD[2 * I], XD[2 * I + 1]);
    Spans::Scope Sp("baseline.Transform::run");
    double Ns = medianNs(S, 1, [&] { BP.Best->run(X.data(), Y.data()); });
    R.metric(Name, 5.0 * N * std::log2(double(N)) / Ns * 1e3, "MFlops");
  }

  // Tracing overhead: execute() with telemetry disarmed against armed.
  telemetry::setMetricsEnabled(false);
  const double Untraced = ExecNs(*P64);
  telemetry::setMetricsEnabled(true);
  R.metric("trace.overhead_exec_small", ExecNs(*P64) / Untraced - 1,
           "ratio");
}

/// A case being timed: its plan, buffers, block size and samples.
struct Live {
  const ExecCase *C = nullptr;
  std::shared_ptr<Plan> P;
  Buffers B;
  long Reps = 1;
  std::vector<double> NsPerVec;
  void run() {
    if (C->Count == 0)
      P->execute(B.Y.data(), B.X.data());
    else
      P->executeBatch(B.Y.data(), B.X.data(), C->Count, 1);
  }
};

} // namespace

struct ExecBench::State {
  const Options &O;
  const PlanSet &Plans;
  Report &R;
  std::vector<Live> All;

  State(const Options &O, const PlanSet &Plans, Report &R)
      : O(O), Plans(Plans), R(R) {}
};

ExecBench::ExecBench(const Options &O, const PlanSet &Plans, Report &R)
    : S(std::make_unique<State>(O, Plans, R)) {
  for (const ExecCase &C : Cases) {
    auto P = findPlan(Plans, C.Label);
    if (!P) {
      R.op(false, std::string(C.Metric) + ": no plan for " + C.Label);
      continue;
    }
    // The tier each metric measures: scalar native for fft 64, vector for
    // fft64v, native for the rest. A silent demotion fails here instead of
    // reading as a speed change.
    bool Tier = P->backend() == runtime::Backend::Native;
    if (std::string(C.Label) == "fft64")
      Tier &= P->codegenVariant() == codegen::CodegenVariant::Scalar;
    if (std::string(C.Label) == "fft64v")
      Tier &= P->codegenVariant() == codegen::CodegenVariant::Vector;
    R.op(Tier, std::string(C.Metric) + ": " + P->describe());
    if (!Tier)
      continue;
    Live L;
    L.C = &C;
    L.P = P;
    L.B = prepare(O, *P, C.Count, C.Label, R);
    // Blocks of about 2 ms; the first two calls warm the buffers, the pool
    // threads and the staging contexts.
    L.run();
    auto T0 = Clock::now();
    L.run();
    L.Reps = std::max<long>(1, std::lround(2e-3 / secondsSince(T0)));
    S->All.push_back(std::move(L));
  }
  // executeBatch at nproc threads must give the checked 1-thread output bit
  // for bit, on a batch of small and of large vectors.
  for (auto [Label, Count] :
       {std::pair{"fft64", 1024}, std::pair{"fft4096", 64}}) {
    auto P = findPlan(Plans, Label);
    if (!P) {
      R.op(false, std::string("thread check: no plan for ") + Label);
      continue;
    }
    Buffers B = prepare(O, *P, Count, Label, R);
    P->executeBatch(B.Y.data(), B.X.data(), Count, O.Threads);
    R.op(std::memcmp(B.Y.data(), B.Expected.data(),
                     B.Y.size() * sizeof(double)) == 0,
         std::string(Label) + ": executeBatch at nproc threads bit-identical "
                              "to 1 thread");
  }
}

ExecBench::~ExecBench() = default;

void ExecBench::step() {
  // The cases take turns, a few blocks each: this host moves between speed
  // states lasting seconds, and turns make every case sample the same
  // states instead of whichever state its own stretch of the run got.
  for (Live &L : S->All) {
    const double Vecs =
        static_cast<double>(std::max<std::int64_t>(L.C->Count, 1));
    for (int Block = 0; Block != 4; ++Block) {
      auto B0 = Clock::now();
      for (long I = 0; I != L.Reps; ++I)
        L.run();
      L.NsPerVec.push_back(secondsSince(B0) * 1e9 / (L.Reps * Vecs));
      // Repeats and thread counts must not change a bit of the output: the
      // checked 1-thread result is the expected one for every case.
      S->R.op(std::memcmp(L.B.Y.data(), L.B.Expected.data(),
                          L.B.Y.size() * sizeof(double)) == 0,
              std::string(L.C->Metric) +
                  ": output bit-identical to the checked 1-thread output");
    }
  }
}

void ExecBench::finish() {
  for (Live &L : S->All)
    S->R.metric(L.C->Metric,
                  pseudoFlops(L.P->spec()) / median(L.NsPerVec) * 1e3,
                  "MFlops");
  S->All.clear();
  if (S->O.Trace)
    execLayers(S->O, 0.25, S->Plans, S->R);
}
