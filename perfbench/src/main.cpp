//===- main.cpp - perfbench command line ------------------------*- C++ -*-===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload plan|execute|serve --seed N --seconds S --trace 0|1
///           --spld PATH --tmp DIR [--trace-out FILE]
///
/// Prints a stamp line ("perfbench-stamp {...}") and, last, the result
/// object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
/// builds this binary and calls it with a private --tmp directory.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/VectorISA.h"
#include "perf/NativeCompile.h"
#include "support/HostInfo.h"
#include "telemetry/Metrics.h"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>

using namespace perfbench;

namespace {

/// Metrics of the untraced run; the traced run reports the layers only.
const char *const EndToEnd[] = {
    "setup_s",           "peak_rss_mb",        "plan_cold_s",
    "plan_warm_ms",      "exec_small_mflops",  "exec_large_mflops",
    "batch_small_mflops", "batch_vector_mflops", "batch_rdft_mflops",
    "serve_ms_p50",      "serve_bulk_mbps"};

int usage(const char *Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workload plan|execute|serve --seed N "
               "--seconds S --trace 0|1 --spld PATH --tmp DIR "
               "[--trace-out FILE]\n";
  return 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("option " + A + " needs a value").c_str());
    std::string V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--spld")
      O.Spld = V;
    else if (A == "--tmp")
      O.TmpDir = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else
      return usage(("unknown option " + A).c_str());
  }
  // The share of the run's measured seconds each phase gets: the named
  // workload's layers most of it, the others a small slice.
  double Share[3]; // plan, execute, serve
  if (O.Workload == "plan")
    Share[0] = 0.8, Share[1] = 0.1, Share[2] = 0.1;
  else if (O.Workload == "execute")
    Share[0] = 0, Share[1] = 0.85, Share[2] = 0.15;
  else if (O.Workload == "serve")
    Share[0] = 0, Share[1] = 0.15, Share[2] = 0.85;
  else
    return usage("unknown workload");
  const double S = O.Seconds;
  if (O.Spld.empty() || O.TmpDir.empty() || !(S > 0))
    return usage("--spld, --tmp and a positive --seconds are required");
  O.Threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  if (!spl::perf::NativeModule::available()) {
    std::cerr << "perfbench: no working C compiler; every measured plan must "
                 "land on the native tier\n";
    return 3;
  }
  std::cout << "perfbench-stamp {\"workload\": " << jsonString(O.Workload)
            << ", \"seed\": " << O.Seed << ", \"seconds\": " << O.Seconds
            << ", \"trace\": " << (O.Trace ? 1 : 0)
            << ", \"host_fingerprint\": "
            << jsonString(spl::HostInfo::fingerprint())
            << ", \"cpu\": " << jsonString(spl::HostInfo::detect().CpuModel)
            << ", \"compiler\": "
            << jsonString(spl::perf::NativeModule::compilerIdentity())
            << ", \"vector_isa\": "
            << jsonString(spl::codegen::isaName(spl::codegen::detectISA()))
            << ", \"nproc\": " << O.Threads << "}" << std::endl;

  // End-to-end runs keep telemetry disarmed; the traced run arms metrics
  // and records the benchmark's own spans.
  spl::telemetry::setMetricsEnabled(O.Trace);
  Spans::get().enable(O.Trace);

  Report R;
  // Set-up: the first plan round (its warm plans serve the other phases),
  // the execute buffers and the daemon.
  PlanBench Plan(O, R);
  ExecBench Exec(O, Plan.plans(), R);
  ServeBench Serve(O, Plan.plans(), R);

  // The phases take turns for S seconds: each turn goes to the phase
  // furthest below its share, so every phase samples the whole run rather
  // than one stretch of it (this host drifts between speed states).
  double Spent[3] = {0, 0, 0};
  auto T0 = Clock::now();
  while (secondsSince(T0) < S) {
    int Next = -1;
    for (int I = 0; I != 3; ++I)
      if (Share[I] > 0 &&
          (Next < 0 || Spent[I] / Share[I] < Spent[Next] / Share[Next]))
        Next = I;
    static const char *const Turn[] = {"turn.plan", "turn.execute",
                                       "turn.serve"};
    Spans::Scope Sp(Turn[Next]);
    auto P0 = Clock::now();
    if (Next == 0)
      Plan.step();
    else if (Next == 1)
      Exec.step();
    else
      Serve.step();
    Spent[Next] += secondsSince(P0);
  }
  std::cerr << "perfbench: seconds by phase (plan, execute, serve): "
            << Spent[0] << ", " << Spent[1] << ", " << Spent[2] << "\n";
  // This process's peak over set-up and every timed turn: plan rounds and
  // execute blocks, plus the serve clients' fixed-size buffers and frames.
  const double HostRss = selfPeakRssMb();

  Plan.finish();
  Exec.finish();
  const double DaemonRss = Serve.finish();

  std::cerr << "perfbench: worst reference error is "
            << worstReferenceRatio() << " of its tolerance\n";
  if (O.Trace) {
    for (const char *Name : EndToEnd)
      R.drop(Name);
    std::cerr << Spans::get().selfTimeTable();
    if (!O.TraceOut.empty())
      R.op(Spans::get().writeChromeTrace(O.TraceOut),
           "write chrome trace " + O.TraceOut);
  } else {
    // The process hosting the program: the daemon when serving.
    R.metric("peak_rss_mb",
             O.Workload == "serve" ? DaemonRss : HostRss, "MB");
  }
  std::cout << R.json() << std::endl;
  return 0;
}
