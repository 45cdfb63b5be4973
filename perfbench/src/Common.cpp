//===- Common.cpp - Report, inputs and process helpers ----------*- C++ -*-===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "perf/KernelCache.h"
#include "perf/KernelRunner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include <unistd.h>

using namespace perfbench;
using spl::runtime::PlanSpec;

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  op(std::isfinite(Value), "metric " + Name + " is finite");
  Metrics[Name] = {std::isfinite(Value) ? Value : 0.0, Unit};
}

void Report::op(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::cerr << "perfbench: FAILED check: " << What << "\n";
  }
}

std::string Report::json() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Failed == 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  char Buf[64];
  for (const auto &[Name, VU] : Metrics) {
    std::snprintf(Buf, sizeof Buf, "%.17g", VU.first);
    OS << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": " << Buf
       << ", \"unit\": \"" << VU.second << "\"}";
    First = false;
  }
  OS << "}}";
  return OS.str();
}

std::vector<Case> perfbench::planList() {
  auto Make = [](std::string Label, std::string T, std::int64_t N) {
    Case C;
    C.Label = std::move(Label);
    C.Spec.Transform = std::move(T);
    C.Spec.Size = N;
    return C;
  };
  std::vector<Case> L;
  for (std::int64_t N : {16, 64, 256, 1024, 4096, 65536})
    L.push_back(Make("fft" + std::to_string(N), "fft", N));
  Case V = Make("fft64v", "fft", 64);
  V.Spec.Codegen = spl::runtime::CodegenMode::Vector;
  L.push_back(V);
  L.push_back(Make("rdft1024", "rdft", 1024));
  L.push_back(Make("dct2_64", "dct2", 64));
  L.push_back(Make("wht256", "wht", 256));
  Case T = Make("fft32x32", "fft", 1024);
  T.Spec.Shape = {32, 32};
  L.push_back(T);
  return L;
}

std::shared_ptr<spl::runtime::Plan>
perfbench::findPlan(const PlanSet &Plans, const std::string &Label) {
  auto It = Plans.find(Label);
  return It == Plans.end() ? nullptr : It->second;
}

std::vector<double> perfbench::seededData(std::uint64_t Seed,
                                          const std::string &Tag,
                                          std::size_t Len) {
  std::uint64_t H = 1469598103934665603ull; // FNV-1a of the tag.
  for (unsigned char C : Tag)
    H = (H ^ C) * 1099511628211ull;
  std::mt19937_64 Gen(Seed * 0x9E3779B97F4A7C15ull ^ H);
  std::uniform_real_distribution<double> D(-1.0, 1.0);
  std::vector<double> V(Len);
  for (double &X : V)
    X = D(Gen);
  return V;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

double perfbench::peakRssMb(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB -> MB.
  return 0;
}

double perfbench::selfPeakRssMb() { return peakRssMb(getpid()); }

std::string perfbench::freshDir(const Options &O, const std::string &Stem) {
  static std::atomic<unsigned> Counter{0};
  std::string Dir = O.TmpDir + "/" + Stem + "-" + std::to_string(Counter++);
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  std::filesystem::create_directories(Dir, EC);
  return Dir;
}

void perfbench::removeDir(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

std::unique_ptr<spl::perf::CompiledKernel>
perfbench::freshKernel(const spl::runtime::Plan &P, Report &R) {
  spl::perf::KernelBuildOptions BO;
  BO.ThreadSafe = true;
  BO.Variant = P.codegenVariant();
  spl::perf::KernelError Err;
  spl::perf::KernelCache::setEnabled(false);
  auto K = spl::perf::CompiledKernel::create(P.program(), &Err, BO);
  spl::perf::KernelCache::setEnabled(true);
  R.op(K != nullptr, "kernel of " + P.spec().key() + ": " + Err.str());
  return K;
}
