//===- Bench.h - Shared pieces of the perfbench driver ----------*- C++ -*-===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives the program at the boundaries a user sees: a cold
/// and warm Planner::plan, Plan::execute / executeBatch, and an spld round
/// trip. Every run goes through three phases (plan, execute, serve); the
/// workload decides how much of the run each phase gets. Every output is
/// checked against a long-double reference computed here, apart from the
/// program (Reference.cpp), and every checked operation is tallied.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "runtime/Plan.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

/// Command-line options of one run.
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Spld;     ///< Path of the spld binary to serve with.
  std::string TmpDir;   ///< Private scratch root (wisdom, caches, sockets).
  std::string TraceOut; ///< Chrome-trace output path (traced runs).
  int Threads = 1;      ///< nproc: the multi-threaded batch width.
};

/// Metrics and the operation tally of one run.
class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Counts one attempted operation; a failed check prints why to stderr
  /// and counts the operation as failed.
  void op(bool Ok, const std::string &What);
  std::uint64_t attempted() const { return Attempted; }
  std::uint64_t failed() const { return Failed; }
  void drop(const std::string &Name) { Metrics.erase(Name); }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

private:
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::uint64_t Attempted = 0, Failed = 0;
};

/// One plan spec of the benchmark with its display label.
struct Case {
  std::string Label;
  spl::runtime::PlanSpec Spec;
};

/// The plan workload's list: fft {16..65536}, fft 64 vector, rdft 1024,
/// dct2 64, wht 256 and fft 32x32.
std::vector<Case> planList();

/// Plans by label, and lookup by label.
using PlanSet = std::map<std::string, std::shared_ptr<spl::runtime::Plan>>;
std::shared_ptr<spl::runtime::Plan> findPlan(const PlanSet &Plans,
                                             const std::string &Label);

/// Seeded uniform [-1, 1) data, \p Len doubles. The stream depends on the
/// run seed and \p Tag only.
std::vector<double> seededData(std::uint64_t Seed, const std::string &Tag,
                               std::size_t Len);

/// Median and quantiles of samples (copied; the input is left unsorted).
double median(std::vector<double> V);
double quantile(std::vector<double> V, double Q);

/// Peak resident set of this process (VmHWM), MB.
double selfPeakRssMb();
/// Peak resident set of process \p Pid (VmHWM), MB; 0 when unreadable.
double peakRssMb(int Pid);

/// Compiles \p P's kernel with the kernel cache off, so it gets its own
/// loaded module. A kernel loaded from a cached artifact that a plan already
/// loaded shares that module's table pointers with the plan (CHANGES.md,
/// FOUND), so the probes of the traced run never load one.
std::unique_ptr<spl::perf::CompiledKernel>
freshKernel(const spl::runtime::Plan &P, Report &R);

/// Creates a fresh, empty directory under Options::TmpDir.
std::string freshDir(const Options &O, const std::string &Stem);
/// Removes \p Dir recursively (best effort).
void removeDir(const std::string &Dir);

// --- Independent output checks (Reference.cpp) ----------------------------

/// Verdict of one output vector against the long-double reference.
struct RefResult {
  bool Ok = true;
  double MaxErr = 0; ///< Largest absolute error over the checked bins.
  double Tol = 0;    ///< c * eps * log2 N * ||x||_2.
  std::string Why;   ///< Failure description.
};

/// Checks \p Y = Transform(\p X) for the user-facing layout of \p Spec:
/// DFT (1-D and row-major N-D), r2hc halfcomplex, DCT-II and Hadamard.
/// All bins for N <= 256, otherwise a seeded sample of bins; plus the
/// energy (Parseval) identity of each transform.
RefResult checkReference(const spl::runtime::PlanSpec &Spec, const double *X,
                         const double *Y, std::uint64_t BinSeed);

/// Largest MaxErr / Tol seen by checkReference in this process.
double worstReferenceRatio();

/// Pseudo-flops of one transform: 5 N log2 N (2.5 N log2 N for rdft).
double pseudoFlops(const spl::runtime::PlanSpec &Spec);

// --- Spans of the traced run (Spans.cpp) ----------------------------------

/// In-memory span recorder. Only the traced run enables it; disabled spans
/// cost one branch.
class Spans {
public:
  static Spans &get();
  void enable(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }
  /// Opens a span as a child of the innermost open span.
  int begin(const std::string &Name);
  void end(int Id);
  /// Total and self (minus child-covered time) milliseconds of every span
  /// named \p Name.
  double totalMs(const std::string &Name) const;
  double selfMs(const std::string &Name) const;
  /// Writes every span as chrome-trace JSON; false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;
  /// "name: n spans, total ms, self ms" table for stderr.
  std::string selfTimeTable() const;

  /// RAII span.
  class Scope {
  public:
    explicit Scope(const std::string &Name)
        : Id(Spans::get().enabled() ? Spans::get().begin(Name) : -1) {}
    ~Scope() {
      if (Id >= 0)
        Spans::get().end(Id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int Id;
  };

private:
  struct Span {
    std::string Name;
    std::int64_t StartNs = 0, EndNs = 0;
    int Parent = -1;
  };
  bool Enabled = false;
  std::vector<Span> All;
  std::vector<int> Open;
  Clock::time_point Epoch = Clock::now();
};

// --- Phases ----------------------------------------------------------------
//
// Each phase is set up once, then takes steps for as long as main gives it
// turns, then reports. main interleaves the steps of the three phases over
// the whole run in the workload's proportions (main.cpp).

/// Rounds of cold then warm passes over planList(), each on fresh private
/// directories. Reports plan_cold_s and plan_warm_ms; the traced run adds
/// the planning layers.
class PlanBench {
public:
  /// Runs the first round; its warm plans serve the other phases.
  PlanBench(const Options &O, Report &R);
  ~PlanBench();
  const PlanSet &plans() const;
  /// One more round.
  void step();
  void finish();

  struct State;

private:
  std::unique_ptr<State> S;
};

/// execute/executeBatch throughput on warm plans; each step is one turn of
/// a few blocks per case.
class ExecBench {
public:
  ExecBench(const Options &O, const PlanSet &Plans, Report &R);
  ~ExecBench();
  void step();
  void finish();

  struct State;

private:
  std::unique_ptr<State> S;
};

/// spld: set-up (setup_s), then one closed-loop round per step.
class ServeBench {
public:
  ServeBench(const Options &O, const PlanSet &Plans, Report &R);
  ~ServeBench();
  void step();
  /// Reports, stops the daemon and returns its peak resident set in MB.
  double finish();

  struct State;

private:
  std::unique_ptr<State> S;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
