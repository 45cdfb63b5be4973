//===- tests/SupportTest.cpp - Support library tests -----------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Matrix.h"
#include "support/CircuitBreaker.h"
#include "support/Deadline.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/StrUtil.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <thread>
#include <unistd.h>

using namespace spl;

namespace {

TEST(StrUtil, FormatDoubleRoundTripsExactly) {
  std::mt19937_64 Gen(77);
  std::uniform_real_distribution<double> Uni(-1e3, 1e3);
  std::uniform_int_distribution<int> Exp(-300, 300);
  for (int I = 0; I < 2000; ++I) {
    double V = Uni(Gen) * std::pow(10.0, Exp(Gen) / 10);
    std::string S = formatDouble(V);
    double Back = std::strtod(S.c_str(), nullptr);
    EXPECT_EQ(Back, V) << S;
  }
}

TEST(StrUtil, FormatDoubleIsAFloatingToken) {
  // Every rendering must parse as a floating constant in C/Fortran (carry
  // '.', 'e' or 'E'), including integral values.
  for (double V : {1.0, -3.0, 0.0, 42.0, 1e20, 0.5, -0.25}) {
    std::string S = formatDouble(V);
    EXPECT_NE(S.find_first_of(".eE"), std::string::npos) << S;
  }
  EXPECT_EQ(formatDouble(0.0), "0.0");
  EXPECT_EQ(formatDouble(-0.0), "-0.0");
  EXPECT_EQ(formatDouble(1.0), "1.0");
}

TEST(StrUtil, FormatComplex) {
  EXPECT_EQ(formatComplex(Cplx(1.5, 0)), "1.5");
  EXPECT_EQ(formatComplex(Cplx(0, -1)), "(0.0,-1.0)");
  EXPECT_EQ(formatComplex(Cplx(-2, 3)), "(-2.0,3.0)");
}

TEST(StrUtil, JoinStartsWithToLower) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
  EXPECT_TRUE(startsWith("$in_size", "$in"));
  EXPECT_FALSE(startsWith("$i", "$in"));
  EXPECT_EQ(toLower("FoRtRan77"), "fortran77");
}

TEST(Diagnostics, CountsAndFormats) {
  Diagnostics D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLoc(1, 2), "something odd");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(3, 7), "bad thing");
  D.note(SourceLoc(), "context");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.all().size(), 3u);
  std::string Dump = D.dump();
  EXPECT_NE(Dump.find("warning: 1:2: something odd"), std::string::npos);
  EXPECT_NE(Dump.find("error: 3:7: bad thing"), std::string::npos);
  EXPECT_NE(Dump.find("note: context"), std::string::npos);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.all().empty());
}

TEST(SourceLoc, Validity) {
  EXPECT_FALSE(SourceLoc().isValid());
  EXPECT_TRUE(SourceLoc(1, 1).isValid());
  EXPECT_EQ(SourceLoc().str(), "<unknown>");
  EXPECT_EQ(SourceLoc(12, 5).str(), "12:5");
}

TEST(Deadline, UnboundedNeverExpires) {
  support::Deadline D;
  EXPECT_TRUE(D.unbounded());
  EXPECT_FALSE(D.expired());
  EXPECT_TRUE(std::isinf(D.remainingSeconds()));
  // afterMs(0) and negative budgets mean "no deadline", matching the wire
  // protocol's 0 = unbounded.
  EXPECT_TRUE(support::Deadline::afterMs(0).unbounded());
  EXPECT_TRUE(support::Deadline::afterMs(-5).unbounded());
  // Slicing an unbounded deadline stays unbounded.
  EXPECT_TRUE(D.slice(0.5).unbounded());
}

TEST(Deadline, BudgetExpires) {
  support::Deadline D = support::Deadline::afterMs(1);
  EXPECT_FALSE(D.unbounded());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(D.expired());
  EXPECT_LE(D.remainingSeconds(), 0.0); // Goes negative past the deadline.
  EXPECT_EQ(D.remainingMs(), 0);        // But the ms view clamps at zero.
}

TEST(Deadline, CancelPropagatesThroughSlices) {
  support::Deadline D = support::Deadline::afterMs(60000);
  support::Deadline Slice = D.slice(0.5);
  EXPECT_FALSE(Slice.expired());
  EXPECT_LE(Slice.remainingSeconds(), D.remainingSeconds());
  // The slice shares the parent's cancel token: cancelling either side
  // expires both immediately.
  D.cancel();
  EXPECT_TRUE(D.cancelled());
  EXPECT_TRUE(Slice.expired());
  EXPECT_EQ(Slice.remainingSeconds(), 0.0);
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresAndProbes) {
  if (fault::armed())
    GTEST_SKIP() << "external fault matrix armed (breaker-trip would fire)";
  support::CircuitBreaker B;
  // Disabled (the default): always allow, outcomes are ignored.
  EXPECT_FALSE(B.enabled());
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  B.recordFailure();
  EXPECT_TRUE(B.allow());

  B.configure(2, 50);
  EXPECT_TRUE(B.enabled());
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Closed);
  // A success between failures resets the consecutive count.
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  EXPECT_TRUE(B.allow());
  B.recordSuccess();
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  // Two consecutive failures: open, and every attempt fails fast.
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow());
  EXPECT_NE(B.describe().find("circuit breaker open"), std::string::npos);

  // After the cooldown exactly one half-open probe is admitted; its
  // failure reopens the breaker with a fresh cooldown.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(B.allow());
  EXPECT_FALSE(B.allow()); // The probe is in flight; nobody else enters.
  B.recordFailure();
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow());

  // A successful probe closes it again.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(B.allow());
  B.recordSuccess();
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.allow());
  B.recordSuccess();
}

TEST(CircuitBreaker, TripAndResetAreImmediate) {
  if (fault::armed())
    GTEST_SKIP() << "external fault matrix armed (breaker-trip would fire)";
  support::CircuitBreaker B;
  B.configure(5, 50000);
  B.trip(); // The breaker-trip fault site calls exactly this.
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow());
  B.reset();
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.allow());
  B.recordSuccess();
}

TEST(Subprocess, ReportsExitCode) {
  SubprocessResult R = runSubprocess({"sh", "-c", "exit 3"});
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_EQ(R.Signal, 0);
  EXPECT_FALSE(R.TimedOut);
  EXPECT_FALSE(R.SpawnFailed);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.transient()) << "a nonzero exit is a real diagnostic";
  EXPECT_EQ(R.describe(), "exit 3");
  EXPECT_TRUE(runSubprocess({"true"}).ok());
}

TEST(Subprocess, ReportsTerminatingSignal) {
  SubprocessResult R = runSubprocess({"sh", "-c", "kill -TERM $$"});
  EXPECT_EQ(R.Signal, SIGTERM);
  EXPECT_FALSE(R.TimedOut);
  EXPECT_TRUE(R.transient());
  EXPECT_EQ(R.describe(), "killed by signal " + std::to_string(SIGTERM));
}

TEST(Subprocess, MissingBinaryExits127) {
  SubprocessResult R = runSubprocess({"/nonexistent/spl-no-such-binary"});
  EXPECT_FALSE(R.SpawnFailed);
  EXPECT_EQ(R.ExitCode, 127);
  EXPECT_FALSE(R.transient());
  SubprocessResult Path = runSubprocess({"spl-no-such-binary-on-path"});
  EXPECT_EQ(Path.ExitCode, 127);
  EXPECT_TRUE(runSubprocess({}).SpawnFailed);
}

TEST(Subprocess, CapturesStdoutAndStderr) {
  SubprocessResult R =
      runSubprocess({"sh", "-c", "echo to-stdout; echo to-stderr >&2"});
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_NE(R.Output.find("to-stdout"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("to-stderr"), std::string::npos) << R.Output;
}

TEST(Subprocess, CapsOutputAtMaxOutputBytes) {
  // 200 KB is more than a pipe holds: the child only finishes if the
  // reader keeps draining past the cap.
  SubprocessOptions O;
  O.MaxOutputBytes = 1000;
  O.TimeoutSeconds = 10;
  SubprocessResult R = runSubprocess(
      {"sh", "-c", "head -c 200000 /dev/zero | tr '\\0' x"}, O);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(R.Output, std::string(1000, 'x'));
}

TEST(Subprocess, DeadlineKillsTheWholeProcessGroup) {
  // A grandchild would leave a marker after 0.6 s; the deadline at 0.2 s
  // must kill it along with the child.
  const std::string Marker = "/tmp/spl-subprocess-group-" +
                             std::to_string(::getpid());
  std::remove(Marker.c_str());
  SubprocessOptions O;
  O.TimeoutSeconds = 0.2;
  Timer T;
  SubprocessResult R = runSubprocess(
      {"sh", "-c", "(sleep 0.6; touch " + Marker + ") & sleep 30"}, O);
  const double Secs = T.seconds();
  EXPECT_TRUE(R.TimedOut);
  EXPECT_TRUE(R.transient());
  EXPECT_EQ(R.describe(), "timed out");
  EXPECT_LT(Secs, O.TimeoutSeconds + 1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  EXPECT_FALSE(std::ifstream(Marker).good())
      << "the grandchild outlived the deadline";
  std::remove(Marker.c_str());
}

TEST(Subprocess, WaitsForAChildThatClosedItsOutput) {
  SubprocessOptions O;
  O.TimeoutSeconds = 10;
  Timer T;
  SubprocessResult R = runSubprocess({"sh", "-c", "exec >&- 2>&-; sleep 0.3; exit 4"}, O);
  const double Secs = T.seconds();
  EXPECT_FALSE(R.TimedOut);
  EXPECT_EQ(R.ExitCode, 4);
  EXPECT_GE(Secs, 0.3);
  EXPECT_LT(Secs, O.TimeoutSeconds + 1.0);
}

TEST(Subprocess, GrandchildHoldingThePipeDoesNotHoldTheWait) {
  // The background sleep inherits the pipe and keeps it open for 3 s after
  // the child itself has exited.
  SubprocessOptions O;
  O.TimeoutSeconds = 10;
  Timer T;
  SubprocessResult R = runSubprocess({"sh", "-c", "sleep 3 & echo started"}, O);
  const double Secs = T.seconds();
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_NE(R.Output.find("started"), std::string::npos) << R.Output;
  EXPECT_LT(Secs, 1.0);
}

TEST(Guarded, ReportsOkExitCodeAndSignal) {
  EXPECT_TRUE(runGuarded([] { return 0; }, 5).ok());

  GuardedResult Exit = runGuarded([] { return 7; }, 5);
  EXPECT_EQ(Exit.ExitCode, 7);
  EXPECT_EQ(Exit.Signal, 0);
  EXPECT_FALSE(Exit.ok());

  GuardedResult Segv = runGuarded(
      [] {
        // Default disposition, so a sanitizer's handler cannot turn the
        // signal into an exit code.
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
        return 0;
      },
      5);
  EXPECT_EQ(Segv.Signal, SIGSEGV);
  EXPECT_FALSE(Segv.TimedOut);
  EXPECT_EQ(Segv.describe(), "died on signal " + std::to_string(SIGSEGV));
}

TEST(Guarded, HangIsStoppedAtTheDeadline) {
  const double Budget = 0.2;
  Timer T;
  GuardedResult R = runGuarded(
      [] {
        for (;;)
          ::pause();
        return 0;
      },
      Budget);
  const double Secs = T.seconds();
  EXPECT_TRUE(R.TimedOut);
  EXPECT_EQ(R.describe(), "timed out");
  EXPECT_GE(Secs, Budget);
  EXPECT_LT(Secs, Budget + 1.0);
}

TEST(Guarded, TrivialClosureReturnsPromptly) {
  // The wait wakes on child exit. A fixed polling interval would put a
  // floor under this (it was 20 ms).
  double Best = 1e9;
  for (int I = 0; I != 5; ++I) {
    Timer T;
    EXPECT_TRUE(runGuarded([] { return 0; }, 5).ok());
    Best = std::min(Best, T.seconds());
  }
  EXPECT_LT(Best, 0.010);
}

} // namespace
