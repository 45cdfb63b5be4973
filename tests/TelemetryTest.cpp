//===- tests/TelemetryTest.cpp - Metrics and tracer tests ---------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the telemetry subsystem: the armed mask, counter/gauge
/// disarmed no-ops, histogram edge cases (empty, single sample, saturating
/// overflow bucket, 8-thread concurrent recording), registry JSON shape,
/// the span tracer ring, the StageTimer stage instrument, the Planner's
/// own spans, and spld's execute-stage spans.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "perf/NativeCompile.h"
#include "runtime/Planner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <thread>

#include <unistd.h>
#include <vector>

using namespace spl;

namespace {

/// Arms metrics (and optionally tracing) for one test, restoring the fully
/// disarmed state afterwards so tests compose in any order.
struct ArmedScope {
  explicit ArmedScope(bool Metrics = true, bool Trace = false) {
    telemetry::setMetricsEnabled(Metrics);
    telemetry::setTracingEnabled(Trace);
  }
  ~ArmedScope() {
    telemetry::setMetricsEnabled(false);
    telemetry::setTracingEnabled(false);
    telemetry::resetAllMetrics();
    telemetry::resetTrace();
  }
};

TEST(Telemetry, DisarmedCounterIsANoOp) {
  telemetry::setMetricsEnabled(false);
  telemetry::Counter C;
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 0u);

  telemetry::Gauge G;
  G.set(7);
  G.add(3);
  EXPECT_EQ(G.value(), 0);

  telemetry::Histogram H;
  H.record(123);
  EXPECT_EQ(H.snapshot().Count, 0u);
}

TEST(Telemetry, ArmedCounterAccumulates) {
  ArmedScope Armed;
  telemetry::Counter C;
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);

  telemetry::Gauge G;
  G.set(7);
  G.add(-3);
  EXPECT_EQ(G.value(), 4);
}

TEST(Telemetry, SetterFlagsComposeIndependently) {
  telemetry::setMetricsEnabled(true);
  telemetry::setTracingEnabled(false);
  EXPECT_TRUE(telemetry::metricsEnabled());
  EXPECT_FALSE(telemetry::tracingEnabled());
  EXPECT_TRUE(telemetry::active());

  telemetry::setMetricsEnabled(false);
  telemetry::setTracingEnabled(true);
  EXPECT_FALSE(telemetry::metricsEnabled());
  EXPECT_TRUE(telemetry::tracingEnabled());
  EXPECT_TRUE(telemetry::active());

  telemetry::setTracingEnabled(false);
  EXPECT_FALSE(telemetry::active());
  telemetry::resetTrace();
}

TEST(Histogram, EmptySnapshot) {
  telemetry::Histogram H;
  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.Sum, 0u);
  EXPECT_EQ(S.Min, 0u); // Not the internal UINT64_MAX sentinel.
  EXPECT_EQ(S.Max, 0u);
  EXPECT_EQ(S.p50(), 0u);
  EXPECT_EQ(S.p95(), 0u);
  EXPECT_EQ(S.p99(), 0u);
}

TEST(Histogram, SingleSample) {
  ArmedScope Armed;
  telemetry::Histogram H;
  H.record(1500);
  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(S.Sum, 1500u);
  EXPECT_EQ(S.Min, 1500u);
  EXPECT_EQ(S.Max, 1500u);
  // Every quantile of a one-sample distribution is that sample (the bucket
  // upper bound is clamped to the observed Max).
  EXPECT_EQ(S.p50(), 1500u);
  EXPECT_EQ(S.p95(), 1500u);
  EXPECT_EQ(S.p99(), 1500u);
}

TEST(Histogram, ZeroSampleLandsInBucketZero) {
  ArmedScope Armed;
  telemetry::Histogram H;
  H.record(0);
  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(S.Buckets[0], 1u);
  EXPECT_EQ(S.p50(), 0u);
}

TEST(Histogram, BucketIndexing) {
  using H = telemetry::Histogram;
  EXPECT_EQ(H::bucketIndex(0), 0);
  EXPECT_EQ(H::bucketIndex(1), 1);
  EXPECT_EQ(H::bucketIndex(2), 2);
  EXPECT_EQ(H::bucketIndex(3), 2);
  EXPECT_EQ(H::bucketIndex(4), 3);
  EXPECT_EQ(H::bucketIndex(1023), 10);
  EXPECT_EQ(H::bucketIndex(1024), 11);
  // The top of the range saturates into the last bucket.
  EXPECT_EQ(H::bucketIndex(UINT64_MAX), H::NumBuckets - 1);
  EXPECT_EQ(H::bucketIndex(std::uint64_t(1) << 63), H::NumBuckets - 1);
}

TEST(Histogram, SaturatingOverflowBucket) {
  ArmedScope Armed;
  telemetry::Histogram H;
  // All three are wider than the second-to-last bucket; they must pile into
  // the final (saturating) bucket rather than be dropped.
  H.record(UINT64_MAX);
  H.record(std::uint64_t(1) << 63);
  H.record((std::uint64_t(1) << 63) + 12345);
  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_EQ(S.Buckets[telemetry::Histogram::NumBuckets - 1], 3u);
  EXPECT_EQ(S.Max, UINT64_MAX);
  EXPECT_EQ(S.Min, std::uint64_t(1) << 63);
  // Quantiles resolve to the saturating bucket, clamped to the real max.
  EXPECT_EQ(S.p99(), UINT64_MAX);
  EXPECT_EQ(
      telemetry::HistogramSnapshot::bucketUpperBound(
          telemetry::Histogram::NumBuckets - 1),
      UINT64_MAX);
}

TEST(Histogram, ConcurrentRecordingFromEightThreads) {
  ArmedScope Armed;
  telemetry::Histogram H;
  constexpr int NumThreads = 8;
  constexpr std::uint64_t PerThread = 1000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&H] {
      for (std::uint64_t V = 1; V <= PerThread; ++V)
        H.record(V);
    });
  for (auto &T : Threads)
    T.join();

  telemetry::HistogramSnapshot S = H.snapshot();
  // Deterministic totals: every sample lands exactly once whatever the
  // interleaving.
  EXPECT_EQ(S.Count, NumThreads * PerThread);
  EXPECT_EQ(S.Sum, NumThreads * (PerThread * (PerThread + 1) / 2));
  EXPECT_EQ(S.Min, 1u);
  EXPECT_EQ(S.Max, PerThread);
  std::uint64_t BucketTotal = 0;
  for (std::uint64_t B : S.Buckets)
    BucketTotal += B;
  EXPECT_EQ(BucketTotal, S.Count);
}

TEST(Registry, InstrumentsHaveStableIdentity) {
  telemetry::Counter &A = telemetry::counter("test.registry.stable");
  telemetry::Counter &B = telemetry::counter("test.registry.stable");
  EXPECT_EQ(&A, &B);
  EXPECT_NE(&A, &telemetry::counter("test.registry.other"));
}

TEST(Registry, JsonShape) {
  ArmedScope Armed;
  telemetry::counter("test.json.counter").add(3);
  telemetry::gauge("test.json.gauge").set(-5);
  telemetry::histogram("test.json.hist").record(100);

  std::string J = telemetry::metricsJson();
  EXPECT_NE(J.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(J.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(J.find("\"test.json.gauge\":-5"), std::string::npos);
  EXPECT_NE(J.find("\"test.json.hist\":{\"count\":1"), std::string::npos);
  // Histogram buckets serialize as [lower_bound, count] pairs.
  EXPECT_NE(J.find("\"buckets\":[[64,1]]"), std::string::npos);
}

TEST(Registry, ResetAllZeroesEverything) {
  ArmedScope Armed;
  telemetry::Counter &C = telemetry::counter("test.reset.counter");
  telemetry::Histogram &H = telemetry::histogram("test.reset.hist");
  C.add(9);
  H.record(9);
  telemetry::resetAllMetrics();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(H.snapshot().Count, 0u);
}

TEST(Registry, ProfileTableListsActiveHistograms) {
  ArmedScope Armed;
  telemetry::histogram("test.profile.stage_ns").record(2048);
  telemetry::counter("test.profile.events").add(4);
  std::string Table = telemetry::profileTable();
  EXPECT_NE(Table.find("test.profile.stage_ns"), std::string::npos);
  EXPECT_NE(Table.find("test.profile.events"), std::string::npos);
  // Zero-count histograms stay out of the table.
  telemetry::histogram("test.profile.silent_ns");
  EXPECT_EQ(telemetry::profileTable().find("test.profile.silent_ns"),
            std::string::npos);
}

TEST(Tracer, DisarmedSpanRecordsNothing) {
  telemetry::setTracingEnabled(false);
  telemetry::resetTrace();
  { telemetry::Span S("should-not-appear"); }
  EXPECT_EQ(telemetry::Tracer::instance().recorded(), 0u);
}

TEST(Tracer, SpansExportAsChromeTracingJson) {
  ArmedScope Armed(/*Metrics=*/false, /*Trace=*/true);
  { telemetry::Span S("outer"); }
  { telemetry::Span S("inner"); }
  EXPECT_EQ(telemetry::Tracer::instance().recorded(), 2u);

  std::string J = telemetry::traceJson();
  ASSERT_FALSE(J.empty());
  EXPECT_EQ(J.front(), '[');
  EXPECT_NE(J.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(J.find("\"ts\":"), std::string::npos);
  EXPECT_NE(J.find("\"dur\":"), std::string::npos);
}

TEST(Tracer, RingKeepsOnlyTheNewestCapacityEvents) {
  ArmedScope Armed(/*Metrics=*/false, /*Trace=*/true);
  telemetry::Tracer &T = telemetry::Tracer::instance();
  const std::uint64_t Extra = 10;
  for (std::uint64_t I = 0; I != telemetry::Tracer::Capacity + Extra; ++I)
    T.record("spin", 0, 1);
  EXPECT_EQ(T.recorded(), telemetry::Tracer::Capacity + Extra);

  // The export holds exactly one ring's worth — the oldest Extra are gone.
  std::string J = T.toJson();
  size_t Events = 0;
  for (size_t Pos = J.find("\"name\""); Pos != std::string::npos;
       Pos = J.find("\"name\"", Pos + 1))
    ++Events;
  EXPECT_EQ(Events, telemetry::Tracer::Capacity);
}

TEST(StageTimer, RecordsBothHistogramAndSpan) {
  ArmedScope Armed(/*Metrics=*/true, /*Trace=*/true);
  telemetry::Histogram H;
  { telemetry::StageTimer T("stage-under-test", &H); }
  EXPECT_EQ(H.snapshot().Count, 1u);
  EXPECT_NE(telemetry::traceJson().find("stage-under-test"),
            std::string::npos);
}

TEST(StageTimer, FullyDisarmedIsSilent) {
  telemetry::setMetricsEnabled(false);
  telemetry::setTracingEnabled(false);
  telemetry::resetTrace();
  telemetry::Histogram H;
  { telemetry::StageTimer T("silent-stage", &H); }
  EXPECT_EQ(H.snapshot().Count, 0u);
  EXPECT_EQ(telemetry::Tracer::instance().recorded(), 0u);
}

/// One span read back from traceJson(): start and duration in us.
struct SpanRecord {
  std::string Name;
  double Ts = 0, Dur = 0;
};

std::vector<SpanRecord> tracedSpans() {
  std::vector<SpanRecord> Out;
  const std::string J = telemetry::traceJson();
  for (size_t Pos = J.find("{\"name\":\""); Pos != std::string::npos;
       Pos = J.find("{\"name\":\"", Pos + 1)) {
    SpanRecord R;
    const size_t NameAt = Pos + 9;
    R.Name = J.substr(NameAt, J.find('"', NameAt) - NameAt);
    R.Ts = std::strtod(J.c_str() + J.find("\"ts\":", Pos) + 5, nullptr);
    R.Dur = std::strtod(J.c_str() + J.find("\"dur\":", Pos) + 6, nullptr);
    Out.push_back(R);
  }
  return Out;
}

TEST(PlannerSpans, CompileAndTrialNestInsidePlan) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  ArmedScope Armed(/*Metrics=*/false, /*Trace=*/true);
  Diagnostics Diags;
  runtime::PlannerOptions O;
  O.UseWisdom = false;
  runtime::Planner P(Diags, O);
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::Native;
  auto Plan = P.plan(Spec);
  ASSERT_TRUE(Plan) << Diags.dump();
  ASSERT_EQ(Plan->backend(), runtime::Backend::Native)
      << Plan->fallbackReason();

  const std::vector<SpanRecord> Spans = tracedSpans();
  const SpanRecord *Parent = nullptr;
  std::map<std::string, double> Sum;
  for (const SpanRecord &S : Spans) {
    Sum[S.Name] += S.Dur;
    if (S.Name == "plan")
      Parent = &S;
  }
  ASSERT_NE(Parent, nullptr);
  EXPECT_GT(Sum["plan.compile"], 0.0);
  EXPECT_GT(Sum["plan.trial"], 0.0);
  EXPECT_LE(Sum["plan.compile"] + Sum["plan.trial"], Parent->Dur);
  // Timestamps print with ns precision in us, so allow 1 ns of rounding.
  for (const SpanRecord &S : Spans)
    if (S.Name == "plan.compile" || S.Name == "plan.trial") {
      EXPECT_GE(S.Ts + 1e-3, Parent->Ts) << S.Name;
      EXPECT_LE(S.Ts + S.Dur, Parent->Ts + Parent->Dur + 1e-3) << S.Name;
    }
}

TEST(SpldSpans, ExecuteChildrenCoverTheStage) {
  // A bulk execute's spld.execute stage splits into decode, plan acquire,
  // the in-place run and the send; together they must account for at
  // least 95% of it, so a slow request says where its time went.
  ArmedScope Armed(/*Metrics=*/true, /*Trace=*/true);
  service::ServerOptions Opts;
  Opts.SocketPath = "/tmp/spl-telemetry-test-" + std::to_string(getpid()) +
                    ".sock";
  Opts.Workers = 1; // Requests run one after another, spans in order.
  Opts.Planner.UseWisdom = false;
  Opts.Planner.Evaluator = "opcount";
  service::Server Srv(Opts);
  ASSERT_TRUE(Srv.start()) << Srv.diagnostics().dump();
  service::Client C;
  ASSERT_TRUE(C.connect(Opts.SocketPath)) << C.lastError();
  runtime::PlanSpec Spec;
  Spec.Size = 1024;
  Spec.Want = runtime::Backend::VM;
  const std::int64_t Count = 256, Len = 2048; // 4 MB each way.
  std::vector<double> X(Count * Len, 0.5), Y(X.size());
  // A one-vector request first, so the bulk one finds its plan ready. The
  // trace is read only after stop() has joined the workers: the ring must
  // not be reset or read while a worker may still be recording.
  ASSERT_TRUE(C.execute(Spec, Y.data(), X.data(), 1, Len)) << C.lastError();
  ASSERT_TRUE(C.execute(Spec, Y.data(), X.data(), Count, Len, 2))
      << C.lastError();
  C.disconnect();
  Srv.stop();

  // The bulk request's stage is the longest; its children are the spans of
  // those names recorded since the previous stage (the ring keeps record
  // order). Timestamps print with six significant digits, too coarse to
  // test nesting by time in a long-running test binary.
  const std::vector<SpanRecord> Spans = tracedSpans();
  std::size_t Stage = Spans.size();
  for (std::size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Name == "spld.execute" &&
        (Stage == Spans.size() || Spans[I].Dur > Spans[Stage].Dur))
      Stage = I;
  ASSERT_LT(Stage, Spans.size());
  std::map<std::string, double> Child;
  for (std::size_t I = Stage; I-- != 0 && Spans[I].Name != "spld.execute";)
    if (Spans[I].Name.rfind("spld.", 0) == 0)
      Child[Spans[I].Name] += Spans[I].Dur;
  double Covered = 0;
  for (const char *Name : {"spld.decode", "spld.acquire", "spld.run",
                           "spld.send"}) {
    EXPECT_EQ(Child.count(Name), 1u) << Name;
    Covered += Child[Name];
  }
  const double Dur = Spans[Stage].Dur;
  EXPECT_GE(Covered, 0.95 * Dur)
      << "children cover " << Covered << " of " << Dur << " us";
  EXPECT_LE(Covered, Dur * 1.001);
  EXPECT_EQ(telemetry::histogram("spld.queue_ns").snapshot().Count, 2u);
}

} // namespace
