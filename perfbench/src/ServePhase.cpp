//===- ServePhase.cpp - spld set-up and the closed client loop --*- C++ -*-===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Starts the shipped spld as its own process on a private socket, wisdom
/// and kernel cache, and drives it with a closed loop of two client
/// connections (half of a 4-core host, leaving cores for the daemon). Each
/// client round sends a seeded mix of single-vector executes of fft 64,
/// fft 256, rdft 1024 and dct2 64, then one bulk 256 x 4096 fft execute
/// (16 MB each way): one socket and protocol layer carrying per-request
/// overhead on one side and copy bandwidth on the other. Every response is
/// compared bit for bit with an in-process plan of the same spec.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/Client.h"
#include "service/Protocol.h"

#include <atomic>
#include <barrier>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace spl;
using runtime::Plan;

namespace {

/// Small requests per client round; the round ends with one bulk execute.
constexpr int kSmallPerRound = 1000;
constexpr std::int64_t kBulkCount = 256;
constexpr int kBulkThreads = 2;
const char *const kSmallLabels[] = {"fft64", "fft256", "rdft1024", "dct2_64"};
constexpr int kPoolVectors = 8;

/// An spld child process. The destructor always stops and reaps it.
class Daemon {
public:
  Daemon(const Options &O, const std::string &Dir, bool Metrics)
      : Socket(Dir + "/s"), Log(Dir + "/stdout.log") {
    std::vector<std::string> Args = {O.Spld,
                                     "--socket",
                                     Socket,
                                     "--wisdom",
                                     Dir + "/wisdom",
                                     "--kernel-cache",
                                     Dir + "/kernels"};
    std::vector<std::string> Env;
    for (char **E = environ; *E; ++E)
      if (std::strncmp(*E, "SPL_METRICS=", 12) != 0)
        Env.push_back(*E);
    if (Metrics)
      Env.push_back("SPL_METRICS=1");
    std::vector<char *> Argv, Envp;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    for (std::string &E : Env)
      Envp.push_back(E.data());
    Envp.push_back(nullptr);
    const std::string ErrLog = Dir + "/stderr.log";
    // A restart must not read the previous daemon's ready line.
    std::remove(Log.c_str());

    Pid = fork();
    if (Pid == 0) {
      int Out = open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      int Err = open(ErrLog.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      // The daemon must not outlive the benchmark, even one that crashes.
      if (Out < 0 || Err < 0 || prctl(PR_SET_PDEATHSIG, SIGKILL) != 0)
        _exit(127);
      dup2(Out, 1);
      dup2(Err, 2);
      execve(Argv[0], Argv.data(), Envp.data());
      _exit(127);
    }
    if (Pid < 0)
      return;
    // Ready once the flushed "spld: listening on" line is in the log.
    auto T0 = Clock::now();
    while (secondsSince(T0) < 30) {
      std::ifstream In(Log);
      std::stringstream SS;
      SS << In.rdbuf();
      if (SS.str().find("spld: listening on") != std::string::npos) {
        Ready = true;
        return;
      }
      int St = 0;
      if (waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      usleep(100);
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool ready() const { return Ready; }
  int pid() const { return Pid; }
  const std::string &socket() const { return Socket; }

  /// Asks the daemon to drain (it saves its wisdom), then reaps it; kills
  /// it when it does not exit within 10 s.
  void stop() {
    if (Pid <= 0)
      return;
    {
      service::Client C;
      if (Ready && C.connect(Socket))
        C.shutdownServer();
      else
        kill(Pid, SIGTERM);
    }
    auto T0 = Clock::now();
    int St = 0;
    while (waitpid(Pid, &St, WNOHANG) == 0) {
      if (secondsSince(T0) > 10) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &St, 0);
        break;
      }
      usleep(200);
    }
    Pid = -1;
  }

private:
  std::string Socket, Log;
  int Pid = -1;
  bool Ready = false;
};

/// The spec, in-process plan, seeded inputs and expected outputs of one
/// served transform.
struct Served {
  std::string Label;
  std::shared_ptr<Plan> P;
  std::int64_t Count = 1;
  std::vector<std::vector<double>> X, Expected;
};

/// Plans every served spec through \p C; the daemon must land each on the
/// native tier, like the in-process plan.
bool planAll(service::Client &C, const std::vector<Served> &All, Report &R) {
  bool Ok = true;
  for (const Served &S : All) {
    auto Resp = C.plan(S.P->spec());
    bool Native = Resp && Resp->Backend == "native" &&
                  Resp->FormulaText == S.P->formulaText();
    R.op(Native, "spld plan " + S.Label + ": " +
                     (Resp ? Resp->Backend + " " + Resp->FallbackReason
                           : C.lastError()));
    Ok &= Native;
  }
  return Ok;
}

/// Execute through the daemon, retrying typed BUSY rejections (counted).
bool serveExecute(service::Client &C, const Served &S, double *Y,
                  const double *X, int Threads, std::uint64_t &Busy) {
  for (int Try = 0; Try != 1000; ++Try) {
    if (C.execute(S.P->spec(), Y, X, S.Count, S.P->vectorLen(), Threads))
      return true;
    if (C.lastStatus() != service::Status::Busy)
      return false;
    ++Busy;
  }
  return false;
}

/// Count and nanosecond sum of the daemon's spld.execute_ns histogram.
std::pair<double, double> daemonExecute(service::Client &C) {
  auto J = C.stats();
  if (!J)
    return {0, 0};
  std::size_t At = J->find("\"spld.execute_ns\"");
  if (At == std::string::npos)
    return {0, 0};
  auto Field = [&](const char *Key) {
    std::size_t K = J->find(Key, At);
    return K == std::string::npos
               ? 0.0
               : std::strtod(J->c_str() + K + std::strlen(Key), nullptr);
  };
  return {Field("\"count\":"), Field("\"sum\":")};
}

template <typename F> double medianUs(int Reps, F &&Fn) {
  std::vector<double> Us;
  for (int I = 0; I != Reps; ++I) {
    auto T0 = Clock::now();
    Fn();
    Us.push_back(secondsSince(T0) * 1e6);
  }
  return median(Us);
}

/// The traced run's service layers: in-process time, protocol encode and
/// decode, and the daemon's own execute time against the round trip.
void serveLayers(const Daemon &D,
                 const std::vector<Served> &Small, const Served &Bulk,
                 std::uint64_t Busy, Report &R) {
  service::Client C;
  if (!C.connect(D.socket())) {
    R.op(false, "connect for service layers");
    return;
  }
  std::vector<double> Y(Bulk.X[0].size());
  std::uint64_t B = 0;
  constexpr int Reps = 2000;

  double InprocUs = medianUs(Reps / 4, [&, I = 0]() mutable {
    const Served &S = Small[I++ % Small.size()];
    S.P->execute(Y.data(), S.X[0].data());
  });
  auto [N0, Sum0] = daemonExecute(C);
  double RttUs = 0;
  {
    Spans::Scope Sp("service.Client::execute.small");
    RttUs = medianUs(Reps, [&, I = 0]() mutable {
      const Served &S = Small[I++ % Small.size()];
      R.op(serveExecute(C, S, Y.data(), S.X[0].data(), 1, B),
           "small request " + S.Label);
    });
  }
  auto [N1, Sum1] = daemonExecute(C);
  double BulkRttMs = 0;
  {
    Spans::Scope Sp("service.Client::execute.bulk");
    BulkRttMs = medianUs(5, [&] {
      R.op(serveExecute(C, Bulk, Y.data(), Bulk.X[0].data(), kBulkThreads, B),
           "bulk request");
    }) / 1e3;
  }
  auto [N2, Sum2] = daemonExecute(C);
  R.op(N1 - N0 >= Reps && N2 - N1 >= 5,
       "daemon execute histogram counted every request");

  R.metric("service.inproc_small_us", InprocUs, "us");
  R.metric("service.overhead_small_us", RttUs - InprocUs, "us");
  R.metric("service.daemon_execute_small_us",
           (Sum1 - Sum0) / std::max(1.0, N1 - N0) / 1e3, "us");
  const double DaemonBulkMs = (Sum2 - Sum1) / std::max(1.0, N2 - N1) / 1e6;
  R.metric("service.daemon_execute_ms", DaemonBulkMs, "ms");
  R.metric("service.bulk_transport_ms", BulkRttMs - DaemonBulkMs, "ms");

  auto Frames = [&](const Served &S, int Count, const char *Span,
                    const char *EncName, const char *DecName, double Scale,
                    const char *Unit) {
    service::ExecuteRequest Req;
    Req.Spec = service::WireSpec::fromSpec(S.P->spec());
    Req.Count = S.Count;
    Req.Data = S.X[0];
    service::ExecuteResponse Resp;
    Resp.Count = S.Count;
    Resp.VectorLen = S.P->vectorLen();
    Resp.Data = S.Expected[0];
    std::vector<std::uint8_t> ReqBytes, RespBytes;
    Spans::Scope Sp(Span);
    double Enc = medianUs(Count, [&] {
      ReqBytes = Req.encode();
      RespBytes = Resp.encode();
    });
    service::ExecuteRequest Req2;
    service::ExecuteResponse Resp2;
    double Dec = medianUs(Count, [&] {
      R.op(service::ExecuteRequest::decode(ReqBytes.data(), ReqBytes.size(),
                                           Req2) &&
               service::ExecuteResponse::decode(RespBytes.data(),
                                                RespBytes.size(), Resp2),
           "protocol decode");
    });
    R.metric(EncName, Enc * Scale, Unit);
    R.metric(DecName, Dec * Scale, Unit);
  };
  Frames(Small[0], Reps, "service.Protocol.small", "service.encode_us",
         "service.decode_us", 1, "us");
  Frames(Bulk, 5, "service.Protocol.bulk", "service.bulk_encode_ms",
         "service.bulk_decode_ms", 1e-3, "ms");
  R.metric("service.bulk_inproc_ms", medianUs(5, [&] {
             Bulk.P->executeBatch(Y.data(), Bulk.X[0].data(), Bulk.Count,
                                  kBulkThreads);
           }) / 1e3,
           "ms");
  R.metric("service.busy_retries", static_cast<double>(Busy + B), "count");
}

/// One closed-loop client: a connection of its own and a seeded stream.
struct LoopClient {
  service::Client C;
  bool Connected = false;
  std::mt19937_64 Gen;
  std::vector<double> Y, Ms;
  double BulkS = 0;
  std::uint64_t Busy = 0, Attempted = 0, Failed = 0;
};

} // namespace

struct ServeBench::State {
  const Options &O;
  Report &R;
  std::vector<Served> Small;
  Served Bulk;
  std::string Dir;
  std::unique_ptr<Daemon> Live;
  LoopClient Clients[2];
  std::vector<double> SmallMs;    ///< Every small request's latency.
  std::vector<double> RoundP99Ms; ///< p99 of each round's small requests.
  std::vector<double> RoundRps;   ///< Small requests per second, by round.
  std::vector<double> BulkMBps;   ///< Payload rate of every bulk request.
  bool Ok = true;

  State(const Options &O, Report &R) : O(O), R(R) {}
};

ServeBench::ServeBench(const Options &O, const PlanSet &Plans, Report &R)
    : S(std::make_unique<State>(O, R)) {
  // In-process plans of the served specs, with checked expected outputs.
  auto Prepare = [&](const std::string &Label, std::int64_t Count,
                     int Vectors) {
    Served Sv;
    Sv.Label = Label;
    Sv.P = findPlan(Plans, Label);
    Sv.Count = Count;
    if (!Sv.P) {
      S->Ok = false;
      R.op(false, "serve: no in-process plan " + Label);
      return Sv;
    }
    const std::int64_t Len = Sv.P->vectorLen();
    for (int V = 0; V != Vectors; ++V) {
      Sv.X.push_back(seededData(O.Seed, Label + "#serve" + std::to_string(V),
                                static_cast<std::size_t>(Len * Count)));
      Sv.Expected.emplace_back(Sv.X.back().size());
      Sv.P->executeBatch(Sv.Expected.back().data(), Sv.X.back().data(),
                         Count);
      for (std::int64_t I : {std::int64_t(0), Count - 1}) {
        RefResult RR = checkReference(
            Sv.P->spec(), Sv.X.back().data() + I * Len,
            Sv.Expected.back().data() + I * Len,
            O.Seed + static_cast<std::uint64_t>(V));
        R.op(RR.Ok, "serve expected output " + Label + ": " + RR.Why);
      }
    }
    return Sv;
  };
  for (const char *L : kSmallLabels)
    S->Small.push_back(Prepare(L, 1, kPoolVectors));
  S->Bulk = Prepare("fft4096", kBulkCount, 1);
  if (!S->Ok)
    return;
  std::vector<Served> All = S->Small;
  All.push_back(S->Bulk);

  // Set-up: one cold start fills the daemon's private wisdom and kernel
  // cache; then three restarts over them, each timed from spawn until
  // every served spec is planned. setup_s is their median.
  S->Dir = freshDir(O, "serve");
  {
    Daemon D(O, S->Dir, O.Trace);
    service::Client C;
    S->Ok = D.ready() && C.connect(D.socket()) && planAll(C, All, R);
    R.op(S->Ok, "spld cold start at " + D.socket());
  }
  std::vector<double> SetupS;
  for (int I = 0; I != 3 && S->Ok; ++I) {
    S->Live.reset();
    Spans::Scope Sp("service.daemon_restart");
    auto T0 = Clock::now();
    S->Live = std::make_unique<Daemon>(O, S->Dir, O.Trace);
    service::Client C;
    S->Ok = S->Live->ready() && C.connect(S->Live->socket()) &&
            planAll(C, All, R);
    SetupS.push_back(secondsSince(T0));
    R.op(S->Ok, "spld warm restart");
  }
  if (!S->Ok)
    return;
  R.metric("setup_s", median(SetupS), "s");

  // The loop's clients, warmed with one round trip per served spec.
  for (int Id = 0; Id != 2; ++Id) {
    LoopClient &LC = S->Clients[Id];
    LC.Connected = LC.C.connect(S->Live->socket());
    LC.Gen.seed(O.Seed * 7919 + static_cast<std::uint64_t>(Id));
    LC.Y.resize(S->Bulk.X[0].size());
    R.op(LC.Connected, "loop client connect");
    for (const Served &Sv : All)
      R.op(LC.Connected &&
               serveExecute(LC.C, Sv, LC.Y.data(), Sv.X[0].data(), 1,
                            LC.Busy) &&
               std::memcmp(LC.Y.data(), Sv.Expected[0].data(),
                           Sv.Expected[0].size() * sizeof(double)) == 0,
           "warm-up " + Sv.Label + " bit-identical");
  }
}

ServeBench::~ServeBench() = default;

void ServeBench::step() {
  if (!S->Ok)
    return;
  // One round of the closed loop: each client sends a burst of
  // kSmallPerRound small requests, then, after both bursts, one bulk
  // request. The clients meet between the two so small-request latency is
  // measured under small-request load and each kind of traffic reports on
  // its own.
  State &St = *S;
  auto T0 = Clock::now(), BurstEnd = T0;
  std::barrier Sync(2, [&]() noexcept { BurstEnd = Clock::now(); });
  auto Check = [](LoopClient &LC, bool Ok, const std::vector<double> &Want) {
    ++LC.Attempted;
    if (!Ok || std::memcmp(LC.Y.data(), Want.data(),
                           Want.size() * sizeof(double)) != 0)
      ++LC.Failed;
  };
  auto Run = [&](LoopClient &LC) {
    for (int I = 0; I != kSmallPerRound; ++I) {
      const Served &Sv = St.Small[LC.Gen() % St.Small.size()];
      const std::size_t V = LC.Gen() % Sv.X.size();
      auto Q0 = Clock::now();
      bool Ok = LC.Connected && serveExecute(LC.C, Sv, LC.Y.data(),
                                             Sv.X[V].data(), 1, LC.Busy);
      LC.Ms.push_back(secondsSince(Q0) * 1e3);
      Check(LC, Ok, Sv.Expected[V]);
    }
    Sync.arrive_and_wait();
    auto Q0 = Clock::now();
    bool Ok = LC.Connected &&
              serveExecute(LC.C, St.Bulk, LC.Y.data(), St.Bulk.X[0].data(),
                           kBulkThreads, LC.Busy);
    LC.BulkS = secondsSince(Q0);
    Check(LC, Ok, St.Bulk.Expected[0]);
  };
  {
    std::thread A([&] { Run(St.Clients[0]); }), B([&] { Run(St.Clients[1]); });
    A.join();
    B.join();
  }
  const double BurstS = std::chrono::duration<double>(BurstEnd - T0).count();
  std::vector<double> Round;
  for (LoopClient &LC : St.Clients) {
    Round.insert(Round.end(), LC.Ms.begin(), LC.Ms.end());
    LC.Ms.clear();
    St.BulkMBps.push_back(2.0 * static_cast<double>(St.Bulk.X[0].size() *
                                                    sizeof(double)) /
                          LC.BulkS / 1e6);
  }
  St.RoundRps.push_back(static_cast<double>(Round.size()) / BurstS);
  St.RoundP99Ms.push_back(quantile(Round, 0.99));
  St.SmallMs.insert(St.SmallMs.end(), Round.begin(), Round.end());
}

double ServeBench::finish() {
  State &St = *S;
  if (!St.Ok || !St.Live)
    return 0;
  std::uint64_t Busy = 0;
  for (LoopClient &LC : St.Clients) {
    // One operation per request of the loop.
    for (std::uint64_t I = 0; I != LC.Attempted; ++I)
      St.R.op(I >= LC.Failed,
              "spld response bit-identical to the in-process plan");
    Busy += LC.Busy;
  }
  St.R.metric("serve_ms_p50", quantile(St.SmallMs, 0.50), "ms");
  St.R.metric("serve_bulk_mbps", median(St.BulkMBps), "MB/s");
  if (St.O.Trace) {
    // Rate and tail by round, then the median over rounds: one stalled
    // round moves one sample. Layer figures, not end-to-end ones: over ten
    // seeds they spread up to 0.35 and 0.57 of their medians (README.md).
    St.R.metric("service.loop_p99_ms", median(St.RoundP99Ms), "ms");
    St.R.metric("service.loop_rps", median(St.RoundRps), "1/s");
    serveLayers(*St.Live, St.Small, St.Bulk, Busy, St.R);
  }
  for (LoopClient &LC : St.Clients)
    LC.C.disconnect();
  double Rss = peakRssMb(St.Live->pid());
  St.Live->stop();
  removeDir(St.Dir);
  return Rss;
}
