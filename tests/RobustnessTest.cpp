//===- tests/RobustnessTest.cpp - Parser robustness tests --------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frontend must never crash: malformed, truncated, and adversarial
/// inputs produce diagnostics (or parse cleanly), not undefined behaviour.
/// Includes a deterministic mutation fuzzer over valid programs, and the
/// same fixed-seed fuzzing over spld's execute path: the execute codecs,
/// mutated execute frames sent to a live Server, and mutated execute
/// responses fed to Client::execute.
///
//===----------------------------------------------------------------------===//

#include "ServiceTestUtil.h"

#include "frontend/Parser.h"
#include "service/Client.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace spl;
using namespace spl::service;

namespace {

/// Parses and, on success, expands nothing — we only care that the frontend
/// terminates and reports through diagnostics.
void mustNotCrash(const std::string &Source) {
  Diagnostics Diags;
  Parser P(Source, Diags);
  auto Prog = P.parseProgram();
  if (!Prog) {
    EXPECT_TRUE(Diags.hasErrors()) << Source;
  }
}

TEST(Robustness, EmptyAndWhitespaceOnly) {
  mustNotCrash("");
  mustNotCrash("   \n\t  ");
  mustNotCrash("; just a comment\n");
  mustNotCrash("#subname alone\n");
}

TEST(Robustness, TruncatedForms) {
  mustNotCrash("(");
  mustNotCrash("(compose");
  mustNotCrash("(compose (F 2)");
  mustNotCrash("(matrix ((1 2)");
  mustNotCrash("(template (F n_)");
  mustNotCrash("(template (F n_) [n_ > ");
  mustNotCrash("(define");
  mustNotCrash("(define X");
  mustNotCrash("(diagonal (");
}

TEST(Robustness, UnbalancedAndStray) {
  mustNotCrash(")");
  mustNotCrash("))) (((");
  mustNotCrash("(F 2))");
  mustNotCrash("]");
  mustNotCrash("(F 2) ] [");
  mustNotCrash("& | ! =");
}

TEST(Robustness, BadNumbersAndSymbols) {
  mustNotCrash("(F 999999999999999999999999)");
  mustNotCrash("(F -2)");
  mustNotCrash("(F 2.5)");
  mustNotCrash("(I 0)");
  mustNotCrash("(L 0 0)");
  mustNotCrash("(T 4 0)");
  mustNotCrash("(diagonal (nonsense))");
  mustNotCrash("(diagonal (sqrt(-1 unclosed))");
  mustNotCrash("(permutation (1 2 9))");
}

TEST(Robustness, BadTemplates) {
  mustNotCrash("(template 42 (x))");
  mustNotCrash("(template (F n_) (garbage here = =))");
  mustNotCrash("(template (F n_) (do $i0 = 0))");
  mustNotCrash("(template (F n_) (do $i0 = 0, n_-1 end end))");
  mustNotCrash("(template (F n_) ($out(0) = A_($in)))");
  mustNotCrash("(template (compose A_ B_) (A_($in, $out, 0, 0, 1)))");
}

TEST(Robustness, BadDirectives) {
  mustNotCrash("#datatype purple\n(F 2)");
  mustNotCrash("#language cobol\n(F 2)");
  mustNotCrash("#unroll sideways\n(F 2)");
  mustNotCrash("#subname\n(F 2)");
  mustNotCrash("#\n(F 2)");
}

TEST(Robustness, DeepNestingTerminates) {
  std::string Deep;
  for (int I = 0; I < 200; ++I)
    Deep += "(tensor (I 1) ";
  Deep += "(F 2)";
  for (int I = 0; I < 200; ++I)
    Deep += ")";
  mustNotCrash(Deep);
}

class MutationFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MutationFuzzTest, MutatedProgramsNeverCrashTheFrontend) {
  const std::string Base = R"(
(define F4 (compose (tensor (F 2) (I 2)) (T 4 2)
                    (tensor (I 2) (F 2)) (L 4 2)))
(template (J n_) [n_ >= 1]
  (do $i0 = 0, n_-1
     $out($i0) = $in(n_-1-$i0)
   end))
#subname prog
(compose (tensor F4 (I 4)) (T 16 4) (tensor (I 4) F4) (L 16 4))
)";
  std::mt19937 Gen(GetParam());
  std::string S = Base;
  int Mutations = 1 + Gen() % 8;
  for (int M = 0; M != Mutations; ++M) {
    size_t Pos = Gen() % S.size();
    switch (Gen() % 4) {
    case 0:
      S.erase(Pos, 1 + Gen() % 5);
      break;
    case 1:
      S.insert(Pos, 1, static_cast<char>("()[]#;$_0a"[Gen() % 10]));
      break;
    case 2:
      S[Pos] = static_cast<char>(32 + Gen() % 95);
      break;
    default:
      std::swap(S[Pos], S[Gen() % S.size()]);
      break;
    }
  }
  mustNotCrash(S);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MutationFuzzTest,
                         ::testing::Range(1000u, 1080u));

//===----------------------------------------------------------------------===//
// The execute path
//===----------------------------------------------------------------------===//

/// Applies 1..8 byte mutations inside [Lo, Hi) of \p B (clamped to its
/// size): erase a short run, insert, overwrite with a random or boundary
/// byte, or swap two bytes.
void mutateBytes(std::vector<std::uint8_t> &B, std::mt19937 &Gen,
                 std::size_t Lo = 0, std::size_t Hi = SIZE_MAX) {
  int Mutations = 1 + Gen() % 8;
  for (int M = 0; M != Mutations; ++M) {
    const std::size_t End = std::min(Hi, B.size());
    if (End <= Lo)
      return;
    std::size_t Pos = Lo + Gen() % (End - Lo);
    switch (Gen() % 5) {
    case 0:
      B.erase(B.begin() + Pos,
              B.begin() + std::min(B.size(), Pos + 1 + Gen() % 5));
      break;
    case 1:
      B.insert(B.begin() + Pos, static_cast<std::uint8_t>(Gen()));
      break;
    case 2:
      B[Pos] = static_cast<std::uint8_t>(Gen());
      break;
    case 3:
      B[Pos] = Gen() % 2 ? 0x00 : 0xFF;
      break;
    default:
      std::swap(B[Pos], B[Lo + Gen() % (End - Lo)]);
      break;
    }
  }
}

/// A small valid execute request: a VM fft 16 batch of two vectors.
ExecuteRequest validRequest() {
  ExecuteRequest Req;
  Req.Spec.Transform = "fft";
  Req.Spec.Size = 16;
  Req.Spec.Backend = "vm";
  Req.Count = 2;
  Req.Threads = 2;
  for (int I = 0; I != 64; ++I)
    Req.Data.push_back(0.125 * (I % 7) - 0.25);
  return Req;
}

std::string fuzzSocketPath(const char *Tag, unsigned Seed) {
  return "/tmp/spl-robust-" + std::string(Tag) + "-" +
         std::to_string(getpid()) + "-" + std::to_string(Seed) + ".sock";
}

class ExecuteCodecFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExecuteCodecFuzzTest, MutatedBodiesDecodeOrFailCleanly) {
  std::mt19937 Gen(GetParam());
  const std::uint16_t Version =
      static_cast<std::uint16_t>(kMinProtocolVersion +
                                 GetParam() % (kProtocolVersion -
                                               kMinProtocolVersion + 1));
  std::vector<std::uint8_t> B = validRequest().encode(Version);
  mutateBytes(B, Gen);
  ExecuteRequest Req;
  if (ExecuteRequest::decode(B.data(), B.size(), Req, Version)) {
    EXPECT_LE(Req.Data.size() * 8, B.size());
  }
  std::uint64_t N = 0;
  if (ExecuteRequest::decodePrefix(B.data(), B.size(), Req, N, Version)) {
    EXPECT_LE(N * 8, B.size()); // The payload is the body's tail.
    EXPECT_TRUE(Req.Data.empty());
  }

  ExecuteResponse Resp;
  Resp.Count = 2;
  Resp.VectorLen = 32;
  Resp.Data = validRequest().Data;
  std::vector<std::uint8_t> R = Resp.encode();
  mutateBytes(R, Gen);
  ExecuteResponse Out;
  if (ExecuteResponse::decode(R.data(), R.size(), Out)) {
    EXPECT_EQ(Out.Data.size() * 8 + ExecuteResponse::kPrefixBytes, R.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecuteCodecFuzzTest,
                         ::testing::Range(2000u, 2200u));

class ExecuteFrameFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExecuteFrameFuzzTest, LiveServerAnswersTypedOrDrops) {
  ServerOptions Opts;
  Opts.SocketPath = fuzzSocketPath("server", GetParam());
  Opts.Workers = 2;
  Opts.MaxTransformSize = 64; // Mutated sizes stay cheap to plan.
  Opts.MaxFrameBytes = 1 << 20;
  Opts.Planner.UseWisdom = false;
  Opts.Planner.Evaluator = "opcount";
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start()) << Srv.diagnostics().dump();

  std::mt19937 Gen(GetParam());
  const std::vector<std::uint8_t> Valid = validRequest().encode();
  for (int Round = 0; Round != 25; ++Round) {
    std::vector<std::uint8_t> Body = Valid;
    mutateBytes(Body, Gen);
    std::vector<std::uint8_t> Bytes =
        test::frameBytes(MsgType::ExecuteReq, 1, Body);
    if (Gen() % 4 == 0) {
      // The header's length disagrees with what follows: the server must
      // drain, reject, or drop, never read past what it was sent.
      std::uint32_t Lie = static_cast<std::uint32_t>(Gen()) %
                          (2 * static_cast<std::uint32_t>(Body.size()) + 64);
      std::memcpy(Bytes.data() + 12, &Lie, 4);
    }
    std::string Err;
    int Fd = connectUnix(Opts.SocketPath, Err);
    ASSERT_GE(Fd, 0) << Err;
    ASSERT_TRUE(sendAll(Fd, Bytes.data(), Bytes.size()));
    ::shutdown(Fd, SHUT_WR);
    Frame F;
    IoStatus St;
    while ((St = readFrame(Fd, kDefaultMaxFrameBytes, F)) == IoStatus::Ok) {
      if (F.Type == MsgType::ErrorResp) {
        ErrorBody E;
        ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
        EXPECT_NE(E.Code, Status::Ok);
        continue;
      }
      ASSERT_EQ(F.Type, MsgType::ExecuteResp) << "round " << Round;
      ExecuteResponse R;
      ASSERT_TRUE(ExecuteResponse::decode(F.Body.data(), F.Body.size(), R));
      EXPECT_EQ(static_cast<std::int64_t>(R.Data.size()),
                R.Count * R.VectorLen);
    }
    EXPECT_EQ(St, IoStatus::Closed) << "round " << Round;
    ::close(Fd);
  }

  // The daemon survived every round and still computes.
  Client C;
  ASSERT_TRUE(C.connect(Opts.SocketPath)) << C.lastError();
  ExecuteRequest Req = validRequest();
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::VM;
  std::vector<double> Y(Req.Data.size());
  EXPECT_TRUE(C.execute(Spec, Y.data(), Req.Data.data(), 2, 32))
      << C.lastError();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecuteFrameFuzzTest,
                         ::testing::Range(2400u, 2408u));

class ExecuteResponseFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExecuteResponseFuzzTest, ClientNeverWritesPastY) {
  constexpr std::int64_t Count = 2, Len = 32;
  constexpr std::size_t N = Count * Len, Guard = 16;
  constexpr double Canary = -12345.5;
  std::mt19937 Gen(GetParam());
  const std::string Path = fuzzSocketPath("client", GetParam());
  test::FakeDaemon D(Path, [&](const Frame &F) {
    ExecuteResponse Resp;
    Resp.Count = Count;
    Resp.VectorLen = Len;
    Resp.Data.assign(N, 1.0);
    std::vector<std::uint8_t> Bytes =
        test::frameBytes(MsgType::ExecuteResp, F.RequestId, Resp.encode());
    // Mostly the header's length and the response prefix; sometimes the
    // payload's end, so the frame comes up short or long.
    if (Gen() % 4 == 0)
      mutateBytes(Bytes, Gen, Bytes.size() - 16);
    else
      mutateBytes(Bytes, Gen, 12,
                  kHeaderBytes + ExecuteResponse::kPrefixBytes);
    return Bytes;
  });
  ASSERT_TRUE(D.listening());
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  std::vector<double> X(N, 0.5), Y(N + Guard, Canary);
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::VM;
  if (!C.execute(Spec, Y.data(), X.data(), Count, Len)) {
    EXPECT_NE(C.lastStatus(), Status::Ok);
  }
  for (std::size_t I = N; I != N + Guard; ++I)
    ASSERT_EQ(Y[I], Canary) << "client wrote past Y at " << I;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecuteResponseFuzzTest,
                         ::testing::Range(2600u, 2680u));

} // namespace
