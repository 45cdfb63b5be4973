//===- service/Protocol.cpp - spld wire protocol ------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

using namespace spl;
using namespace spl::service;

const char *spl::service::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "ok";
  case Status::BadRequest:
    return "bad-request";
  case Status::BadSpec:
    return "bad-spec";
  case Status::PlanFailed:
    return "plan-failed";
  case Status::ExecFailed:
    return "exec-failed";
  case Status::Busy:
    return "busy";
  case Status::TooLarge:
    return "too-large";
  case Status::ShuttingDown:
    return "shutting-down";
  case Status::Protocol:
    return "protocol-error";
  case Status::DeadlineExceeded:
    return "deadline-exceeded";
  }
  return "unknown";
}

// Status values 0..5 are tools/ExitCodes.h by construction (the library
// cannot include tools/ headers without inverting the layering; spld
// static_asserts the correspondence). Service-only codes collapse onto the
// execution-failure stage, except DeadlineExceeded, which owns the
// ExitDeadline stage (6) so scripts can branch on "too slow".
int spl::service::statusToExitCode(Status S) {
  if (S == Status::DeadlineExceeded)
    return 6;
  std::uint32_t V = static_cast<std::uint32_t>(S);
  return V <= 5 ? static_cast<int>(V) : 5;
}

//===----------------------------------------------------------------------===//
// FrameHeader
//===----------------------------------------------------------------------===//

void FrameHeader::encode(std::uint8_t Out[kHeaderBytes]) const {
  std::vector<std::uint8_t> Buf;
  Buf.reserve(kHeaderBytes);
  WireWriter W(Buf);
  W.u32(Magic);
  W.u16(Version);
  W.u16(static_cast<std::uint16_t>(Type));
  W.u32(RequestId);
  W.u32(BodyLen);
  std::memcpy(Out, Buf.data(), kHeaderBytes);
}

bool FrameHeader::decode(const std::uint8_t In[kHeaderBytes], FrameHeader &H) {
  WireReader R(In, kHeaderBytes);
  H.Magic = R.u32();
  H.Version = R.u16();
  H.Type = static_cast<MsgType>(R.u16());
  H.RequestId = R.u32();
  H.BodyLen = R.u32();
  return R.ok() && H.Magic == kMagic && H.Version >= kMinProtocolVersion &&
         H.Version <= kProtocolVersion;
}

//===----------------------------------------------------------------------===//
// WireSpec
//===----------------------------------------------------------------------===//

runtime::PlanSpec WireSpec::toSpec(bool &OK) const {
  runtime::PlanSpec S;
  S.Transform = Transform;
  S.Size = Size;
  S.Datatype = Datatype;
  S.UnrollThreshold = UnrollThreshold;
  S.MaxLeaf = MaxLeaf;
  S.Shape = Shape;
  OK = runtime::parseBackend(Backend, S.Want) &&
       runtime::parseCodegenMode(Codegen, S.Codegen);
  return S;
}

WireSpec WireSpec::fromSpec(const runtime::PlanSpec &Spec) {
  WireSpec W;
  W.Transform = Spec.Transform;
  W.Size = Spec.Size;
  W.Datatype = Spec.Datatype;
  W.UnrollThreshold = Spec.UnrollThreshold;
  W.MaxLeaf = Spec.MaxLeaf;
  W.Backend = runtime::backendName(Spec.Want);
  W.Codegen = runtime::codegenModeName(Spec.Codegen);
  W.Shape = Spec.Shape;
  return W;
}

void WireSpec::encode(WireWriter &W, std::uint16_t Version) const {
  W.str(Transform);
  W.i64(Size);
  W.str(Datatype);
  W.i64(UnrollThreshold);
  W.i64(MaxLeaf);
  W.str(Backend);
  W.str(Codegen);
  if (Version >= 4) {
    W.u32(static_cast<std::uint32_t>(Shape.size()));
    for (std::int64_t D : Shape)
      W.i64(D);
  }
}

bool WireSpec::decode(WireReader &R, WireSpec &Out, std::uint16_t Version) {
  Out.Transform = R.str();
  Out.Size = R.i64();
  Out.Datatype = R.str();
  Out.UnrollThreshold = R.i64();
  Out.MaxLeaf = R.i64();
  Out.Backend = R.str();
  Out.Codegen = R.str();
  Out.Shape.clear();
  if (Version >= 4) {
    std::uint32_t Rank = R.u32();
    if (!R.ok() || Rank > kMaxShapeRank)
      return false;
    Out.Shape.reserve(Rank);
    for (std::uint32_t I = 0; I != Rank; ++I)
      Out.Shape.push_back(R.i64());
  }
  return R.ok();
}

//===----------------------------------------------------------------------===//
// Bodies
//===----------------------------------------------------------------------===//

std::vector<std::uint8_t> PlanRequest::encode(std::uint16_t Version) const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  if (Version >= 3)
    W.u32(DeadlineMs);
  Spec.encode(W, Version);
  return Buf;
}

bool PlanRequest::decode(const std::uint8_t *Data, std::size_t Len,
                         PlanRequest &Out, std::uint16_t Version) {
  WireReader R(Data, Len);
  Out.DeadlineMs = Version >= 3 ? R.u32() : 0;
  return R.ok() && WireSpec::decode(R, Out.Spec, Version) &&
         R.remaining() == 0;
}

std::vector<std::uint8_t> PlanResponse::encode() const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  W.str(Key);
  W.str(Backend);
  W.i64(VectorLen);
  W.f64(Cost);
  W.u8(Fallback ? 1 : 0);
  W.str(FallbackReason);
  W.str(FormulaText);
  return Buf;
}

bool PlanResponse::decode(const std::uint8_t *Data, std::size_t Len,
                          PlanResponse &Out) {
  WireReader R(Data, Len);
  Out.Key = R.str();
  Out.Backend = R.str();
  Out.VectorLen = R.i64();
  Out.Cost = R.f64();
  Out.Fallback = R.u8() != 0;
  Out.FallbackReason = R.str();
  Out.FormulaText = R.str();
  return R.ok() && R.remaining() == 0;
}

std::vector<std::uint8_t>
ExecuteRequest::encodePrefix(std::uint64_t N, std::uint16_t Version) const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  if (Version >= 3)
    W.u32(DeadlineMs);
  Spec.encode(W, Version);
  W.i64(Count);
  W.u32(static_cast<std::uint32_t>(Threads));
  W.u64(N);
  return Buf;
}

bool ExecuteRequest::decodePrefix(const std::uint8_t *Data, std::size_t Len,
                                  ExecuteRequest &Out, std::uint64_t &N,
                                  std::uint16_t Version) {
  WireReader R(Data, Len);
  Out.DeadlineMs = Version >= 3 ? R.u32() : 0;
  if (!R.ok() || !WireSpec::decode(R, Out.Spec, Version))
    return false;
  Out.Count = R.i64();
  Out.Threads = static_cast<std::int32_t>(R.u32());
  N = R.u64();
  Out.Data.clear();
  // N is untrusted: compare by division so N * 8 cannot wrap.
  return R.ok() && R.remaining() % 8 == 0 && N == R.remaining() / 8;
}

std::vector<std::uint8_t> ExecuteRequest::encode(std::uint16_t Version) const {
  std::vector<std::uint8_t> Buf = encodePrefix(Data.size(), Version);
  WireWriter(Buf).doubles(Data.data(), Data.size());
  return Buf;
}

bool ExecuteRequest::decode(const std::uint8_t *Data, std::size_t Len,
                            ExecuteRequest &Out, std::uint16_t Version) {
  std::uint64_t N = 0;
  if (!decodePrefix(Data, Len, Out, N, Version))
    return false;
  Out.Data.resize(N);
  return WireReader(Data + (Len - N * 8), N * 8).doubles(Out.Data.data(), N);
}

std::vector<std::uint8_t> ExecuteResponse::encodePrefix(std::uint64_t N) const {
  std::vector<std::uint8_t> Buf;
  Buf.reserve(kPrefixBytes);
  WireWriter W(Buf);
  W.i64(Count);
  W.i64(VectorLen);
  W.u64(N);
  return Buf;
}

void ExecuteResponse::decodePrefix(const std::uint8_t *Prefix,
                                   ExecuteResponse &Out, std::uint64_t &N) {
  WireReader R(Prefix, kPrefixBytes);
  Out.Count = R.i64();
  Out.VectorLen = R.i64();
  N = R.u64();
  Out.Data.clear();
}

std::vector<std::uint8_t> ExecuteResponse::encode() const {
  std::vector<std::uint8_t> Buf = encodePrefix(Data.size());
  WireWriter(Buf).doubles(Data.data(), Data.size());
  return Buf;
}

bool ExecuteResponse::decode(const std::uint8_t *Data, std::size_t Len,
                             ExecuteResponse &Out) {
  std::uint64_t N = 0;
  if (Len < kPrefixBytes)
    return false;
  decodePrefix(Data, Out, N);
  const std::size_t Rest = Len - kPrefixBytes;
  if (Rest % 8 != 0 || N != Rest / 8)
    return false;
  Out.Data.resize(N);
  return WireReader(Data + kPrefixBytes, Rest).doubles(Out.Data.data(), N);
}

std::vector<std::uint8_t> StatsResponse::encode() const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  W.str(Json);
  return Buf;
}

bool StatsResponse::decode(const std::uint8_t *Data, std::size_t Len,
                           StatsResponse &Out) {
  WireReader R(Data, Len);
  Out.Json = R.str();
  return R.ok() && R.remaining() == 0;
}

std::vector<std::uint8_t> ErrorBody::encode() const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  W.u32(static_cast<std::uint32_t>(Code));
  W.str(Message);
  return Buf;
}

bool ErrorBody::decode(const std::uint8_t *Data, std::size_t Len,
                       ErrorBody &Out) {
  WireReader R(Data, Len);
  Out.Code = static_cast<Status>(R.u32());
  Out.Message = R.str();
  return R.ok() && R.remaining() == 0;
}
