//===- Spans.cpp - In-memory spans and chrome-trace output ------*- C++ -*-===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <fstream>
#include <map>
#include <sstream>

using namespace perfbench;

Spans &Spans::get() {
  static Spans S;
  return S;
}

int Spans::begin(const std::string &Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - Epoch)
                  .count();
  All.push_back(std::move(S));
  Open.push_back(static_cast<int>(All.size() - 1));
  return Open.back();
}

void Spans::end(int Id) {
  All[Id].EndNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - Epoch)
                      .count();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

double Spans::totalMs(const std::string &Name) const {
  double Ns = 0;
  for (const Span &S : All)
    if (S.Name == Name)
      Ns += static_cast<double>(S.EndNs - S.StartNs);
  return Ns / 1e6;
}

double Spans::selfMs(const std::string &Name) const {
  // Children of one parent never overlap (spans nest on one thread), so the
  // covered part is the sum of the children's durations.
  std::vector<std::int64_t> ChildNs(All.size(), 0);
  for (const Span &S : All)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  double Ns = 0;
  for (std::size_t I = 0; I != All.size(); ++I)
    if (All[I].Name == Name)
      Ns += static_cast<double>(All[I].EndNs - All[I].StartNs - ChildNs[I]);
  return Ns / 1e6;
}

bool Spans::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path);
  Out << "{\"traceEvents\": [";
  for (std::size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    char Buf[160];
    std::snprintf(Buf, sizeof Buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                  static_cast<double>(S.StartNs) / 1e3,
                  static_cast<double>(S.EndNs - S.StartNs) / 1e3, I,
                  S.Parent);
    Out << (I ? ",\n" : "\n") << "{\"name\": \"" << S.Name << "\", " << Buf;
  }
  Out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return Out.good();
}

std::string Spans::selfTimeTable() const {
  std::map<std::string, int> Count;
  for (const Span &S : All)
    ++Count[S.Name];
  std::ostringstream OS;
  char Buf[200];
  std::snprintf(Buf, sizeof Buf, "%-32s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  OS << Buf;
  for (const auto &[Name, N] : Count) {
    std::snprintf(Buf, sizeof Buf, "%-32s %8d %12.3f %12.3f\n", Name.c_str(),
                  N, totalMs(Name), selfMs(Name));
    OS << Buf;
  }
  return OS.str();
}
