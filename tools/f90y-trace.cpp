//===- tools/f90y-trace.cpp - trace summarizer -------------------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// f90y-trace: summarize a Chrome trace-event JSON file produced by
/// `f90yc -trace=FILE`, and/or a metrics registry export produced by
/// `f90yc -metrics=FILE`.
///
///   f90y-trace [-top=N] [-metrics=metrics.json] [trace.json]
///
/// For a trace, prints per clock domain the per-phase breakdown (event
/// name, span count, total duration, share of the domain total) and the
/// top-N longest individual spans. The cycle-domain total equals the
/// run's cycle-ledger total (`f90yc -stats`): cycle spans tile the
/// ledger, with untraced front-end time attributed to synthetic "host"
/// spans.
///
/// For a metrics export, prints every metric grouped by its dotted
/// prefix, then a one-line digest of each optimization pass that
/// reported gauges (layout.*, fuse.*) so CI logs surface what the
/// transforms actually did to the program.
///
//===----------------------------------------------------------------------===//

#include "observe/Json.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace f90y::observe;

namespace {

struct Span {
  std::string Name;
  std::string Cat;
  double Ts = 0;
  double Dur = 0;
};

struct Group {
  uint64_t Count = 0;
  double Total = 0;
};

void summarizeDomain(const char *Title, const char *Unit,
                     const std::vector<Span> &Spans, uint64_t Instants,
                     unsigned TopN) {
  double DomainTotal = 0;
  std::map<std::string, Group> Groups;
  for (const Span &S : Spans) {
    Group &G = Groups[S.Name];
    G.Count += 1;
    G.Total += S.Dur;
    DomainTotal += S.Dur;
  }

  std::printf("== %s ==\n", Title);
  if (Spans.empty()) {
    std::printf("  (no spans)\n\n");
    return;
  }

  std::vector<std::pair<std::string, Group>> Rows(Groups.begin(),
                                                  Groups.end());
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    if (A.second.Total != B.second.Total)
      return A.second.Total > B.second.Total;
    return A.first < B.first;
  });
  std::printf("  %-24s %8s %16s %7s\n", "phase", "count", Unit, "share");
  for (const auto &[Name, G] : Rows)
    std::printf("  %-24s %8llu %16.1f %6.1f%%\n", Name.c_str(),
                static_cast<unsigned long long>(G.Count), G.Total,
                DomainTotal > 0 ? 100.0 * G.Total / DomainTotal : 0.0);
  std::printf("  %-24s %8llu %16.1f\n", "total",
              static_cast<unsigned long long>(Spans.size()), DomainTotal);
  if (Instants)
    std::printf("  (+ %llu instant events)\n",
                static_cast<unsigned long long>(Instants));

  std::vector<Span> Top = Spans;
  std::stable_sort(Top.begin(), Top.end(),
                   [](const Span &A, const Span &B) { return A.Dur > B.Dur; });
  if (Top.size() > TopN)
    Top.resize(TopN);
  std::printf("  top %zu spans:\n", Top.size());
  for (const Span &S : Top)
    std::printf("    %-22s %-8s ts=%-14.1f dur=%.1f\n", S.Name.c_str(),
                S.Cat.c_str(), S.Ts, S.Dur);
  std::printf("\n");
}

/// Summarizes a `f90yc -metrics=FILE` export: every metric grouped by
/// its dotted prefix, then the optimization-pass digest. Returns the
/// process exit code.
int summarizeMetrics(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "f90y-trace: cannot open '%s'\n", Path.c_str());
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  json::Value Root;
  std::string Error;
  if (!json::parse(Buf.str(), Root, Error)) {
    std::fprintf(stderr,
                 "f90y-trace: %s: malformed metrics JSON (%s)\n",
                 Path.c_str(), Error.c_str());
    return 2;
  }
  const json::Value *Metrics = Root.get("metrics");
  if (!Metrics || !Metrics->isObject()) {
    std::fprintf(stderr,
                 "f90y-trace: %s: no metrics object (not a f90yc "
                 "-metrics export?)\n",
                 Path.c_str());
    return 2;
  }

  std::printf("== metrics ==\n");
  std::string Prefix;
  std::map<std::string, double> Values;
  for (const auto &[Name, M] : Metrics->Obj) {
    if (!M.isObject())
      continue;
    std::string Group = Name.substr(0, Name.find('.'));
    if (Group != Prefix) {
      Prefix = Group;
      std::printf("  [%s]\n", Group.c_str());
    }
    std::string Type = M.strOr("type", "?");
    if (const json::Value *V = M.get("value")) {
      Values[Name] = V->Num;
      std::printf("    %-34s %-10s %16.1f\n", Name.c_str(), Type.c_str(),
                  V->Num);
    } else {
      // Histograms carry count/sum instead of one value.
      std::printf("    %-34s %-10s count=%.0f sum=%.1f\n", Name.c_str(),
                  Type.c_str(), M.numOr("count", 0), M.numOr("sum", 0));
    }
  }

  // Pass digests: what the optimizing transforms did, one line each,
  // only for passes that actually reported.
  if (Values.count("layout.fields_realigned"))
    std::printf("\n  layout: %.0f fields realigned, %.0f exchanges "
                "localized, ~%.0f comm cycles saved/run\n",
                Values["layout.fields_realigned"],
                Values["layout.comm_moves_localized"],
                Values["layout.comm_cycles_saved"]);
  if (Values.count("fuse.temps_eliminated"))
    std::printf("  fuse: %.0f temporaries eliminated, %.0f moves fused, "
                "%.0f bytes saved/step\n",
                Values["fuse.temps_eliminated"], Values["fuse.moves_fused"],
                Values["fuse.bytes_saved"]);
  std::printf("\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string Path, MetricsPath;
  unsigned TopN = 5;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("-metrics=", 0) == 0) {
      MetricsPath = Arg.substr(9);
      if (MetricsPath.empty()) {
        std::fprintf(stderr, "f90y-trace: -metrics needs a file name\n");
        return 2;
      }
    } else if (Arg.rfind("-top=", 0) == 0) {
      std::string Error;
      if (!f90y::parseDecimal("f90y-trace", "-top", Arg.substr(5), TopN,
                              Error, 1)) {
        std::fprintf(stderr, "%s\n", Error.c_str());
        return 2;
      }
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "usage: f90y-trace [-top=N] "
                           "[-metrics=metrics.json] [trace.json]\n");
      return 2;
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      std::fprintf(stderr, "f90y-trace: multiple input files\n");
      return 2;
    }
  }
  if (Path.empty() && MetricsPath.empty()) {
    std::fprintf(stderr, "usage: f90y-trace [-top=N] "
                         "[-metrics=metrics.json] [trace.json]\n");
    return 2;
  }
  if (!MetricsPath.empty()) {
    int RC = summarizeMetrics(MetricsPath);
    if (RC != 0 || Path.empty())
      return RC;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "f90y-trace: cannot open '%s'\n", Path.c_str());
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  // A trace that does not parse is a malformed input (truncated mid-write,
  // bit-rotted, or not a trace at all): report one line and exit 2, the
  // same class as bad usage, so scripts can tell "bad input file" from
  // "summarizer failed" without scraping stderr.
  json::Value Root;
  std::string Error;
  if (!json::parse(Buf.str(), Root, Error)) {
    std::fprintf(stderr,
                 "f90y-trace: %s: malformed trace JSON (%s); was the "
                 "file truncated?\n",
                 Path.c_str(), Error.c_str());
    return 2;
  }
  const json::Value *Events = Root.get("traceEvents");
  if (!Events || !Events->isArray()) {
    std::fprintf(stderr,
                 "f90y-trace: %s: no traceEvents array (not a Chrome "
                 "trace?)\n",
                 Path.c_str());
    return 2;
  }

  std::vector<Span> Wall, Cycles;
  uint64_t WallInstants = 0, CycleInstants = 0;
  for (const json::Value &E : Events->Arr) {
    if (!E.isObject())
      continue;
    std::string Ph = E.strOr("ph", "");
    if (Ph != "X" && Ph != "i")
      continue;
    bool IsWall = E.numOr("pid", 0) == 1;
    if (Ph == "i") {
      (IsWall ? WallInstants : CycleInstants) += 1;
      continue;
    }
    Span S;
    S.Name = E.strOr("name", "?");
    S.Cat = E.strOr("cat", "");
    S.Ts = E.numOr("ts", 0);
    S.Dur = E.numOr("dur", 0);
    (IsWall ? Wall : Cycles).push_back(std::move(S));
  }

  summarizeDomain("host wall-clock", "us", Wall, WallInstants, TopN);
  summarizeDomain("simulated CM/2", "cycles", Cycles, CycleInstants, TopN);
  return 0;
}
