//===- perfbench/main.cpp - the repository benchmark ---------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload for a fixed time and prints every metric by name and
/// unit, then one JSON line: {"correct", "attempted", "failed", "metrics"}.
///
///   f90y_perfbench --workload W --seed N --seconds S --trace 0|1
///                  [--smoke] [--perturb] [--work-dir D] [--repo-root R]
///
/// With --trace 0 the metrics are the end-to-end ones, measured with
/// tracing off. With --trace 1 the rounds alternate untraced and traced,
/// and the metrics are the per-layer ones from the traced rounds plus the
/// tracing overhead. perfbench/run.py builds this program and wraps it.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "observe/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sched.h>
#include <string>

using namespace perfbench;

namespace {

#ifndef F90Y_PERFBENCH_BUILD_TYPE
#define F90Y_PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define F90Y_PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define F90Y_PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define F90Y_PERFBENCH_COMPILER "unknown"
#endif

/// Tolerance within which traced per-layer self times must add up to the
/// traced compile and run wall time.
constexpr double ReconcileTol = 0.05;
/// Set-up repeats until it has taken this long (at least 3 and at most
/// 31 times); setup_s is the median.
constexpr double SetupBudgetS = 1.0;

unsigned cpusAvailable() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return unsigned(std::max(1, CPU_COUNT(&Set)));
  return 1;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "f90y_perfbench: %s\n"
               "usage: f90y_perfbench --workload swe|relax-ckpt|corpus|serve "
               "--seed N --seconds S --trace 0|1 [--smoke] [--perturb] "
               "[--work-dir D] [--repo-root R]\n",
               Msg);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  if (!S || !*S || *S == '-')
    return false;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

struct Metric {
  std::string Name, Unit;
  double Value;
};

} // namespace

int main(int argc, char **argv) {
  Config C;
  C.WorkDir = ".bench_build/work";
  C.RepoRoot = ".";
  const unsigned Cpus = cpusAvailable();
  // Serve workers, and the thread count the one-thread rounds of swe and
  // relax-ckpt are checked against: half the CPUs, at most 4, so that a
  // neighbour's load on a shared host stalls fewer of them.
  C.Threads = std::max(1u, std::min(4u, Cpus / 2));
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    uint64_t N = 0;
    if (A == "--smoke") {
      C.Smoke = true;
    } else if (A == "--perturb") {
      C.Perturb = true;
    } else if (!V) {
      return usage(("missing value for " + A).c_str());
    } else if (A == "--workload") {
      C.Workload = V, HaveWorkload = true, ++I;
    } else if (A == "--seed") {
      if (!parseUnsigned(V, N))
        return usage("--seed takes a whole number");
      C.Seed = N, HaveSeed = true, ++I;
    } else if (A == "--seconds") {
      if (!parseUnsigned(V, N) || N == 0 || N > 3600)
        return usage("--seconds takes a whole number from 1 to 3600");
      C.Seconds = double(N), HaveSeconds = true, ++I;
    } else if (A == "--trace") {
      if (std::string(V) != "0" && std::string(V) != "1")
        return usage("--trace takes 0 or 1");
      C.Trace = std::string(V) == "1", HaveTrace = true, ++I;
    } else if (A == "--work-dir") {
      C.WorkDir = V, ++I;
    } else if (A == "--repo-root") {
      C.RepoRoot = V, ++I;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  std::unique_ptr<Workload> W = makeWorkload(C);
  if (!W)
    return usage(("unknown workload " + C.Workload).c_str());
  if (!std::filesystem::is_directory(C.RepoRoot + "/examples/programs"))
    return usage("repository sources not found under --repo-root");
  std::filesystem::create_directories(C.WorkDir);

  Tally T;
  W->prepare(T);
  std::vector<double> Setup;
  for (double Spent = 0; Setup.size() < 3 ||
                         (Spent < SetupBudgetS && Setup.size() < 31);) {
    double T0 = wallNow();
    W->setup();
    Setup.push_back(wallNow() - T0);
    Spent += Setup.back();
  }
  W->onceChecks(T);
  W->round(T, false); // Warm-up: lets lazy set-up and allocators settle.

  // Whole rounds until the time is up; in trace mode, whole pairs of an
  // untraced and a traced round.
  std::vector<RoundResult> Plain, Traced;
  const double Deadline = wallNow() + C.Seconds;
  for (unsigned I = 0;; ++I) {
    const bool Tr = C.Trace && I % 2 == 1;
    (Tr ? Traced : Plain).push_back(W->round(T, Tr));
    if (wallNow() >= Deadline && (!C.Trace || I % 2 == 1))
      break;
  }
  // Simulated statistics are deterministic: every round must agree.
  for (const auto *Set : {&Plain, &Traced})
    for (const RoundResult &R : *Set)
      T.property(R.SimCycles == Plain[0].SimCycles &&
                     R.PeacInstructions == Plain[0].PeacInstructions &&
                     R.SimGflops == Plain[0].SimGflops,
                 "simulated statistics identical in every round");

  auto Med = [](const std::vector<RoundResult> &Rs, auto Get) {
    std::vector<double> V;
    for (const RoundResult &R : Rs)
      V.push_back(Get(R));
    return median(V);
  };

  std::vector<Metric> Out;
  if (!C.Trace) {
    const RoundResult &R0 = Plain[0];
    Out = {
        {"setup_s", "s", median(Setup)},
        {"compile_s", "s", Med(Plain, [](auto &R) { return R.CompileS; })},
        {"run_s", "s", Med(Plain, [](auto &R) { return R.RunS; })},
        {"jobs_per_s", "jobs/s",
         Med(Plain,
             [](auto &R) { return R.Jobs / (R.CompileS + R.RunS); })},
        {"cpu_s", "s", Med(Plain, [](auto &R) { return R.CpuS; })},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"sim_cycles", "cycles", R0.SimCycles},
        {"sim_gflops", "GFLOPS", R0.SimGflops},
        {"peac_instructions", "count", R0.PeacInstructions},
    };
  } else {
    auto At = [](const RoundResult &R, const std::string &Key) {
      auto It = R.Layers.find(Key);
      return It == R.Layers.end() ? 0.0 : It->second;
    };
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
    auto Work = [](const RoundResult &R) { return R.CompileS + R.RunS; };
    double Share = 0;
    for (const auto &[Name, Unit] : layerMetrics()) {
      double V;
      if (Name == "observe.trace_overhead")
        V = Ratio(Med(Traced, Work), Med(Plain, Work));
      else
        V = Med(Traced, [&, &Name = Name](const RoundResult &R) {
          if (Name == "exec.us_per_kcycle")
            return Ratio(At(R, "run.us"), At(R, "sim.total_cycles") / 1000);
          if (Name == "pool.cpu_per_wall")
            return Ratio(At(R, "run.cpu_us"), At(R, "run.us"));
          if (Name == "reconcile.layer_share") {
            double Sum = 0;
            for (const std::string &L : selfTimeLayers())
              Sum += At(R, L);
            return Ratio(Sum, R.LayerWallUs);
          }
          return At(R, Name);
        });
      if (Name == "reconcile.layer_share")
        Share = V;
      Out.push_back({Name, Unit, V});
    }
    T.property(std::abs(Share - 1.0) <= ReconcileTol,
               "per-layer self times reconcile with the traced wall time "
               "(share " + num(Share) + ")");
  }

  // Human-readable report, then the stamp, then the result line.
  std::printf("# workload %s  seed %llu  rounds %zu untraced + %zu traced\n",
              C.Workload.c_str(), (unsigned long long)C.Seed, Plain.size(),
              Traced.size());
  for (const Metric &M : Out)
    std::printf("%-32s %20s %s\n", M.Name.c_str(), num(M.Value).c_str(),
                M.Unit.c_str());
  if (!C.Trace && C.Workload == "relax-ckpt")
    std::printf("%-32s %20s %s\n", "restore_s",
                num(Med(Plain, [](auto &R) { return R.RestoreS; })).c_str(),
                "s");
  std::printf("%-32s %20llu\n%-32s %20llu\n", "attempted",
              (unsigned long long)T.attempted(), "failed",
              (unsigned long long)T.failed());
  for (const std::string &N : T.notes())
    std::printf("! %s\n", N.c_str());
  namespace js = f90y::observe::json;
  // Every job runs on one host thread; serve runs C.Threads at once.
  std::printf("STAMP {\"compiler\":%s,\"build_type\":%s,\"threads\":%u,"
              "\"workers\":%u,\"nproc\":%u,\"seed\":%llu,\"rounds\":%zu,"
              "\"traced_rounds\":%zu,\"smoke\":%s}\n",
              js::quote(F90Y_PERFBENCH_COMPILER).c_str(),
              js::quote(F90Y_PERFBENCH_BUILD_TYPE).c_str(),
              1u,
              C.Workload == "serve" ? C.Threads : 1u, Cpus,
              (unsigned long long)C.Seed, Plain.size(), Traced.size(),
              C.Smoke ? "true" : "false");
  std::string Line = "{\"correct\":";
  Line += T.correct() ? "true" : "false";
  Line += ",\"attempted\":" + std::to_string(T.attempted());
  Line += ",\"failed\":" + std::to_string(T.failed());
  Line += ",\"metrics\":{";
  for (size_t K = 0; K < Out.size(); ++K) {
    if (K)
      Line += ",";
    Line += js::quote(Out[K].Name) + ":{\"value\":" + num(Out[K].Value) +
            ",\"unit\":" + js::quote(Out[K].Unit) + "}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return 0;
}
