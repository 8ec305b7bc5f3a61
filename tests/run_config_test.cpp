//===- tests/run_config_test.cpp - the shared run-configuration table -----===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// driver::RunConfig's table is the one description of the settings f90yc
/// and f90y-serve share. These tests hold the two spellings to it: every
/// key and value round-trips between "-key=value" and {"key": value},
/// only compile-affecting keys move the artifact fingerprint, bad values
/// fail naming the key, and a configuration run through f90yc's path and
/// through runBatch gives byte-identical output and run reports.
///
//===----------------------------------------------------------------------===//

#include "driver/RunConfig.h"
#include "observe/Json.h"
#include "serve/Scheduler.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace f90y;
using namespace f90y::driver;
namespace js = f90y::observe::json;

namespace {

/// The keys whose values change what is compiled; the rest only change how
/// it runs.
const std::set<std::string> CompileKeys = {"profile", "cm5",  "pes",
                                           "comm",    "fuse", "layout"};
const std::set<std::string> RunKeys = {"threads", "exec", "faults",
                                       "fault_seed", "max_steps"};

/// Values inside a row's domain: each '|' alternative, or samples.
std::vector<std::string> domainValues(const RunConfigKey &K) {
  if (K.Kind == ValueKind::Number)
    return {"1", "64", "4294967295"};
  if (std::string(K.Key) == "faults")
    return {"", "all:0.01", "corrupt:0.05,pe-trap:0.5"};
  std::vector<std::string> Out;
  std::string D = K.Domain;
  for (size_t Pos = 0, Bar; Pos <= D.size(); Pos = Bar + 1) {
    Bar = D.find('|', Pos);
    if (Bar == std::string::npos)
      Bar = D.size();
    Out.push_back(D.substr(Pos, Bar - Pos));
  }
  return Out;
}

/// \p Text as a JSON value of the row's kind.
std::string jsonValue(const RunConfigKey &K, const std::string &Text) {
  return K.Kind == ValueKind::String ? js::quote(Text) : Text;
}

/// The single job parsed from {"source":"x", Key: JsonValue}.
serve::JobSpec manifestJob(const std::string &Key,
                           const std::string &JsonValue) {
  auto Jobs = serve::parseManifest(
      "{\"source\":\"x\"," + js::quote(Key) + ":" + JsonValue + "}\n", "");
  EXPECT_EQ(Jobs.size(), 1u);
  return Jobs.empty() ? serve::JobSpec{} : Jobs[0];
}

uint64_t fingerprintOf(const RunConfig &C) {
  return serve::ArtifactCache::fingerprint("x", C.compileOptions());
}

void expectSameExecution(const ExecutionOptions &A,
                         const ExecutionOptions &B) {
  EXPECT_EQ(A.Threads, B.Threads);
  EXPECT_EQ(A.Engine, B.Engine);
  EXPECT_EQ(A.OverlapComm, B.OverlapComm);
  EXPECT_TRUE(A.Faults == B.Faults);
  EXPECT_EQ(A.FaultSeed, B.FaultSeed);
  EXPECT_EQ(A.MaxSteps, B.MaxSteps);
}

TEST(RunConfigTable, EveryKeyIsClassifiedOnce) {
  size_t N = 0;
  for (const RunConfigKey &K : runConfigTable()) {
    EXPECT_NE(CompileKeys.count(K.Key), RunKeys.count(K.Key)) << K.Key;
    EXPECT_EQ(findRunConfigKey(K.Key), &K);
    ++N;
  }
  EXPECT_EQ(N, CompileKeys.size() + RunKeys.size());
  EXPECT_EQ(findRunConfigKey("deadline_ms"), nullptr)
      << "serve-only keys stay out of the shared table";
}

TEST(RunConfigTable, FlagAndManifestSpellingsRoundTrip) {
  const RunConfig Defaults = serve::JobSpec{}.Run;
  for (const RunConfigKey &K : runConfigTable()) {
    std::set<uint64_t> Fingerprints;
    const std::vector<std::string> Values = domainValues(K);
    for (const std::string &V : Values) {
      SCOPED_TRACE(std::string(K.Key) + "=" + V);
      RunConfig Cli = Defaults;
      std::string Error;
      ASSERT_EQ(Cli.parseFlag(K.flag() + "=" + V, Error),
                RunConfig::FlagResult::Ok)
          << Error;
      serve::JobSpec Job = manifestJob(K.Key, jsonValue(K, V));
      ASSERT_TRUE(Job.Valid) << Job.ParseError;
      EXPECT_TRUE(Cli == Job.Run);
      EXPECT_EQ(fingerprintOf(Cli), fingerprintOf(Job.Run));
      expectSameExecution(Cli.executionOptions(), Job.Run.executionOptions());
      Fingerprints.insert(fingerprintOf(Job.Run));
      if (RunKeys.count(K.Key)) {
        EXPECT_EQ(fingerprintOf(Job.Run), fingerprintOf(Defaults))
            << "a run-only key must not split the artifact cache";
      }
    }
    if (CompileKeys.count(K.Key)) {
      EXPECT_EQ(Fingerprints.size(), Values.size())
          << K.Key << ": each value must compile to its own artifact";
    }
  }
}

TEST(RunConfigTable, BareBooleanFlagMeansTrue) {
  RunConfig C;
  std::string Error;
  EXPECT_EQ(C.parseFlag("-cm5", Error), RunConfig::FlagResult::Ok);
  EXPECT_TRUE(C.Cm5);
  EXPECT_EQ(C.parseFlag("-fuse", Error), RunConfig::FlagResult::Error);
  EXPECT_NE(Error.find("-fuse"), std::string::npos) << Error;
}

TEST(RunConfigTable, OtherSpellingsAreNotFlags) {
  RunConfig C;
  std::string Error;
  for (const char *Arg : {"--threads=4", "-fault_seed=3", "-stats", "x.f90",
                          "-profilex=f90y"})
    EXPECT_EQ(C.parseFlag(Arg, Error), RunConfig::FlagResult::NotMine)
        << Arg;
  EXPECT_TRUE(C == RunConfig{});
}

TEST(RunConfigTable, BadValuesNameTheKey) {
  for (const RunConfigKey &K : runConfigTable()) {
    SCOPED_TRACE(K.Key);
    const std::string Quoted = "'" + std::string(K.Key) + "'";
    // A value of the wrong JSON kind.
    const std::string WrongKind =
        K.Kind == ValueKind::String ? "5" : "\"5\"";
    serve::JobSpec Job = manifestJob(K.Key, WrongKind);
    EXPECT_FALSE(Job.Valid);
    EXPECT_NE(Job.ParseError.find(Quoted), std::string::npos)
        << Job.ParseError;

    // Values of the right kind outside the domain, both spellings.
    std::vector<std::string> Bad;
    if (K.Kind == ValueKind::String)
      Bad = {"bogus"};
    else if (K.Kind == ValueKind::Number)
      Bad = {"-3", "1.5", "1e+20"};
    for (const std::string &V : Bad) {
      Job = manifestJob(K.Key, jsonValue(K, V));
      EXPECT_FALSE(Job.Valid) << V;
      EXPECT_NE(Job.ParseError.find(Quoted), std::string::npos)
          << Job.ParseError;
    }
    RunConfig C;
    std::string Error;
    EXPECT_EQ(C.parseFlag(K.flag() + "=bogus", Error),
              RunConfig::FlagResult::Error);
    EXPECT_NE(Error.find(K.flag()), std::string::npos) << Error;
  }
  // The count keys reject zero; the others accept it.
  EXPECT_FALSE(manifestJob("pes", "0").Valid);
  EXPECT_FALSE(manifestJob("threads", "0").Valid);
  EXPECT_TRUE(manifestJob("fault_seed", "0").Valid);
}

TEST(RunConfigTable, UsageListsEveryFlag) {
  const std::string Usage = runConfigUsage();
  for (const RunConfigKey &K : runConfigTable())
    EXPECT_NE(Usage.find("  " + K.flag()), std::string::npos) << K.Key;
}

//===----------------------------------------------------------------------===//
// serve == f90yc over the example programs
//===----------------------------------------------------------------------===//

struct Variant {
  std::vector<std::string> Flags; ///< f90yc spelling, e.g. "-fuse=off".
  std::string Keys;               ///< Manifest spelling, e.g. ,"fuse":"off".
};

/// profile x fuse {unset, on, off} x layout {unset, infer, canonical} x
/// comm {overlap, sync}, spelled both ways.
std::vector<Variant> variants(const std::string &Profile) {
  std::vector<Variant> Out;
  for (const char *Fuse : {"", "on", "off"})
    for (const char *Layout : {"", "infer", "canonical"})
      for (const char *Comm : {"overlap", "sync"}) {
        Variant V;
        auto Add = [&V](const std::string &Key, const std::string &Value) {
          V.Flags.push_back("-" + Key + "=" + Value);
          V.Keys += "," + js::quote(Key) + ":" + js::quote(Value);
        };
        Add("profile", Profile);
        if (*Fuse)
          Add("fuse", Fuse);
        if (*Layout)
          Add("layout", Layout);
        Add("comm", Comm);
        Out.push_back(V);
      }
  return Out;
}

class ServeMatchesF90yc
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(ServeMatchesF90yc, OutputAndRunReportAreByteIdentical) {
  const auto [File, Profile] = GetParam();
  const std::string Dir = std::string(F90Y_SOURCE_DIR) + "/examples/programs";
  std::string Source;
  ASSERT_TRUE(support::readFile(Dir + "/" + File, Source));

  const std::vector<Variant> Vs = variants(Profile);
  std::string Manifest;
  for (const Variant &V : Vs)
    Manifest += "{\"source_path\":" + js::quote(File) + V.Keys + "}\n";
  serve::ArtifactCache Cache;
  serve::ServeOptions Opts;
  Opts.Workers = 2;
  Opts.Cache = &Cache;
  serve::BatchResult B = runBatch(serve::parseManifest(Manifest, Dir), Opts);
  ASSERT_EQ(B.Records.size(), Vs.size());

  for (size_t I = 0; I < Vs.size(); ++I) {
    RunConfig Run;
    std::string Error;
    for (const std::string &Flag : Vs[I].Flags)
      ASSERT_EQ(Run.parseFlag(Flag, Error), RunConfig::FlagResult::Ok)
          << Error;
    SCOPED_TRACE(Vs[I].Keys);
    Compilation C(Run.compileOptions());
    ASSERT_TRUE(C.compile(Source)) << C.diags().str();
    Execution Exec(Run.machine(), Run.executionOptions());
    auto Report = Exec.run(C.artifacts().Compiled.Program);
    ASSERT_TRUE(Report) << Exec.diags().str();

    const serve::JobRecord &R = B.Records[I];
    ASSERT_EQ(R.Status, serve::JobStatus::Ok) << R.Error;
    EXPECT_EQ(R.Output, Report->Output);
    EXPECT_EQ(R.Report.json(), Report->json());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExamplePrograms, ServeMatchesF90yc,
    ::testing::Combine(::testing::Values(std::string("fig10.f90"),
                                         std::string("mswe.f90"),
                                         std::string("subroutines.f90"),
                                         std::string("swe.f90")),
                       ::testing::Values(std::string("f90y"),
                                         std::string("cmf"),
                                         std::string("naive"))),
    [](const auto &Info) {
      std::string Name =
          std::get<0>(Info.param) + "_" + std::get<1>(Info.param);
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name;
    });

} // namespace
