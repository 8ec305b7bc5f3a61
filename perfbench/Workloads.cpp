//===- perfbench/Workloads.cpp - the benchmark's four workloads ----------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Models.h"

#include "driver/Workloads.h"
#include "observe/Json.h"
#include "serve/Scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

using namespace f90y;
using namespace perfbench;
using driver::Profile;

namespace {

/// Magnitude-scaled tolerance of the SWE and relaxation field checks.
constexpr double FieldTol = 1e-9;
/// The corpus composes up to hundreds of rounded operations per element.
constexpr double CorpusTol = 1e-8;

/// Shifts every value by a millionth of the field's magnitude: far past
/// any tolerance above, so a perturbed reference fails every check.
void perturb(FieldMap &Fields) {
  for (auto &[Name, V] : Fields) {
    double Scale = 1;
    for (double X : V)
      Scale = std::max(Scale, std::abs(X));
    for (double &X : V)
      X += 1e-6 * Scale;
  }
}

/// The named fields of a finished execution, in logical order; a field
/// fused away reads back empty.
FieldMap readFields(driver::Execution &E,
                    const std::vector<std::string> &Names) {
  FieldMap Out;
  for (const std::string &N : Names)
    Out[N] = logicalField(E, N);
  return Out;
}

/// What a run produced - output, run report (ledger, flops, faults) and
/// fields - for bitwise comparison with another run of the same program.
struct Snapshot {
  std::string Output, Json;
  FieldMap Fields;
  bool operator==(const Snapshot &) const = default;
};

/// The u, v and p fields of a finished SWE-style run.
const std::vector<std::string> StateFields = {"u", "v", "p"};

Snapshot snapshot(driver::Execution &E, const driver::RunReport &Rep) {
  return {Rep.Output, Rep.json(), readFields(E, StateFields)};
}

/// Compares fields read back from an execution with \p Ref; an empty
/// string when every present field is within \p Tol. Fields fused away
/// are skipped, but at least one field must be checked.
std::string checkFields(const FieldMap &Got, const FieldMap &Ref, double Tol) {
  unsigned Checked = 0;
  for (const auto &[Name, Want] : Ref) {
    auto It = Got.find(Name);
    if (It == Got.end() || It->second.empty())
      continue;
    const std::vector<double> &Have = It->second;
    ++Checked;
    double Err = scaledError(Have, Want);
    if (Err < 0 || Err > Tol) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "field %s off by %.3g (tolerance %.1g)",
                    Name.c_str(), Err, Tol);
      return Buf;
    }
  }
  return Checked ? "" : "no field left to check";
}

/// Machine-wide state shared by the workloads: the config and the sinks a
/// traced round attaches.
class Base : public Workload {
public:
  explicit Base(const Config &C) : C(C) {}

protected:
  Config C;
  observe::TraceRecorder Trace;
  observe::MetricsRegistry Metrics;

  CompiledJob compile(const std::string &Src, const driver::CompileOptions &O,
                      RoundResult &R, bool Traced) {
    double Sec = 0, C0 = cpuNow();
    CompiledJob J = Traced ? CompiledJob::viaStages(Src, O, R.Layers,
                                                    &Metrics, Sec)
                           : CompiledJob::viaDriver(Src, O, Sec);
    R.CpuS += cpuNow() - C0;
    R.CompileS += Sec;
    if (J.ok())
      R.PeacInstructions += double(J.peacInstructions());
    if (Traced) {
      R.LayerWallUs += Sec * 1e6;
      for (const auto &S : Metrics.snapshot())
        if (S.Name == "backend.routines" ||
            S.Name == "backend.peac_instructions" ||
            S.Name == "backend.issue_slots")
          R.Layers[S.Name] += double(S.Count);
      Metrics.clear();
    }
    return J;
  }

  struct RunOut {
    std::unique_ptr<driver::Execution> Exec;
    std::optional<driver::RunReport> Report;
    double Seconds = 0;
  };

  RunOut run(const CompiledJob &J, const cm2::CostModel &Machine,
             driver::ExecutionOptions E, RoundResult &R, bool Traced) {
    if (Traced) {
      E.Trace = &Trace;
      E.Metrics = &Metrics;
      Trace.clear();
      Metrics.clear();
    }
    RunOut O;
    O.Exec = std::make_unique<driver::Execution>(Machine, E);
    const double C0 = cpuNow(), T0 = wallNow();
    O.Report = O.Exec->run(J.program());
    O.Seconds = wallNow() - T0;
    const double Cpu = cpuNow() - C0;
    R.RunS += O.Seconds;
    R.CpuS += Cpu;
    if (O.Report)
      R.SimCycles += O.Report->Ledger.total();
    if (Traced) {
      R.LayerWallUs += O.Seconds * 1e6;
      R.Layers["run.us"] += O.Seconds * 1e6;
      R.Layers["run.cpu_us"] += Cpu * 1e6;
      attributeExecution(Trace, R.Layers);
      if (O.Report)
        addRunCounters(Metrics, *O.Report, R.Layers);
      Metrics.clear();
    }
    return O;
  }

  driver::ExecutionOptions withThreads(unsigned N) const {
    driver::ExecutionOptions E;
    E.Threads = N;
    return E;
  }
};

//===----------------------------------------------------------------------===//
// swe: the paper's SWE at the E1 grid, F90Y against the CMF stand-in.
//===----------------------------------------------------------------------===//

class SweWorkload : public Base {
public:
  explicit SweWorkload(const Config &C) : Base(C) {
    N = C.Smoke ? 64 : 512;
    Steps = 2;
  }

  void prepare(Tally &T) override {
    (void)T;
    Src = driver::sweSource(N, Steps);
    Opts[0] = driver::CompileOptions::forProfile(Profile::F90Y, Machine);
    Opts[1] = driver::CompileOptions::forProfile(Profile::CMFStyle, Machine);
    Ref = sweModel(N, Steps);
    if (C.Perturb) {
      perturb(Ref.Fields);
      Ref.InitialMass *= 1 + 1e-6;
    }
  }

  void setup() override {
    for (const auto &O : Opts) {
      double S = 0;
      CompiledJob::viaDriver(Src, O, S);
    }
  }

  void onceChecks(Tally &T) override {
    (void)T;
    // Simulated statistics must not depend on the host thread count: the
    // rounds run on one thread, and a threaded run of each profile is the
    // yardstick they are held to.
    if (C.Threads == 1)
      return;
    for (int P = 0; P < 2; ++P) {
      RoundResult Scratch;
      CompiledJob J = compile(Src, Opts[P], Scratch, false);
      if (!J.ok())
        continue; // Reported by every round.
      RunOut O = run(J, Machine, withThreads(C.Threads), Scratch, false);
      if (O.Report)
        Threaded[P] = snapshot(*O.Exec, *O.Report);
    }
  }

  RoundResult round(Tally &T, bool Traced) override {
    RoundResult R;
    double Gflops[2] = {0, 0};
    for (int P = 0; P < 2; ++P) {
      const std::string What = "swe/" + std::string(Names[P]);
      CompiledJob J = compile(Src, Opts[P], R, Traced);
      if (!J.ok()) {
        T.op(false, What + ": compile: " + J.error());
        continue;
      }
      RunOut O = run(J, Machine, withThreads(1), R, Traced);
      R.Jobs += 1;
      if (!O.Report) {
        T.op(false, What + ": run: " + O.Exec->diags().str());
        continue;
      }
      Snapshot Got = snapshot(*O.Exec, *O.Report);
      std::string Err = checkFields(Got.Fields, Ref.Fields, FieldTol);
      if (Err.empty()) {
        // Mass conservation: the flux form of the continuity update
        // telescopes over the periodic grid, so sum(p) never changes.
        double Mass = 0;
        for (double X : Got.Fields["p"])
          Mass += X;
        if (!(std::abs(Mass - Ref.InitialMass) <=
              FieldTol * std::abs(Ref.InitialMass)))
          Err = "mass not conserved";
      }
      if (Err.empty() && Threaded[P] && !(*Threaded[P] == Got))
        Err = "differs from the run at " + std::to_string(C.Threads) +
              " threads";
      T.op(Err.empty(), What + ": " + Err);
      Gflops[P] = O.Report->gflopsFor(Ref.UsefulFlops);
    }
    R.SimGflops = Gflops[0];
    T.property(Gflops[0] > Gflops[1],
               "E1 ordering: F90Y GFLOPS must exceed CMF's");
    return R;
  }

private:
  static constexpr const char *Names[2] = {"f90y", "cmf"};
  int64_t N, Steps;
  std::optional<Snapshot> Threaded[2];
  std::string Src;
  cm2::CostModel Machine; // The full 2048-PE CM/2 of E1.
  driver::CompileOptions Opts[2];
  SweReference Ref;
};

//===----------------------------------------------------------------------===//
// relax-ckpt: misaligned relaxation under layout inference, plain, with
// periodic checkpoints, and resumed from a mid-run checkpoint.
//===----------------------------------------------------------------------===//

class RelaxWorkload : public Base {
public:
  explicit RelaxWorkload(const Config &C) : Base(C) {
    N = C.Smoke ? 32 : 256;
    Steps = C.Smoke ? 8 : 32;
    Every = Steps / 2;
    CkptPath = C.WorkDir + "/relax.ck";
  }

  void prepare(Tally &T) override {
    (void)T;
    Src = driver::misalignedSweSource(N, Steps);
    Opts = driver::CompileOptions::forProfile(Profile::F90Y, Machine);
    Ref = relaxModel(N, Steps);
    if (C.Perturb) {
      perturb(Ref.Fields);
      Ref.MeanP *= 1 + 1e-6;
    }
  }

  void setup() override {
    double S = 0;
    CompiledJob::viaDriver(Src, Opts, S);
  }

  void onceChecks(Tally &T) override {
    (void)T;
    // The rounds run on one thread; a threaded run of the same program is
    // the yardstick they are held to.
    if (C.Threads == 1)
      return;
    RoundResult Scratch;
    CompiledJob J = compile(Src, Opts, Scratch, false);
    if (!J.ok())
      return;
    RunOut O = run(J, Machine, withThreads(C.Threads), Scratch, false);
    if (O.Report)
      Threaded = snapshot(*O.Exec, *O.Report);
  }

  RoundResult round(Tally &T, bool Traced) override {
    RoundResult R;
    CompiledJob J = compile(Src, Opts, R, Traced);
    if (!J.ok()) {
      for (const char *Leg : {"plain", "checkpointing", "restored"})
        T.op(false, std::string("relax/") + Leg + ": compile: " + J.error());
      return R;
    }
    // Uninterrupted.
    RunOut Plain = run(J, Machine, withThreads(1), R, Traced);
    R.Jobs += 1;
    std::optional<Snapshot> Want;
    std::string Err;
    if (Plain.Report) {
      Want = snapshot(*Plain.Exec, *Plain.Report);
      Err = checkFields(Want->Fields, Ref.Fields, FieldTol);
      double Mean = printedValue(Want->Output, "mean p:");
      if (Err.empty() && !(std::abs(Mean - Ref.MeanP) <=
                           FieldTol * std::abs(Ref.MeanP)))
        Err = "printed mean p differs from the model";
      if (Err.empty() && Threaded && !(*Threaded == *Want))
        Err = "differs from the run at " + std::to_string(C.Threads) +
              " threads";
      R.SimGflops = Plain.Report->gflopsFor(Ref.UsefulFlops);
    } else {
      Err = "run: " + Plain.Exec->diags().str();
    }
    T.op(Err.empty(), "relax/plain: " + Err);

    // The other two legs must equal the uninterrupted run bit for bit.
    auto sameAsPlain = [&](RunOut &O) -> std::string {
      if (!O.Report)
        return "run: " + O.Exec->diags().str();
      if (!Want)
        return "no uninterrupted run to compare with";
      return snapshot(*O.Exec, *O.Report) == *Want ? "" : "differs from the "
                                                          "uninterrupted run";
    };

    // Checkpoint at the half-way step and at the end; generations
    // rotate, so after the run <path>.1 holds the half-way checkpoint.
    for (const char *Suffix : {"", ".1", ".2"})
      std::filesystem::remove(CkptPath + Suffix);
    driver::ExecutionOptions EC = withThreads(1);
    EC.Checkpoint.Path = CkptPath;
    EC.Checkpoint.Every = uint64_t(Every);
    RunOut Ck = run(J, Machine, EC, R, Traced);
    R.Jobs += 1;
    Err = sameAsPlain(Ck);
    if (Err.empty() &&
        Ck.Exec->checkpoint()->writesCompleted() != uint64_t(Steps / Every))
      Err = "expected " + std::to_string(Steps / Every) + " checkpoints";
    T.op(Err.empty(), "relax/checkpointing: " + Err);

    // Resumed from the half-way checkpoint.
    driver::ExecutionOptions ER = withThreads(1);
    ER.Checkpoint.RestorePath = CkptPath + ".1";
    RunOut Re = run(J, Machine, ER, R, Traced);
    R.Jobs += 1;
    R.RestoreS += Re.Seconds;
    Err = sameAsPlain(Re);
    T.op(Err.empty(), "relax/restored: " + Err);
    return R;
  }

private:
  int64_t N, Steps, Every;
  std::optional<Snapshot> Threaded;
  std::string Src, CkptPath;
  cm2::CostModel Machine;
  driver::CompileOptions Opts;
  RelaxReference Ref;
};

//===----------------------------------------------------------------------===//
// corpus: generated programs, one by one, on one thread, under every
// profile and the fuse/layout variants.
//===----------------------------------------------------------------------===//

/// A compile configuration spelled the way f90yc would take it.
struct Variant {
  const char *Name;
  Profile Prof;
  int Fuse;   ///< -1: the profile's default; 0 off; 1 on.
  int Layout; ///< -1: the profile's default; 0 canonical; 1 infer.
};

const Variant CorpusVariants[] = {
    {"f90y", Profile::F90Y, -1, -1},
    {"cmf", Profile::CMFStyle, -1, -1},
    {"naive", Profile::Naive, -1, -1},
    {"f90y-nofuse", Profile::F90Y, 0, -1},
    {"f90y-canonical", Profile::F90Y, -1, 0},
};

/// f90yc's option mapping: the profile, then communication scheduling
/// (its -comm=overlap default), then -fuse=/-layout= only when given.
driver::CompileOptions f90ycOptions(Profile P, int Fuse, int Layout,
                                    const cm2::CostModel &Machine) {
  driver::CompileOptions O = driver::CompileOptions::forProfile(P, Machine);
  O.Transforms.CommSchedule = true;
  if (Fuse >= 0)
    O.Transforms.Fusion = Fuse == 1;
  if (Layout >= 0)
    O.Transforms.Layout = Layout == 1;
  return O;
}

driver::ExecutionOptions f90ycExecution() {
  driver::ExecutionOptions E;
  E.Threads = 1;
  E.OverlapComm = true;
  return E;
}

/// Checks one corpus program's execution against its generator.
std::string checkCorpus(driver::Execution &E, const driver::RunReport &Rep,
                        const CorpusProgram &P) {
  FieldMap Got;
  for (const auto &[Name, V] : P.Expected)
    Got[Name] = logicalField(E, Name);
  std::string Err = checkFields(Got, P.Expected, CorpusTol);
  if (!Err.empty())
    return Err;
  double Sum = printedValue(Rep.Output, "sum:");
  if (!(std::abs(Sum - P.PrintedSum) <= CorpusTol * P.SumScale))
    return "printed sum differs from the model";
  return "";
}

class CorpusWorkload : public Base {
public:
  explicit CorpusWorkload(const Config &C) : Base(C) {
    Count = C.Smoke ? 3 : 12;
  }

  void prepare(Tally &T) override {
    (void)T;
    Progs = generateCorpus(C.Seed, Count, C.Smoke);
    if (C.Perturb)
      for (CorpusProgram &P : Progs) {
        perturb(P.Expected);
        P.PrintedSum += 1e-6 * P.SumScale;
      }
  }

  void setup() override {
    for (const CorpusProgram &P : Progs)
      for (const Variant &V : CorpusVariants) {
        double S = 0;
        CompiledJob::viaDriver(P.Source,
                               f90ycOptions(V.Prof, V.Fuse, V.Layout, Machine),
                               S);
      }
  }

  RoundResult round(Tally &T, bool Traced) override {
    RoundResult R;
    double Flops = 0, SimSeconds = 0;
    for (const CorpusProgram &P : Progs)
      for (const Variant &V : CorpusVariants) {
        const std::string What = "corpus/" + P.Name + "/" + V.Name;
        CompiledJob J = compile(
            P.Source, f90ycOptions(V.Prof, V.Fuse, V.Layout, Machine), R,
            Traced);
        if (!J.ok()) {
          T.op(false, What + ": compile: " + J.error());
          continue;
        }
        RunOut O = run(J, Machine, f90ycExecution(), R, Traced);
        R.Jobs += 1;
        if (!O.Report) {
          T.op(false, What + ": run: " + O.Exec->diags().str());
          continue;
        }
        std::string Err = checkCorpus(*O.Exec, *O.Report, P);
        T.op(Err.empty(), What + ": " + Err);
        if (V.Prof == Profile::F90Y && V.Fuse < 0 && V.Layout < 0) {
          Flops += double(P.UsefulFlops);
          SimSeconds += O.Report->seconds();
        }
      }
    R.SimGflops = SimSeconds > 0 ? Flops / SimSeconds / 1e9 : 0;
    return R;
  }

private:
  unsigned Count;
  cm2::CostModel Machine;
  std::vector<CorpusProgram> Progs;
};

//===----------------------------------------------------------------------===//
// serve: a repeating manifest through serve::runBatch with a shared cache.
//===----------------------------------------------------------------------===//

class ServeWorkload : public Base {
public:
  explicit ServeWorkload(const Config &C) : Base(C) {
    Subset = C.Smoke ? 2 : 12;
    ExampleDir = C.RepoRoot + "/examples/programs";
  }

  void prepare(Tally &T) override {
    buildManifest();
    // The reference for each distinct job: the driver API, configured the
    // way f90yc configures the same flags, on one thread.
    for (Meta &M : Jobs) {
      auto It = Refs.find(M.Key);
      if (It == Refs.end()) {
        Ref X;
        double S = 0;
        CompiledJob J = CompiledJob::viaDriver(
            M.Source, f90ycOptions(M.Prof, M.Fuse, M.Layout, Machine), S);
        X.Peac = J.peacInstructions();
        if (J.ok()) {
          driver::Execution E(Machine, f90ycExecution());
          if (auto Rep = E.run(J.program())) {
            X.Ok = true;
            X.Output = Rep->Output;
            X.Json = Rep->json();
            // The API run itself must match the generator's model.
            if (M.Corpus >= 0)
              T.property(checkCorpus(E, *Rep, Progs[size_t(M.Corpus)])
                             .empty(),
                         "serve reference " + M.Id +
                             " agrees with the corpus model");
          }
        }
        T.property(X.Ok, "serve reference " + M.Id + " runs");
        if (C.Perturb)
          X.Output += "~";
        It = Refs.emplace(M.Key, std::move(X)).first;
      }
      M.Reference = &It->second;
    }
  }

  void setup() override {
    Specs = serve::parseManifest(Manifest, ExampleDir);
    std::set<std::string> Seen;
    for (const Meta &M : Jobs)
      if (Seen.insert(M.Key).second) {
        double S = 0;
        CompiledJob::viaDriver(
            M.Source, f90ycOptions(M.Prof, M.Fuse, M.Layout, Machine), S);
      }
  }

  RoundResult round(Tally &T, bool Traced) override {
    RoundResult R;
    serve::ArtifactCache Cache;
    serve::ServeOptions O;
    O.Workers = C.Threads;
    O.Cache = &Cache;
    if (Traced) {
      Trace.clear();
      O.Trace = &Trace;
    }
    // First submission (cold cache), then the same batch again (warm).
    const double C0 = cpuNow(), T0 = wallNow();
    serve::BatchResult Cold = serve::runBatch(Specs, O);
    const double T1 = wallNow();
    serve::BatchResult Warm = serve::runBatch(Specs, O);
    const double T2 = wallNow(), Cpu = cpuNow() - C0;
    // serve compiles inside its workers, out of reach of a timer here, so
    // its compile_s is the cold batch: a first submission, every distinct
    // program compiled once. run_s is the warm batch: runs only.
    R.CompileS = T1 - T0;
    R.RunS = T2 - T1;
    R.CpuS = Cpu;
    R.Jobs = double(Cold.Records.size() + Warm.Records.size());

    double Flops = 0, SimSeconds = 0;
    for (const serve::BatchResult *B : {&Cold, &Warm})
      for (size_t I = 0; I < B->Records.size(); ++I) {
        const serve::JobRecord &Rec = B->Records[I];
        const Meta &M = Jobs[I];
        std::string Err;
        if (Rec.Status != serve::JobStatus::Ok)
          Err = std::string("status ") + serve::jobStatusName(Rec.Status) +
                ": " + Rec.Error;
        else if (Rec.Output != M.Reference->Output)
          Err = "output differs from the driver API";
        else if (Rec.Report.json() != M.Reference->Json)
          Err = "run report differs from the driver API";
        T.op(Err.empty(), "serve/" + Rec.Id + ": " + Err, M.KnownFault);
        if (B == &Cold && Rec.HasReport) {
          R.SimCycles += Rec.Report.Ledger.total();
          Flops += double(Rec.Report.Ledger.Flops);
          SimSeconds += Rec.Report.seconds();
        }
        if (B == &Cold)
          R.PeacInstructions += double(M.Reference->Peac);
      }
    R.SimGflops = SimSeconds > 0 ? Flops / SimSeconds / 1e9 : 0;

    if (Traced) {
      namespace js = observe::json;
      js::Value Doc;
      std::string E;
      if (js::parse(Trace.exportJson(), Doc, E))
        if (const js::Value *Ev = Doc.get("traceEvents"))
          for (const js::Value &X : Ev->Arr)
            if (X.strOr("name", "") == "serve.batch")
              R.Layers["serve.batch_us"] += X.numOr("dur", 0);
      Trace.clear();
      double Hits = double(Cold.CacheHits + Warm.CacheHits);
      double Misses = double(Cold.CacheMisses + Warm.CacheMisses);
      R.Layers["serve.cache.hits"] = Hits;
      R.Layers["serve.cache.misses"] = Misses;
      R.Layers["serve.cache.hit_ratio"] =
          Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
      double ColdCompiles = 0;
      for (const serve::BatchResult *B : {&Cold, &Warm})
        for (const serve::JobRecord &Rec : B->Records)
          ColdCompiles += std::string(Rec.Compile) == "cold";
      R.Layers["serve.cold_compiles"] = ColdCompiles;
      R.Layers["run.us"] = (T2 - T0) * 1e6;
      R.Layers["run.cpu_us"] = Cpu * 1e6;
      R.LayerWallUs = (T2 - T0) * 1e6;
    }
    return R;
  }

private:
  struct Ref {
    bool Ok = false;
    std::string Output, Json;
    uint64_t Peac = 0;
  };
  /// One manifest line as f90yc would be asked to run it.
  struct Meta {
    std::string Id, Source, Key;
    Profile Prof = Profile::F90Y;
    int Fuse = -1, Layout = -1;
    int Corpus = -1;         ///< Index into Progs, or -1 for an example.
    bool KnownFault = false; ///< cmf/naive with the defaults left to serve.
    const Ref *Reference = nullptr;
  };

  unsigned Subset;
  std::string ExampleDir, Manifest;
  cm2::CostModel Machine;
  std::vector<CorpusProgram> Progs;
  std::vector<Meta> Jobs;
  std::map<std::string, Ref> Refs;
  std::vector<serve::JobSpec> Specs;

  static const char *profileName(Profile P) {
    return P == Profile::F90Y ? "f90y" : P == Profile::CMFStyle ? "cmf"
                                                                : "naive";
  }

  void add(Meta M, const std::string &SourceKey) {
    namespace js = observe::json;
    M.Id += "-" + std::to_string(Jobs.size());
    M.Key = std::string(profileName(M.Prof)) + "/" + std::to_string(M.Fuse) +
            "/" + std::to_string(M.Layout) + "/" + M.Source;
    std::string Line = "{\"id\":" + js::quote(M.Id) + "," + SourceKey;
    if (M.Prof != Profile::F90Y)
      Line += ",\"profile\":" + js::quote(profileName(M.Prof));
    if (M.Fuse >= 0)
      Line += std::string(",\"fuse\":") + (M.Fuse ? "\"on\"" : "\"off\"");
    if (M.Layout >= 0)
      Line += std::string(",\"layout\":") +
              (M.Layout ? "\"infer\"" : "\"canonical\"");
    Manifest += Line + "}\n";
    M.KnownFault = M.Prof != Profile::F90Y && (M.Fuse < 0 || M.Layout < 0);
    Jobs.push_back(std::move(M));
  }

  void buildManifest() {
    namespace js = observe::json;
    Manifest.clear();
    Jobs.clear();
    Progs = generateCorpus(C.Seed, Subset, C.Smoke);
    // The example programs, by path, each submitted twice under the
    // default profile. mswe.f90 is also submitted under cmf and naive
    // with fuse/layout left unset: those two jobs hit the known fault
    // (serve applies its own fuse/layout defaults over the profile's).
    std::vector<std::string> Files;
    for (const auto &E : std::filesystem::directory_iterator(ExampleDir))
      if (E.path().extension() == ".f90")
        Files.push_back(E.path().filename().string());
    std::sort(Files.begin(), Files.end());
    for (const std::string &F : Files) {
      std::ifstream In(ExampleDir + "/" + F);
      std::stringstream Buf;
      Buf << In.rdbuf();
      Meta M;
      M.Id = "ex-" + F.substr(0, F.size() - 4);
      M.Source = Buf.str();
      const std::string Key = "\"source_path\":" + js::quote(F);
      add(M, Key);
      add(M, Key);
      if (F == "mswe.f90")
        for (Profile P : {Profile::CMFStyle, Profile::Naive}) {
          Meta K = M;
          K.Prof = P;
          add(K, Key);
        }
    }
    // A seeded subset of the corpus, inline: twice under the default
    // profile, and once each under cmf and naive with fuse and layout
    // spelled out (which serve honours).
    for (size_t I = 0; I < Progs.size(); ++I) {
      Meta M;
      M.Id = Progs[I].Name;
      M.Source = Progs[I].Source;
      M.Corpus = int(I);
      const std::string Key = "\"source\":" + js::quote(M.Source);
      add(M, Key);
      add(M, Key);
      for (Profile P : {Profile::CMFStyle, Profile::Naive}) {
        Meta K = M;
        K.Prof = P;
        K.Fuse = 0;
        K.Layout = 0;
        add(K, Key);
      }
    }
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const Config &C) {
  if (C.Workload == "swe")
    return std::make_unique<SweWorkload>(C);
  if (C.Workload == "relax-ckpt")
    return std::make_unique<RelaxWorkload>(C);
  if (C.Workload == "corpus")
    return std::make_unique<CorpusWorkload>(C);
  if (C.Workload == "serve")
    return std::make_unique<ServeWorkload>(C);
  return nullptr;
}
