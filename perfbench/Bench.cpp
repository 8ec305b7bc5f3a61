//===- perfbench/Bench.cpp - shared benchmark machinery ------------------===//
//
// Part of the Fortran-90-Y reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "backend/Backend.h"
#include "frontend/AST.h"
#include "frontend/Inline.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "layout/Materialize.h"
#include "lower/Lowering.h"
#include "nir/NIRContext.h"
#include "nir/Verifier.h"
#include "observe/Json.h"
#include "transform/Transforms.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <optional>
#include <sys/resource.h>

using namespace f90y;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Tally, clocks
//===----------------------------------------------------------------------===//

void Tally::note(const std::string &S) {
  if (Notes.size() < 8)
    Notes.push_back(S);
}

void Tally::op(bool Ok, const std::string &What, bool KnownFault) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (!KnownFault) {
    Correct = false;
    note("failed: " + What);
  }
}

void Tally::property(bool Ok, const std::string &What) {
  if (!Ok) {
    Correct = false;
    note("property violated: " + What);
  }
}

double perfbench::wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::cpuNow() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // Linux reports KiB.
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : 0.5 * (V[H - 1] + V[H]);
}

std::vector<double> perfbench::logicalField(driver::Execution &E,
                                            const std::string &Name) {
  std::vector<double> Out;
  int Handle = E.executor().fieldHandle(Name);
  if (Handle < 0)
    return Out;
  const runtime::PeArray &F = E.runtime().field(Handle);
  const std::vector<int64_t> &Ext = F.Geo->Extents;
  std::vector<int64_t> Pos(Ext.size(), 0);
  bool Done = F.Geo->totalElements() == 0;
  while (!Done) {
    Out.push_back(E.runtime().readElement(Handle, Pos));
    size_t K = Pos.size();
    Done = true;
    while (K-- > 0) {
      if (++Pos[K] < Ext[K]) {
        Done = false;
        break;
      }
      Pos[K] = 0;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Compiling a job
//===----------------------------------------------------------------------===//

struct CompiledJob::Stages {
  DiagnosticEngine Diags;
  frontend::ast::ASTContext ACtx;
  nir::NIRContext NCtx;
  driver::CompileOptions Opts;
  std::optional<backend::CompiledProgram> Compiled;
};

CompiledJob::CompiledJob() = default;
CompiledJob::~CompiledJob() = default;
CompiledJob::CompiledJob(CompiledJob &&) noexcept = default;
CompiledJob &CompiledJob::operator=(CompiledJob &&) noexcept = default;

uint64_t CompiledJob::peacInstructions() const {
  uint64_t N = 0;
  if (Program)
    for (const peac::Routine &R : Program->Routines)
      N += R.bodyInstructionCount();
  return N;
}

CompiledJob CompiledJob::viaDriver(const std::string &Source,
                                   const driver::CompileOptions &Opts,
                                   double &Seconds) {
  CompiledJob J;
  J.Comp = std::make_unique<driver::Compilation>(Opts);
  double T0 = wallNow();
  bool Ok = J.Comp->compile(Source);
  Seconds = wallNow() - T0;
  if (Ok)
    J.Program = &J.Comp->artifacts().Compiled.Program;
  else
    J.Error = J.Comp->diags().str();
  return J;
}

CompiledJob CompiledJob::viaStages(const std::string &Source,
                                   const driver::CompileOptions &Opts,
                                   LayerMap &Layers,
                                   observe::MetricsRegistry *Metrics,
                                   double &Seconds) {
  CompiledJob J;
  J.Staged = std::make_unique<Stages>();
  Stages &S = *J.Staged;
  S.Opts = Opts;
  S.Opts.Transforms.Costs = &S.Opts.Costs;
  S.Opts.Backend.Metrics = Metrics;
  const transform::TransformOptions &TO = S.Opts.Transforms;

  // Times one stage call into Layers[Key] (microseconds).
  auto timed = [&Layers](const char *Key, auto &&Call) {
    double T0 = wallNow();
    auto R = Call();
    Layers[Key] += (wallNow() - T0) * 1e6;
    return R;
  };
  const double Start = wallNow();
  auto fail = [&]() {
    Seconds = wallNow() - Start;
    J.Error = S.Diags.str();
    return std::move(J);
  };

  frontend::Lexer Lex(Source, S.Diags);
  std::vector<frontend::Token> Tokens =
      timed("frontend.lex_us", [&] { return Lex.lexAll(); });
  Layers["frontend.tokens"] += double(Tokens.size());
  frontend::Parser Parse(std::move(Tokens), S.ACtx, S.Diags);
  auto File =
      timed("frontend.parse_us", [&] { return Parse.parseSourceFile(); });
  if (!File)
    return fail();
  auto Unit = timed("frontend.integrate_us", [&] {
    return frontend::integrateProcedures(*File, S.ACtx, S.Diags);
  });
  if (!Unit)
    return fail();
  auto Lowered = timed("lower.us", [&] {
    return lower::lowerProgram(*Unit, S.NCtx, S.Diags);
  });
  if (!Lowered)
    return fail();

  // transform::optimize's pipeline, one public pass function at a time.
  const nir::Imp *I = Lowered->Program;
  unsigned ErrorsBefore = S.Diags.errorCount();
  transform::FusionStats FS;
  layout::LayoutStats LS;
  if (TO.ExtractComm)
    I = timed("transform.extract-comm_us",
              [&] { return transform::extractComm(I, S.NCtx, S.Diags); });
  if (TO.MaskSections)
    I = timed("transform.mask-sections_us",
              [&] { return transform::maskSections(I, S.NCtx, S.Diags); });
  if (TO.Fusion)
    I = timed("transform.fuse_us", [&] {
      return transform::fuseElementwise(I, S.NCtx, S.Diags, &FS);
    });
  if (TO.Layout)
    I = timed("transform.layout_us", [&] {
      return layout::materializeLayout(I, S.NCtx, S.Diags, TO.Costs, &LS);
    });
  if (TO.Blocking)
    I = timed("transform.block-domains_us",
              [&] { return transform::blockDomains(I, S.NCtx, S.Diags); });
  if (TO.CommSchedule)
    I = timed("transform.comm-schedule_us",
              [&] { return transform::commSchedule(I, S.NCtx, S.Diags); });
  if (S.Diags.errorCount() != ErrorsBefore)
    return fail();
  const auto *Optimized = cast<nir::ProgramImp>(I);
  nir::VerifyOptions VOpts;
  VOpts.CanonicalComm = TO.ExtractComm;
  VOpts.LayoutConsistency = TO.Layout;
  bool Verified = timed("transform.verify_us", [&] {
    return nir::verify(Optimized, S.Diags, VOpts);
  });
  if (!Verified)
    return fail();
  S.Compiled = timed("backend.us", [&] {
    return backend::compileProgram(Optimized, S.Opts.Backend, S.Diags);
  });
  if (!S.Compiled)
    return fail();
  Seconds = wallNow() - Start;

  Layers["lower.move_clauses"] +=
      transform::countPhases(Lowered->Program).MoveClauses;
  Layers["transform.move_clauses"] +=
      transform::countPhases(Optimized).MoveClauses;
  Layers["fuse.moves_fused"] += FS.MovesFused;
  Layers["layout.comm_moves_localized"] += LS.CommMovesLocalized;
  J.Program = &S.Compiled->Program;
  return J;
}

//===----------------------------------------------------------------------===//
// Execution sub-layers
//===----------------------------------------------------------------------===//

namespace {

/// The comm kind a runtime op name reports under.
std::string commKind(const std::string &Op) {
  if (Op == "cshift" || Op == "multi-shift")
    return Op;
  if (Op == "reduce" || Op == "reduce-dim")
    return "reduce";
  return "other";
}

} // namespace

void perfbench::attributeExecution(observe::TraceRecorder &Trace,
                                   LayerMap &Layers) {
  namespace js = observe::json;
  js::Value Doc;
  std::string Err;
  const js::Value *Events = nullptr;
  if (js::parse(Trace.exportJson(), Doc, Err))
    Events = Doc.get("traceEvents");
  Trace.clear();
  if (!Events || !Events->isArray())
    return;

  double Execute = 0, PoolUs = 0, CkptWrite = 0, PendingPool = 0;
  double PoolJobs = 0;
  for (const js::Value &E : Events->Arr) {
    const std::string Ph = E.strOr("ph", "");
    if (Ph != "X")
      continue;
    const std::string Name = E.strOr("name", "");
    const std::string Cat = E.strOr("cat", "");
    const double Dur = E.numOr("dur", 0);
    if (E.numOr("pid", 0) == 1) { // Host wall clock.
      if (Name == "execute")
        Execute += Dur;
      else if (Name == "parallel-for") {
        PendingPool += Dur;
        PoolUs += Dur;
        ++PoolJobs;
      } else if (Name == "ckpt.write") {
        // Counted from spans: a resumed run's counters also carry the
        // writes of the run that took its checkpoint.
        CkptWrite += Dur;
        Layers["ckpt.writes"] += 1;
        if (const js::Value *A = E.get("args"))
          Layers["ckpt.write_bytes"] += A->numOr("bytes", 0);
      } else if (Name == "ckpt.restore.load")
        Layers["ckpt.restore_us"] += Dur;
      continue;
    }
    // Simulated cycles: the op that owns the pending parallel-for time.
    if (Cat == "peac") {
      Layers["peac.dispatch_us"] += PendingPool;
      PendingPool = 0;
    } else if (Cat == "comm") {
      std::string K = commKind(Name);
      Layers["comm." + K + "_us"] += PendingPool;
      Layers["comm." + K + ".ops"] += 1;
      PendingPool = 0;
    }
  }
  Layers["comm.other_us"] += PendingPool; // Sweeps no op claimed.
  Layers["ckpt.write_us"] += CkptWrite;
  Layers["pool.jobs"] += PoolJobs;
  Layers["pool.busy_us"] += PoolUs;
  Layers["host.self_us"] += std::max(0.0, Execute - PoolUs - CkptWrite);
}

void perfbench::addRunCounters(observe::MetricsRegistry &Metrics,
                               const driver::RunReport &Report,
                               LayerMap &Layers) {
  for (const auto &S : Metrics.snapshot()) {
    const std::string &N = S.Name;
    auto EndsWith = [&N](const char *Suffix) {
      std::string X(Suffix);
      return N.size() > X.size() &&
             N.compare(N.size() - X.size(), X.size(), X) == 0;
    };
    const double C = double(S.Count);
    if (N == "exec.statements")
      Layers["host.statements"] += C;
    else if (N == "peac.dispatches")
      Layers["peac.dispatches"] += C;
    else if (N == "peac.engine.cache.misses")
      Layers["peac.engine.cache.misses"] += C;
    else if (N == "comm.coalesced")
      Layers["comm.coalesced"] += C;
    else if (N.rfind("comm.", 0) == 0 && EndsWith(".bytes"))
      Layers["comm.bytes"] += C;
    else if (N.rfind("comm.", 0) == 0 && EndsWith(".hops"))
      Layers["comm.hops"] += C;
  }
  Metrics.clear();
  const runtime::CycleLedger &L = Report.Ledger;
  Layers["sim.node_cycles"] += L.NodeCycles;
  Layers["sim.call_cycles"] += L.CallCycles;
  Layers["sim.comm_cycles"] += L.CommCycles;
  Layers["sim.overlapped_cycles"] += L.OverlappedCycles;
  Layers["sim.total_cycles"] += L.total();
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::layerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"frontend.lex_us", "us"},
      {"frontend.parse_us", "us"},
      {"frontend.integrate_us", "us"},
      {"frontend.tokens", "count"},
      {"lower.us", "us"},
      {"lower.move_clauses", "count"},
      {"transform.extract-comm_us", "us"},
      {"transform.mask-sections_us", "us"},
      {"transform.fuse_us", "us"},
      {"transform.layout_us", "us"},
      {"transform.block-domains_us", "us"},
      {"transform.comm-schedule_us", "us"},
      {"transform.verify_us", "us"},
      {"transform.move_clauses", "count"},
      {"fuse.moves_fused", "count"},
      {"layout.comm_moves_localized", "count"},
      {"comm.coalesced", "count"},
      {"backend.us", "us"},
      {"backend.routines", "count"},
      {"backend.peac_instructions", "count"},
      {"backend.issue_slots", "count"},
      {"host.statements", "count"},
      {"host.self_us", "us"},
      {"peac.dispatch_us", "us"},
      {"peac.dispatches", "count"},
      {"peac.engine.cache.misses", "count"},
      {"sim.node_cycles", "cycles"},
      {"sim.call_cycles", "cycles"},
      {"comm.cshift_us", "us"},
      {"comm.cshift.ops", "count"},
      {"comm.multi-shift_us", "us"},
      {"comm.multi-shift.ops", "count"},
      {"comm.reduce_us", "us"},
      {"comm.reduce.ops", "count"},
      {"comm.other_us", "us"},
      {"comm.other.ops", "count"},
      {"comm.bytes", "bytes"},
      {"comm.hops", "count"},
      {"sim.comm_cycles", "cycles"},
      {"sim.overlapped_cycles", "cycles"},
      {"exec.us_per_kcycle", "us/kcycle"},
      {"ckpt.write_us", "us"},
      {"ckpt.writes", "count"},
      {"ckpt.write_bytes", "bytes"},
      {"ckpt.restore_us", "us"},
      {"pool.jobs", "count"},
      {"pool.busy_us", "us"},
      {"pool.cpu_per_wall", "ratio"},
      {"serve.batch_us", "us"},
      {"serve.cache.hits", "count"},
      {"serve.cache.misses", "count"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.cold_compiles", "count"},
      {"observe.trace_overhead", "ratio"},
      {"reconcile.layer_share", "ratio"},
  };
  return M;
}

const std::vector<std::string> &perfbench::selfTimeLayers() {
  static const std::vector<std::string> L = {
      "frontend.lex_us",           "frontend.parse_us",
      "frontend.integrate_us",     "lower.us",
      "transform.extract-comm_us", "transform.mask-sections_us",
      "transform.fuse_us",         "transform.layout_us",
      "transform.block-domains_us", "transform.comm-schedule_us",
      "transform.verify_us",       "backend.us",
      "host.self_us",              "peac.dispatch_us",
      "comm.cshift_us",            "comm.multi-shift_us",
      "comm.reduce_us",            "comm.other_us",
      "ckpt.write_us",             "ckpt.restore_us",
      "serve.batch_us",
  };
  return L;
}
