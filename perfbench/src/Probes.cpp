//===- perfbench/src/Probes.cpp - Per-layer probes of the traced run ----===//
///
/// \file
/// Each probe calls one layer's public functions from outside, inside a
/// span, over the data the traced repetition produced: the workload's own
/// command lines, (features, ideal strategy) pairs, methods, checkpoints
/// and request/response payloads.  The per-layer metrics are read back
/// from the spans.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "server/Protocol.h"
#include "server/StoreGateway.h"
#include "vm/AOS.h"
#include "vm/Engine.h"
#include "vm/jit/Compiler.h"
#include "xicl/Spec.h"
#include "xicl/Translator.h"

#include <filesystem>

#include <sys/socket.h>
#include <unistd.h>

using namespace evm;
using namespace perfbench;

namespace {

double totalMs(const SpanLog &Log, const char *Name) {
  std::vector<double> D = Log.durations(Name);
  double Sum = 0;
  for (double X : D)
    Sum += X;
  return Sum / 1e6;
}

double meanUs(const SpanLog &Log, const char *Name) {
  return meanOf(Log.durations(Name)) / 1e3;
}

double meanMs(const SpanLog &Log, const char *Name) {
  return meanOf(Log.durations(Name)) / 1e6;
}

/// Counts from the traced repetition's own RunResults.
void countVm(const AppList &Apps, const std::vector<RunRecord> &Runs,
             Outcome &Out) {
  uint64_t Baseline = 0, All = 0, VCycles = 0, Compiles = 0, Used = 0;
  std::vector<uint64_t> AppBaseline(Apps.size()), AppAll(Apps.size());
  std::vector<double> Acc;
  for (const RunRecord &R : Runs) {
    for (const vm::MethodStats &M : R.R.Result.PerMethod)
      for (int L = 0; L != vm::NumOptLevels; ++L) {
        AppAll[R.App] += M.CyclesByLevel[L];
        if (L == vm::levelIndex(vm::OptLevel::Baseline))
          AppBaseline[R.App] += M.CyclesByLevel[L];
      }
    VCycles += R.R.Result.Cycles;
    Compiles += R.R.Result.Metrics.counter("engine.compiles.total");
    Used += R.R.UsedPrediction ? 1 : 0;
    if (R.R.HadPrediction)
      Acc.push_back(R.R.Accuracy);
  }
  for (size_t A = 0; A != Apps.size(); ++A) {
    Baseline += AppBaseline[A];
    All += AppAll[A];
    if (AppAll[A])
      Out.Detail["baseline_share." + Apps[A]->Name] =
          static_cast<double>(AppBaseline[A]) /
          static_cast<double>(AppAll[A]);
  }
  Out.set("vm.baseline_share",
          All ? static_cast<double>(Baseline) / static_cast<double>(All) : 0,
          "ratio");
  Out.set("vm.vcycles", static_cast<double>(VCycles), "cycles");
  Out.set("jit.compiles", static_cast<double>(Compiles), "count");
  Out.set("evolve.used_prediction_frac",
          Runs.empty() ? 0
                       : static_cast<double>(Used) /
                             static_cast<double>(Runs.size()),
          "ratio");
  Out.set("evolve.accuracy_mean", meanOf(Acc), "ratio");
}

/// buildFVector over every command line of the stream.
void probeXicl(const AppList &Apps, const std::vector<RunRecord> &Runs,
               SpanLog &Log, Outcome &Out) {
  std::vector<std::unique_ptr<xicl::XICLTranslator>> Ts;
  for (const auto &A : Apps) {
    auto Spec = xicl::parseSpec(A->W.XiclSpec);
    if (!Spec) {
      Out.fail(A->Name + ": XICL spec does not parse");
      Ts.push_back(nullptr);
      continue;
    }
    Ts.push_back(std::make_unique<xicl::XICLTranslator>(
        Spec.takeValue(), &A->Registry, &A->Files));
  }
  for (const RunRecord &R : Runs) {
    xicl::XICLTranslator *T = Ts[R.App].get();
    if (!T)
      continue;
    const std::string &Cmd = Apps[R.App]->W.Inputs[R.Input].CommandLine;
    bool Ok;
    {
      Scope Sp(Log, "xicl.buildFVector");
      Ok = static_cast<bool>(T->buildFVector(Cmd));
    }
    if (!Ok)
      Out.fail(Apps[R.App]->Name + ": buildFVector failed on " + Cmd);
  }
  Out.set("xicl.us_per_fvector", meanUs(Log, "xicl.buildFVector"), "us");
}

/// Replays the stream's (features, ideal) pairs through a fresh
/// ModelBuilder per app: predict, then addRun + rebuild, as runOnce does.
void probeMl(const AppList &Apps, const std::vector<RunRecord> &Runs,
             SpanLog &Log, Outcome &Out) {
  std::vector<std::unique_ptr<evolve::ModelBuilder>> MBs;
  for (const auto &A : Apps)
    MBs.push_back(std::make_unique<evolve::ModelBuilder>(
        A->W.Module.numFunctions(), evolveConfig().TreeParams));
  uint64_t Rows = 0;
  for (const RunRecord &R : Runs) {
    evolve::ModelBuilder &MB = *MBs[R.App];
    if (MB.built()) {
      Scope Sp(Log, "ml.predict");
      MB.predict(R.R.Features);
    }
    Scope Sp(Log, "ml.rebuild");
    MB.addRun(R.R.Features, R.R.Ideal);
    MB.rebuild();
    ++Rows;
  }
  Out.set("ml.rebuild_ms_total", totalMs(Log, "ml.rebuild"), "ms");
  Out.set("ml.rebuild_ms_p95",
          percentile(Log.durations("ml.rebuild"), 95) / 1e6, "ms");
  Out.set("ml.rows", static_cast<double>(Rows), "count");
  Out.set("ml.predict_us", meanUs(Log, "ml.predict"), "us");
}

/// compileAtLevel over every method of every app at O0, O1 and O2.
void probeJit(const AppList &Apps, SpanLog &Log, Outcome &Out) {
  static const std::pair<vm::OptLevel, const char *> Levels[] = {
      {vm::OptLevel::O0, "jit.compile.O0"},
      {vm::OptLevel::O1, "jit.compile.O1"},
      {vm::OptLevel::O2, "jit.compile.O2"}};
  for (const auto &A : Apps)
    for (bc::MethodId Id = 0; Id != A->W.Module.numFunctions(); ++Id)
      for (const auto &[Level, Name] : Levels) {
        Scope Sp(Log, Name);
        vm::jit::compileAtLevel(A->W.Module, Id, Level);
      }
  Out.set("jit.us_per_compile.O0", meanUs(Log, "jit.compile.O0"), "us");
  Out.set("jit.us_per_compile.O1", meanUs(Log, "jit.compile.O1"), "us");
  Out.set("jit.us_per_compile.O2", meanUs(Log, "jit.compile.O2"), "us");
}

/// ExecutionEngine::run on each app's cheapest input of the stream, under
/// three configurations: every method pinned at O2, the default adaptive
/// policy, and no policy (everything stays at Baseline).
void probeVm(const AppList &Apps, const std::vector<RunRecord> &Runs,
             SpanLog &Log, Outcome &Out) {
  std::vector<size_t> Cheapest(Apps.size(), SIZE_MAX);
  std::vector<uint64_t> CheapestCycles(Apps.size(), UINT64_MAX);
  for (const RunRecord &R : Runs)
    if (R.R.Result.Cycles < CheapestCycles[R.App]) {
      CheapestCycles[R.App] = R.R.Result.Cycles;
      Cheapest[R.App] = R.Input;
    }
  vm::TimingModel TM = evolveConfig().Timing;
  uint64_t MaxCycles = evolveConfig().MaxCyclesPerRun;
  struct Mode {
    const char *Span;
    const char *Metric;
    double Ns = 0;
    double Cycles = 0;
  } Modes[] = {{"vm.run.compiled", "vm.compiled.ns_per_vcycle"},
               {"vm.run.adaptive", "vm.adaptive.ns_per_vcycle"},
               {"vm.run.interp", "vm.interp.ns_per_vcycle"}};
  for (size_t AI = 0; AI != Apps.size(); ++AI) {
    if (Cheapest[AI] == SIZE_MAX)
      continue;
    const wl::Workload &W = Apps[AI]->W;
    const std::vector<bc::Value> &Args = W.Inputs[Cheapest[AI]].VmArgs;
    for (size_t K = 0; K != 3; ++K) {
      Mode &Md = Modes[K];
      vm::AdaptivePolicy Adaptive(TM);
      vm::ExecutionEngine E(W.Module, TM, K == 1 ? &Adaptive : nullptr);
      if (K == 0)
        for (bc::MethodId Id = 0; Id != W.Module.numFunctions(); ++Id)
          E.setCodeOverride(
              Id, std::make_shared<const vm::jit::CompiledFunction>(
                      vm::jit::compileAtLevel(W.Module, Id, vm::OptLevel::O2)));
      Clock::time_point T0 = Clock::now();
      ErrorOr<vm::RunResult> R = [&] {
        Scope Sp(Log, Md.Span);
        return E.run(Args, MaxCycles);
      }();
      double Ns = static_cast<double>(nsBetween(T0, Clock::now()));
      ++Out.Attempted;
      if (!R) {
        Out.fail(Apps[AI]->Name + ": " + Md.Span + " trapped");
        continue;
      }
      Md.Ns += Ns;
      Md.Cycles += static_cast<double>(R->Cycles);
    }
  }
  for (const Mode &Md : Modes)
    Out.set(Md.Metric, Md.Cycles > 0 ? Md.Ns / Md.Cycles : 0, "ns/cycle");
}

/// One launch boundary per app (paper_suite, serve_mix): save the final
/// checkpoint, load it, warm-start a fresh VM from it, checkpoint that VM
/// and merge against the loaded document.
void probeStoreRoundTrip(const Options &O, const AppList &Apps,
                         const std::vector<Checkpoint> &Checkpoints,
                         SpanLog &Log, Outcome &Out) {
  std::string Dir = O.WorkDir + "/probe-stores";
  std::filesystem::create_directories(Dir);
  uint64_t Bytes = 0;
  for (const Checkpoint &C : Checkpoints) {
    const AppStream &A = *Apps[C.App];
    std::string Path = Dir + "/" + A.Name + ".store";
    bool Saved;
    {
      Scope Sp(Log, "store.save");
      Saved = store::saveStoreFile(Path, C.KS);
    }
    ++Out.Attempted;
    if (!Saved) {
      Out.fail(A.Name + ": probe saveStoreFile failed");
      continue;
    }
    std::error_code EC;
    Bytes += std::filesystem::file_size(Path, EC);
    store::KnowledgeStore Loaded;
    store::StoreReadStats Stats;
    {
      Scope Sp(Log, "store.load");
      store::loadStoreFile(Path, Loaded, Stats);
    }
    evolve::EvolvableVM VM(A.W.Module, A.W.XiclSpec, &A.Registry, &A.Files,
                           evolveConfig());
    {
      Scope Sp(Log, "store.warmstart");
      VM.warmStart(Loaded, &Stats);
    }
    store::KnowledgeStore Mem;
    {
      Scope Sp(Log, "store.checkpoint");
      Mem = VM.checkpoint(Loaded.Header.Generation + 1);
    }
    {
      Scope Sp(Log, "store.merge");
      store::mergeStores(Loaded, Mem);
    }
    std::filesystem::remove(Path);
  }
  std::filesystem::remove(Dir);
  Out.set("store.bytes", static_cast<double>(Bytes), "bytes");
}

/// StoreGateway::publish of every checkpoint, one lane per app.
void probePublish(const Options &O, const AppList &Apps,
                  const std::vector<Checkpoint> &Checkpoints, SpanLog &Log,
                  Outcome &Out) {
  std::string Dir = O.WorkDir + "/gateway";
  {
    server::StoreGateway GW(Dir);
    for (const Checkpoint &C : Checkpoints) {
      bool Ok;
      {
        Scope Sp(Log, "store.publish");
        Ok = GW.publish(Apps[C.App]->Name, C.App, C.KS);
      }
      ++Out.Attempted;
      if (!Ok)
        Out.fail(Apps[C.App]->Name + ": StoreGateway::publish failed");
    }
  }
  std::filesystem::remove_all(Dir);
}

/// Framing, parsing and rendering on the workload's own payloads.
void probeServerFraming(const AppList &Apps, const std::vector<RunRecord> &Runs,
                        SpanLog &Log, Outcome &Out) {
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
    Out.fail("socketpair failed");
    return;
  }
  // At most 400 records, spread over the stream.
  size_t Step = Runs.size() > 400 ? Runs.size() / 400 : 1;
  for (size_t I = 0; I < Runs.size(); I += Step) {
    const RunRecord &R = Runs[I];
    const std::string &App = Apps[R.App]->Name;
    std::string Req = server::renderRunInputRequest(I + 1, App, R.Input);
    std::string Resp;
    {
      Scope Sp(Log, "server.renderRunResponse");
      Resp = server::renderRunResponse(I + 1, App, I + 1, R.R);
    }
    std::string Err;
    {
      Scope Sp(Log, "server.parseRequest");
      if (!server::parseRequest(Req, Err))
        Out.fail("parseRequest rejected a rendered request: " + Err);
    }
    // Both payloads fit the socket buffer, so one thread can write then read.
    if (Resp.size() > 64 * 1024)
      continue;
    std::string Got, Back;
    ++Out.Attempted;
    bool Ok;
    {
      Scope Sp(Log, "server.frame_rtt");
      Ok = server::writeFrame(Fds[0], Req) &&
           server::readFrame(Fds[1], Got, Err) == server::FrameStatus::Ok &&
           server::writeFrame(Fds[1], Resp) &&
           server::readFrame(Fds[0], Back, Err) == server::FrameStatus::Ok;
    }
    if (!Ok || Got != Req || Back != Resp)
      Out.fail("frame round trip lost or changed a payload");
  }
  ::close(Fds[0]);
  ::close(Fds[1]);
  Out.set("server.frame_rtt_us", meanUs(Log, "server.frame_rtt"), "us");
  Out.set("server.parse_us", meanUs(Log, "server.parseRequest"), "us");
  Out.set("server.render_us", meanUs(Log, "server.renderRunResponse"), "us");
}

} // namespace

void perfbench::probeLayers(const Options &O, const AppList &Apps,
                            const std::vector<RunRecord> &Runs,
                            const std::vector<Checkpoint> &Checkpoints,
                            bool HaveStoreSpans, SpanLog &Log, Outcome &Out) {
  Scope Sp(Log, "probes");
  countVm(Apps, Runs, Out);
  probeXicl(Apps, Runs, Log, Out);
  probeMl(Apps, Runs, Log, Out);
  probeJit(Apps, Log, Out);
  probeVm(Apps, Runs, Log, Out);
  if (!HaveStoreSpans)
    probeStoreRoundTrip(O, Apps, Checkpoints, Log, Out);
  probePublish(O, Apps, Checkpoints, Log, Out);
  probeServerFraming(Apps, Runs, Log, Out);
  Out.set("store.checkpoint_ms", meanMs(Log, "store.checkpoint"), "ms");
  Out.set("store.merge_ms", meanMs(Log, "store.merge"), "ms");
  Out.set("store.save_ms", meanMs(Log, "store.save"), "ms");
  Out.set("store.load_ms", meanMs(Log, "store.load"), "ms");
  Out.set("store.warmstart_ms", meanMs(Log, "store.warmstart"), "ms");
  Out.set("store.publish_ms", meanMs(Log, "store.publish"), "ms");
}
