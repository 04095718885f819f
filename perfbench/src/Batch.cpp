//===- perfbench/src/Batch.cpp - paper_suite and long_stream ------------===//
///
/// \file
/// The two batch workloads.  Both drive EvolvableVM call by call, one
/// application after another on one thread:
///
///   paper_suite  all eleven Table I applications, one VM per application
///                over its stream (the Evolve scenario).  Runs are long, so
///                the executor dominates host time.
///   long_stream  four short-running applications with long streams, cut
///                into launches the way ScenarioRunner::runEvolveLaunches
///                cuts them: each launch is a fresh VM that loads the store
///                file and warm-starts, and ends with checkpoint, merge with
///                the on-disk store and save.  Re-training, store I/O and
///                recompiles in fresh engines take a large share here.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "store/KnowledgeStore.h"
#include "workloads/Workload.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>

using namespace evm;
using namespace perfbench;

namespace {

struct BatchShape {
  const char *Tag;
  std::vector<std::string> Apps;
  size_t LengthManyInputs; ///< stream length for apps with >= 60 inputs
  size_t LengthFewInputs;
  size_t LaunchRuns; ///< 0 = one launch, no store traffic
  double NominalRepSeconds; ///< repetitions = --seconds / this, at least 2
};

// Half the paper's recommended stream lengths (70 runs for apps with >= 60
// inputs, else 30): 225 runs, about 12 s per repetition on a 4-core x86
// host with the tier-1 -O2 build.  long_stream: 960 runs in 24 launches,
// about 6.5 s.
const BatchShape PaperSuite{"paper_suite",
                            {"Compress", "Db", "Mtrt", "Antlr", "Bloat",
                             "Fop", "Euler", "MolDyn", "MonteCarlo", "Search",
                             "RayTracer"},
                            35,
                            15,
                            0,
                            12.5};

const BatchShape LongStream{"long_stream",
                            {"Fop", "Bloat", "Search", "Antlr"},
                            240,
                            240,
                            40,
                            6.25};

AppList buildApps(const BatchShape &S, uint64_t Variant) {
  AppList Apps;
  for (const std::string &Name : S.Apps) {
    auto A = buildApp(Name);
    size_t Len = A->W.Inputs.size() >= 60 ? S.LengthManyInputs
                                          : S.LengthFewInputs;
    A->Order = makeStream(A->W.Inputs.size(), Len,
                          streamSeed(Variant, std::string(S.Tag) + "/" + Name));
    Apps.push_back(std::move(A));
  }
  return Apps;
}

std::unique_ptr<evolve::EvolvableVM> makeVM(const AppStream &A) {
  return std::make_unique<evolve::EvolvableVM>(A.W.Module, A.W.XiclSpec,
                                               &A.Registry, &A.Files,
                                               evolveConfig());
}

struct RepData {
  double WallS = 0;
  /// Host ms of every operation in list order: each launch's start (VM
  /// construction, store load, warm start), each runOnce, each launch's
  /// end (store load, checkpoint, merge, save).  The order is the same in
  /// every repetition.
  std::vector<double> OpMs;
  std::vector<bool> OpIsRun;
  std::vector<RunRecord> Runs;         ///< only when kept
  std::vector<Checkpoint> Checkpoints; ///< only when kept
  uint64_t StoreBytes = 0;
  uint64_t VCycles = 0;
};

/// Runs every app's stream once.  \p Keep retains records and checkpoints
/// for the probes (outside the timed calls).
RepData runRep(const BatchShape &S, const AppList &Apps, const Options &O,
               SpanLog &Log, bool Keep, Outcome &Out) {
  RepData D;
  std::string StoreDir = O.WorkDir + "/stores";
  std::filesystem::create_directories(StoreDir);
  Clock::time_point RepBegin = Clock::now();
  for (size_t AI = 0; AI != Apps.size(); ++AI) {
    const AppStream &A = *Apps[AI];
    std::string StorePath = StoreDir + "/" + A.Name + ".store";
    std::filesystem::remove(StorePath);
    uint64_t Digest = fnv1a("");
    size_t Launches =
        S.LaunchRuns ? (A.Order.size() + S.LaunchRuns - 1) / S.LaunchRuns : 1;
    for (size_t L = 0; L != Launches; ++L) {
      size_t Begin = A.Order.size() * L / Launches;
      size_t End = A.Order.size() * (L + 1) / Launches;
      std::unique_ptr<evolve::EvolvableVM> VM;
      Clock::time_point OpBegin = Clock::now();
      {
        Scope Sp(Log, "evolve.vm_create");
        VM = makeVM(A);
      }
      if (S.LaunchRuns) {
        store::KnowledgeStore Loaded;
        store::StoreReadStats Stats;
        store::LoadStatus St;
        {
          Scope Sp(Log, "store.load");
          St = store::loadStoreFile(StorePath, Loaded, Stats);
        }
        Scope Sp(Log, "store.warmstart");
        VM->warmStart(Loaded,
                      St == store::LoadStatus::Loaded ? &Stats : nullptr);
      }
      D.OpMs.push_back(static_cast<double>(nsBetween(OpBegin, Clock::now())) /
                       1e6);
      D.OpIsRun.push_back(false);
      for (size_t I = Begin; I != End; ++I) {
        const wl::InputCase &In = A.W.Inputs[A.Order[I]];
        ++Out.Attempted;
        Clock::time_point T0 = Clock::now();
        ErrorOr<evolve::EvolveRunRecord> R = [&] {
          Scope Sp(Log, "evolve.runOnce");
          return VM->runOnce(In.CommandLine, In.VmArgs);
        }();
        double Ms = static_cast<double>(nsBetween(T0, Clock::now())) / 1e6;
        D.OpMs.push_back(Ms);
        D.OpIsRun.push_back(true);
        if (!R) {
          Out.fail(A.Name + ": runOnce failed: " + R.getError().message());
          continue;
        }
        Digest = fnv1a(runLine(A.Name, A.Order[I], *R), Digest);
        D.VCycles += R->Result.Cycles;
        if (Keep)
          D.Runs.push_back(RunRecord{AI, A.Order[I], std::move(*R)});
      }
      if (!S.LaunchRuns && Keep)
        D.Checkpoints.push_back(Checkpoint{AI, VM->checkpoint(1)});
      OpBegin = Clock::now();
      if (S.LaunchRuns) {
        // Read-modify-write checkpoint, as runEvolveLaunches does it.
        store::KnowledgeStore Disk;
        store::StoreReadStats DiskStats;
        {
          Scope Sp(Log, "store.load");
          store::loadStoreFile(StorePath, Disk, DiskStats);
        }
        store::KnowledgeStore Mem;
        {
          Scope Sp(Log, "store.checkpoint");
          Mem = VM->checkpoint(Disk.Header.Generation + 1);
        }
        Mem.Header.App = A.Name;
        store::KnowledgeStore Merged;
        {
          Scope Sp(Log, "store.merge");
          Merged = store::mergeStores(Disk, Mem);
        }
        bool Saved;
        {
          Scope Sp(Log, "store.save");
          Saved = store::saveStoreFile(StorePath, Merged);
        }
        VM->noteStoreSave(Saved);
        ++Out.Attempted;
        if (!Saved)
          Out.fail(A.Name + ": saveStoreFile failed");
        if (Keep)
          D.Checkpoints.push_back(Checkpoint{AI, std::move(Mem)});
      }
      VM.reset();
      D.OpMs.push_back(static_cast<double>(nsBetween(OpBegin, Clock::now())) /
                       1e6);
      D.OpIsRun.push_back(false);
    }
    if (S.LaunchRuns) {
      std::error_code EC;
      D.StoreBytes += std::filesystem::file_size(StorePath, EC);
      std::filesystem::remove(StorePath);
    }
    char Hex[17];
    std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, Digest);
    Out.digest(A.Name, Hex);
  }
  D.WallS = static_cast<double>(nsBetween(RepBegin, Clock::now())) / 1e9;
  std::filesystem::remove(StoreDir);
  return D;
}

Outcome runBatch(const Options &O, const BatchShape &S) {
  Outcome Out;
  SpanLog Off(false);

  // Set-up: build the applications and their streams, and construct one VM
  // per application.  One set-up takes about a millisecond, so it is
  // repeated for half a second (at least 15 times); setup_s is the median.
  std::vector<double> SetupS;
  AppList Apps;
  Clock::time_point SetupBegin = Clock::now();
  while (SetupS.size() < 15 ||
         nsBetween(SetupBegin, Clock::now()) < 500000000) {
    Clock::time_point T0 = Clock::now();
    Apps = buildApps(S, O.variant());
    for (const auto &A : Apps)
      makeVM(*A);
    SetupS.push_back(static_cast<double>(nsBetween(T0, Clock::now())) / 1e9);
  }
  Out.Detail["setups"] = static_cast<double>(SetupS.size());

  if (O.Record) {
    runRep(S, Apps, O, Off, false, Out);
    return Out;
  }

  if (!O.Trace) {
    // A fixed number of repetitions for a given --seconds, so both sides of
    // a comparison take the same number of samples.
    size_t Reps = std::max<size_t>(
        2, static_cast<size_t>(O.Seconds / S.NominalRepSeconds));
    std::vector<std::vector<double>> OpMs;
    std::vector<bool> IsRun;
    for (size_t R = 0; R != Reps; ++R) {
      RepData D = runRep(S, Apps, O, Off, false, Out);
      Out.Detail["rep" + std::to_string(R) + ".wall_s"] = D.WallS;
      Out.Detail["vcycles"] = static_cast<double>(D.VCycles);
      OpMs.push_back(std::move(D.OpMs));
      IsRun = std::move(D.OpIsRun);
    }
    // Each operation at its fastest over the repetitions: interference from
    // other tenants of the host only ever slows an operation down, so the
    // per-operation minimum is the steadiest estimate of its own cost.
    std::vector<double> Best = positionMin(OpMs), RunMs;
    double WallMs = 0;
    for (size_t I = 0; I != Best.size(); ++I) {
      WallMs += Best[I];
      if (IsRun[I])
        RunMs.push_back(Best[I]);
    }
    Out.set("setup_s", medianOf(SetupS), "s");
    Out.set("wall_s", WallMs / 1e3, "s");
    Out.set("run_p50_ms", percentile(RunMs, 50), "ms");
    Out.set("run_p95_ms", percentile(RunMs, 95), "ms");
    // One caller, so each run is due when the previous one ends: request
    // latency is the run time, and capacity is runs per second.
    Out.set("req_p50_ms", percentile(RunMs, 50), "ms");
    Out.set("req_p99_ms", percentile(RunMs, 99), "ms");
    Out.set("capacity_rps", static_cast<double>(RunMs.size()) / WallMs * 1e3,
            "1/s");
    Out.set("peak_rss_mb", peakRssMb(), "MB");
    Out.Detail["reps"] = static_cast<double>(Reps);
    Out.Detail["run_samples"] = static_cast<double>(RunMs.size());
    return Out;
  }

  // Traced run: one untraced repetition for the overhead baseline, one
  // traced repetition, then the layer probes on the traced data.
  RepData Plain = runRep(S, Apps, O, Off, false, Out);
  SpanLog Log(true);
  RepData D;
  {
    Scope Sp(Log, "workload");
    D = runRep(S, Apps, O, Log, true, Out);
  }
  Out.set("trace.overhead_frac", D.WallS / Plain.WallS - 1, "ratio");
  if (S.LaunchRuns)
    Out.set("store.bytes", static_cast<double>(D.StoreBytes), "bytes");
  probeLayers(O, Apps, D.Runs, D.Checkpoints, S.LaunchRuns != 0, Log, Out);
  probeServe(O, Log, Out);
  if (!Log.writeJsonl(O.TracePath))
    Out.fail("cannot write trace " + O.TracePath);
  Out.Detail["spans"] = static_cast<double>(Log.size());
  Out.Detail["traced_wall_s"] = D.WallS;
  Out.Detail["untraced_wall_s"] = Plain.WallS;
  return Out;
}

} // namespace

Outcome perfbench::runPaperSuite(const Options &O) {
  return runBatch(O, PaperSuite);
}

Outcome perfbench::runLongStream(const Options &O) {
  return runBatch(O, LongStream);
}
