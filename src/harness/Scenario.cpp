//===- harness/Scenario.cpp -----------------------------------------------==//

#include "harness/Scenario.h"

#include "evolve/Repository.h"
#include "evolve/Strategy.h"
#include "store/KnowledgeStore.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "vm/AOS.h"

#include <cassert>

using namespace evm;
using namespace evm::harness;

ScenarioRunner::ScenarioRunner(const wl::Workload &W, ExperimentConfig Config)
    : W(W), Config(Config), DefaultCache(W.Inputs.size(), 0) {
  W.registerMethods(Registry);
  W.populateFileStore(Files);
}

std::vector<size_t> ScenarioRunner::makeInputOrder(uint64_t OrderSeed,
                                                   size_t Count) const {
  Rng R(Config.Seed ^ (OrderSeed * 0x9e3779b97f4a7c15ULL));
  std::vector<size_t> Order(Count);
  for (size_t I = 0; I != Count; ++I)
    Order[I] = static_cast<size_t>(
        R.nextInt(0, static_cast<int64_t>(W.Inputs.size()) - 1));
  return Order;
}

uint64_t ScenarioRunner::defaultCycles(size_t InputIndex) {
  assert(InputIndex < W.Inputs.size() && "input index out of range");
  if (DefaultCache[InputIndex])
    return DefaultCache[InputIndex];
  vm::AdaptivePolicy Policy(Config.Timing, Tracer);
  vm::ExecutionEngine Engine(W.Module, Config.Timing, &Policy);
  Engine.setTracer(Tracer);
  auto R = Engine.run(W.Inputs[InputIndex].VmArgs, Config.MaxCyclesPerRun);
  assert(R && "default run trapped");
  DefaultCache[InputIndex] = R ? (*R).Cycles : 1;
  return DefaultCache[InputIndex];
}

ScenarioResult ScenarioRunner::runDefault(const std::vector<size_t> &Order) {
  ScenarioResult Result;
  Result.ScenarioName = "Default";
  for (size_t InputIndex : Order) {
    RunMetrics M;
    M.InputIndex = InputIndex;
    M.Cycles = defaultCycles(InputIndex);
    M.SpeedupVsDefault = 1.0;
    Result.Runs.push_back(M);
  }
  return Result;
}

void ScenarioRunner::runRepSpan(evolve::ProfileRepository &Repo,
                                const std::vector<size_t> &Sizes,
                                const std::vector<size_t> &Order, size_t Begin,
                                size_t End, ScenarioResult &Result) {
  for (size_t RunIndex = Begin; RunIndex != End; ++RunIndex) {
    size_t InputIndex = Order[RunIndex];
    RunMetrics M;
    M.InputIndex = InputIndex;

    // The repository strategy is applied unconditionally, from the very
    // first runs (no confidence guard) — one of the paper's contrasts.
    evolve::RepStrategy Strategy = Repo.deriveStrategy(Sizes);
    evolve::RepPolicy RepTriggers(std::move(Strategy));
    vm::AdaptivePolicy Adaptive(Config.Timing, Tracer);
    vm::CombinedPolicy Policy(&RepTriggers, &Adaptive);

    uint64_t SamplePhase = Rng(RunIndex ^ 0x4e9b2a7c).next();
    vm::ExecutionEngine Engine(W.Module, Config.Timing, &Policy);
    Engine.setTracer(Tracer);
    auto R = Engine.run(W.Inputs[InputIndex].VmArgs, Config.MaxCyclesPerRun,
                        0, SamplePhase);
    assert(R && "rep run trapped");
    if (!R)
      continue;
    M.Cycles = (*R).Cycles;
    M.SpeedupVsDefault = static_cast<double>(defaultCycles(InputIndex)) /
                         static_cast<double>(M.Cycles);
    M.Compiles = (*R).Compiles.size();
    Repo.addRun((*R).PerMethod);
    if (Tracer && Tracer->enabled()) {
      TraceEvent E;
      E.Kind = TraceEventKind::RepositoryUpdate;
      E.Cycle = (*R).Cycles;
      E.A = Repo.numRuns(); // runs folded into the repository so far
      Tracer->record(E);
    }
    Result.Runs.push_back(M);
  }
}

ScenarioResult ScenarioRunner::runRep(const std::vector<size_t> &Order) {
  ScenarioResult Result;
  Result.ScenarioName = "Rep";
  evolve::ProfileRepository Repo(Config.Timing);
  std::vector<size_t> Sizes = evolve::methodSizes(W.Module);
  runRepSpan(Repo, Sizes, Order, 0, Order.size(), Result);
  return Result;
}

ScenarioResult ScenarioRunner::runRepLaunches(const std::vector<size_t> &Order,
                                              size_t NumLaunches,
                                              const std::string &StorePath) {
  ScenarioResult Result;
  Result.ScenarioName = "Rep";
  std::vector<size_t> Sizes = evolve::methodSizes(W.Module);
  if (NumLaunches == 0)
    NumLaunches = 1;

  for (size_t L = 0; L != NumLaunches; ++L) {
    size_t Begin = Order.size() * L / NumLaunches;
    size_t End = Order.size() * (L + 1) / NumLaunches;

    // Fresh "process": the repository lives only as long as the launch and
    // persists through the store's repository section.
    store::KnowledgeStore Loaded;
    store::StoreReadStats Stats;
    store::loadStoreFile(StorePath, Loaded, Stats);
    evolve::ProfileRepository Repo(Config.Timing);
    Repo.restoreRuns(Loaded.RepRuns);

    // Begin doubles as the global run ordinal, so launch L+1 continues the
    // sample-phase sequence right where launch L stopped.
    runRepSpan(Repo, Sizes, Order, Begin, End, Result);

    // Read-modify-write checkpoint: reload (another writer may have
    // advanced the file), merge, bump the generation.
    store::KnowledgeStore Disk;
    store::StoreReadStats DiskStats;
    store::loadStoreFile(StorePath, Disk, DiskStats);
    store::KnowledgeStore Mem;
    Mem.Header.Generation = Disk.Header.Generation + 1;
    Mem.Header.App = W.Name;
    Mem.RepRuns = Repo.runs();
    store::saveStoreFile(StorePath, store::mergeStores(Disk, Mem));
  }
  return Result;
}

void ScenarioRunner::runEvolveSpan(evolve::EvolvableVM &VM,
                                   const std::vector<size_t> &Order,
                                   size_t Begin, size_t End,
                                   ScenarioResult &Result,
                                   std::vector<double> &Confidences,
                                   std::vector<double> &Accuracies) {
  for (size_t RunIndex = Begin; RunIndex != End; ++RunIndex) {
    size_t InputIndex = Order[RunIndex];
    auto Record = VM.runOnce(W.Inputs[InputIndex].CommandLine,
                             W.Inputs[InputIndex].VmArgs);
    assert(Record && "evolve run failed");
    if (!Record)
      continue;
    RunMetrics M;
    M.InputIndex = InputIndex;
    M.Cycles = Record->Result.Cycles;
    M.SpeedupVsDefault = static_cast<double>(defaultCycles(InputIndex)) /
                         static_cast<double>(M.Cycles);
    M.Confidence = Record->ConfidenceAfter;
    M.Accuracy = Record->Accuracy;
    M.UsedPrediction = Record->UsedPrediction;
    M.HadPrediction = Record->HadPrediction;
    M.OverheadCycles = Record->Result.overheadCycles();
    M.Compiles = Record->Result.Compiles.size();
    Result.Runs.push_back(M);

    // The harness knows the input's default-optimizer time; backfill it so
    // explain tooling can recompute speedups from the records alone.
    if (Ledger && Ledger->enabled())
      Ledger->annotateBaseline(defaultCycles(InputIndex));

    Confidences.push_back(Record->ConfidenceAfter);
    if (Record->HadPrediction)
      Accuracies.push_back(Record->Accuracy);
  }
}

evolve::EvolveConfig
evm::harness::makeEvolveConfig(const ExperimentConfig &Config) {
  evolve::EvolveConfig EC;
  EC.Timing = Config.Timing;
  EC.Gamma = Config.Gamma;
  EC.ConfidenceThreshold = Config.ConfidenceThreshold;
  EC.MaxCyclesPerRun = Config.MaxCyclesPerRun;
  return EC;
}

ScenarioResult ScenarioRunner::runEvolve(const std::vector<size_t> &Order) {
  ScenarioResult Result;
  Result.ScenarioName = "Evolve";

  evolve::EvolvableVM VM(W.Module, W.XiclSpec, &Registry, &Files,
                         makeEvolveConfig(Config));
  VM.setTracer(Tracer);
  VM.setLedger(Ledger, W.Name);
  assert(VM.specError().empty() && "workload XICL spec failed to parse");

  std::vector<double> Confidences, Accuracies;
  runEvolveSpan(VM, Order, 0, Order.size(), Result, Confidences, Accuracies);

  Result.FinalConfidence = VM.confidence();
  Result.MeanConfidence = mean(Confidences);
  Result.MeanAccuracy = mean(Accuracies);
  Result.RawFeatures = VM.model().numRawFeatures();
  Result.UsedFeatures = VM.model().usedFeatureNames().size();
  return Result;
}

ScenarioResult
ScenarioRunner::runEvolveLaunches(const std::vector<size_t> &Order,
                                  size_t NumLaunches,
                                  const std::string &StorePath) {
  ScenarioResult Result;
  Result.ScenarioName = "Evolve";
  if (NumLaunches == 0)
    NumLaunches = 1;

  std::vector<double> Confidences, Accuracies;
  for (size_t L = 0; L != NumLaunches; ++L) {
    size_t Begin = Order.size() * L / NumLaunches;
    size_t End = Order.size() * (L + 1) / NumLaunches;

    // Fresh "process" per launch; all cross-launch knowledge flows through
    // the store file.
    evolve::EvolvableVM VM(W.Module, W.XiclSpec, &Registry, &Files,
                           makeEvolveConfig(Config));
    VM.setTracer(Tracer);
    VM.setLedger(Ledger, W.Name);
    assert(VM.specError().empty() && "workload XICL spec failed to parse");

    store::KnowledgeStore Loaded;
    store::StoreReadStats Stats;
    store::LoadStatus St = store::loadStoreFile(StorePath, Loaded, Stats);
    VM.warmStart(Loaded, St == store::LoadStatus::Loaded ? &Stats : nullptr);

    runEvolveSpan(VM, Order, Begin, End, Result, Confidences, Accuracies);

    // Read-modify-write checkpoint (see runRepLaunches).
    store::KnowledgeStore Disk;
    store::StoreReadStats DiskStats;
    store::loadStoreFile(StorePath, Disk, DiskStats);
    store::KnowledgeStore Mem = VM.checkpoint(Disk.Header.Generation + 1);
    Mem.Header.App = W.Name;
    VM.noteStoreSave(
        store::saveStoreFile(StorePath, store::mergeStores(Disk, Mem)));

    if (L + 1 == NumLaunches) {
      Result.FinalConfidence = VM.confidence();
      Result.RawFeatures = VM.model().numRawFeatures();
      Result.UsedFeatures = VM.model().usedFeatureNames().size();
    }
  }
  Result.MeanConfidence = mean(Confidences);
  Result.MeanAccuracy = mean(Accuracies);
  return Result;
}
