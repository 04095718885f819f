//===- bench/bench_crossrun.cpp - Warm-start vs cold-start Evolve ----------==//
//
// Measures what the knowledge store buys across process lifetimes: a VM
// warm-started from a store built by 50 prior runs is compared against the
// cold-started VM over the same input sequence.
//
//   cold   one process runs all 60 inputs; its last-10-run window is the
//          steady state the learner converges to.
//   warm   a first "launch" runs inputs 1..50 and checkpoints into the
//          store; a *fresh* VM then warm-starts from that store and runs
//          inputs 51..60 as its very first runs.
//
// Because warm start restores the full training set, the trees, the
// confidence tracker, and RunsSeen (sample-phase continuity), the warm
// probe is cycle-identical to cold runs 51..60 — the warm VM's *first*
// window matches the cold VM's *steady-state* window, and it reaches
// prediction-driven execution on launch run 1 instead of after the cold
// ramp.  Both properties gate: the bench exits 1 if warm first-window
// accuracy falls below cold steady-state accuracy or the warm ramp is
// longer than the cold one.
//
// All numbers are virtual-clock deterministic, so the committed baseline
// diffs byte-for-byte.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Scenario.h"
#include "support/BuildInfo.h"
#include "support/DecisionLedger.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace evm;

namespace {

/// Mean accuracy over [Begin, End) of \p Runs, counting only runs where a
/// prediction existed; 0 when none did.
double windowAccuracy(const std::vector<harness::RunMetrics> &Runs,
                      size_t Begin, size_t End) {
  std::vector<double> Acc;
  for (size_t I = Begin; I != End && I != Runs.size(); ++I)
    if (Runs[I].HadPrediction)
      Acc.push_back(Runs[I].Accuracy);
  return mean(Acc);
}

/// 1-based index of the first run in [Begin, End) driven by a prediction,
/// or (End - Begin + 1) when none was — "time to steady state" in runs.
size_t runsToSteady(const std::vector<harness::RunMetrics> &Runs, size_t Begin,
                    size_t End) {
  for (size_t I = Begin; I != End && I != Runs.size(); ++I)
    if (Runs[I].UsedPrediction)
      return I - Begin + 1;
  return End - Begin + 1;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonFlag(argc, argv);
  MetricsRegistry Metrics;
  PhaseProfiler Profiler;
  ProfilerInstallGuard ProfilerGuard(&Profiler);

  const size_t NumRuns = 60;
  const size_t TrainRuns = 50;
  std::string StorePath =
      "/tmp/bench_crossrun." + std::to_string(getpid()) + ".store";

  std::printf("Cross-run evolution: warm-start (knowledge store) vs "
              "cold-start Evolve\n(%zu-run sequence; warm probe = fresh VM "
              "after %zu stored runs)\n\n",
              NumRuns, TrainRuns);
  TextTable Table({"Program", "coldSteadyAcc", "warmFirstAcc", "coldRunsTo",
                   "warmRunsTo", "warmFirstConf"});

  // Decision ledger across both programs and both paths (cold sequence,
  // warm train + probe launches) — observation only, exported as a
  // _decisions.jsonl sibling of the --json document.
  DecisionLedger Ledger;
  Ledger.setEnabled(true);

  int Failures = 0;
  for (const char *Name : {"Mtrt", "Compress"}) {
    wl::Workload W = wl::buildWorkload(Name, 20090301);
    harness::ExperimentConfig C;
    C.Seed = 20090301;
    harness::ScenarioRunner Runner(W, C);
    Runner.setLedger(&Ledger);
    std::vector<size_t> Order = Runner.makeInputOrder(1, NumRuns);

    harness::ScenarioResult Cold = Runner.runEvolve(Order);

    // Warm path: launch 1 trains the store, launch 2 is the probe.
    std::remove(StorePath.c_str());
    std::vector<size_t> TrainOrder(Order.begin(),
                                   Order.begin() + static_cast<long>(TrainRuns));
    std::vector<size_t> ProbeOrder(Order.begin() + static_cast<long>(TrainRuns),
                                   Order.end());
    Runner.runEvolveLaunches(TrainOrder, 1, StorePath);
    harness::ScenarioResult Warm =
        Runner.runEvolveLaunches(ProbeOrder, 1, StorePath);
    std::remove(StorePath.c_str());

    double ColdSteadyAcc =
        windowAccuracy(Cold.Runs, TrainRuns, NumRuns);
    double WarmFirstAcc = windowAccuracy(Warm.Runs, 0, Warm.Runs.size());
    size_t ColdRunsTo = runsToSteady(Cold.Runs, 0, NumRuns);
    size_t WarmRunsTo = runsToSteady(Warm.Runs, 0, Warm.Runs.size());
    double WarmFirstConf = Warm.Runs.empty() ? 0 : Warm.Runs[0].Confidence;

    std::string Key = std::string("crossrun.") + Name;
    Metrics.setGauge(Key + ".cold.steady_accuracy", ColdSteadyAcc);
    Metrics.setGauge(Key + ".warm.first_accuracy", WarmFirstAcc);
    Metrics.setGauge(Key + ".cold.runs_to_steady",
                     static_cast<double>(ColdRunsTo));
    Metrics.setGauge(Key + ".warm.runs_to_steady",
                     static_cast<double>(WarmRunsTo));
    Metrics.setGauge(Key + ".warm.first_confidence", WarmFirstConf);

    Table.beginRow();
    Table.addCell(Name);
    Table.addCell(ColdSteadyAcc, 3);
    Table.addCell(WarmFirstAcc, 3);
    Table.addCell(static_cast<int64_t>(ColdRunsTo));
    Table.addCell(static_cast<int64_t>(WarmRunsTo));
    Table.addCell(WarmFirstConf, 3);

    if (WarmFirstAcc + 1e-9 < ColdSteadyAcc) {
      std::fprintf(stderr,
                   "GATE: %s warm first-window accuracy %.4f < cold "
                   "steady-state accuracy %.4f\n",
                   Name, WarmFirstAcc, ColdSteadyAcc);
      ++Failures;
    }
    if (WarmRunsTo > ColdRunsTo) {
      std::fprintf(stderr,
                   "GATE: %s warm ramp (%zu runs) longer than cold ramp "
                   "(%zu runs)\n",
                   Name, WarmRunsTo, ColdRunsTo);
      ++Failures;
    }
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("Expected shape: warmFirstAcc == coldSteadyAcc (the warm probe "
              "is cycle-identical\nto the cold VM's last window) and "
              "warmRunsTo = 1 while the cold VM ramps.\n");

  PhaseTreeSnapshot Phases = Profiler.snapshot();
  if (!benchjson::writeBenchJson(JsonPath, "crossrun", 20090301,
                                 Metrics.snapshot(), &Phases))
    return 2;

  std::string DecPath = benchjson::decisionsJsonlPath(JsonPath);
  if (!DecPath.empty() && Ledger.enabled()) {
    const BuildInfo &B = buildInfo();
    LedgerProvenance Prov;
    Prov.GitSha = B.GitSha;
    Prov.Compiler = B.Compiler;
    Prov.CompilerVersion = B.CompilerVersion;
    Prov.BuildType = B.BuildType;
    std::ofstream Stream(DecPath, std::ios::binary);
    if (!(Stream << renderJsonlDecisions(Ledger.exportOrder(), &Prov))) {
      std::fprintf(stderr, "error: cannot write %s\n", DecPath.c_str());
      return 2;
    }
  }
  return Failures ? 1 : 0;
}
