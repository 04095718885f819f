//===- bench/bench_ablation.cpp - Design-choice ablations ------------------==//
//
// Ablates the evolvable VM's design decisions (DESIGN.md Sec. 3):
//
//   (a) the discriminative guard: decayed-accuracy (the paper's Fig. 7),
//       cross-validation self-evaluation, and no guard at all;
//   (b) the reactive safety net under predicted strategies.
//
// Reported per configuration: min / median / max speedup over the default
// VM and how many runs were driven by prediction.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "evolve/EvolvableVM.h"
#include "harness/Scenario.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstdio>

using namespace evm;

namespace {

struct AblationResult {
  double Min = 0, Median = 0, Max = 0;
  int Predicted = 0;
};

AblationResult runConfig(const wl::Workload &W,
                         harness::ScenarioRunner &Baselines,
                         const std::vector<size_t> &Order,
                         evolve::GuardMode Guard, bool SafetyNet) {
  xicl::XFMethodRegistry Registry;
  W.registerMethods(Registry);
  xicl::FileStore Files;
  W.populateFileStore(Files);

  evolve::EvolveConfig Config;
  Config.Guard = Guard;
  Config.ReactiveSafetyNet = SafetyNet;
  evolve::EvolvableVM VM(W.Module, W.XiclSpec, &Registry, &Files, Config);

  AblationResult Out;
  std::vector<double> Speedups;
  for (size_t InputIndex : Order) {
    auto Record = VM.runOnce(W.Inputs[InputIndex].CommandLine,
                             W.Inputs[InputIndex].VmArgs);
    if (!Record)
      continue;
    double Speedup = static_cast<double>(Baselines.defaultCycles(InputIndex)) /
                     static_cast<double>(Record->Result.Cycles);
    Speedups.push_back(Speedup);
    Out.Predicted += Record->UsedPrediction ? 1 : 0;
  }
  Out.Min = quantile(Speedups, 0.0);
  Out.Median = median(Speedups);
  Out.Max = quantile(Speedups, 1.0);
  return Out;
}

const char *guardName(evolve::GuardMode G) {
  switch (G) {
  case evolve::GuardMode::DecayedAccuracy:
    return "decayed-acc";
  case evolve::GuardMode::CrossValidation:
    return "cross-val";
  case evolve::GuardMode::Always:
    return "none";
  }
  return "?";
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonFlag(argc, argv);
  MetricsRegistry Metrics;
  PhaseProfiler Profiler;
  ProfilerInstallGuard ProfilerGuard(&Profiler);
  std::printf("Ablation: discriminative-guard mode and reactive safety net\n"
              "(speedups vs the default VM; 40 runs per configuration)\n\n");
  TextTable Table({"Program", "guard", "safetyNet", "min", "median", "max",
                   "predictedRuns"});
  for (const char *Name : {"Mtrt", "Compress"}) {
    wl::Workload W = wl::buildWorkload(Name, 20090301);
    harness::ExperimentConfig C;
    C.Seed = 20090301;
    harness::ScenarioRunner Baselines(W, C);
    std::vector<size_t> Order = Baselines.makeInputOrder(1, 40);

    struct Config {
      evolve::GuardMode Guard;
      bool SafetyNet;
    };
    const Config Configs[] = {
        {evolve::GuardMode::DecayedAccuracy, true},
        {evolve::GuardMode::CrossValidation, true},
        {evolve::GuardMode::Always, true},
        {evolve::GuardMode::DecayedAccuracy, false},
    };
    for (const Config &Cfg : Configs) {
      AblationResult R =
          runConfig(W, Baselines, Order, Cfg.Guard, Cfg.SafetyNet);
      std::string Key = std::string("ablation.") + Name + "." +
                        guardName(Cfg.Guard) +
                        (Cfg.SafetyNet ? ".net_on" : ".net_off");
      Metrics.setGauge(Key + ".median_speedup", R.Median);
      Metrics.setGauge(Key + ".min_speedup", R.Min);
      Metrics.add(Key + ".predicted_runs",
                  static_cast<uint64_t>(R.Predicted));
      Table.beginRow();
      Table.addCell(Name);
      Table.addCell(guardName(Cfg.Guard));
      Table.addCell(Cfg.SafetyNet ? "on" : "off");
      Table.addCell(R.Min, 3);
      Table.addCell(R.Median, 3);
      Table.addCell(R.Max, 3);
      Table.addCell(static_cast<int64_t>(R.Predicted));
    }
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("Expected shape: guards trade a few early predicted runs for "
              "a better worst\ncase; removing the safety net lowers the "
              "minimum (mispredictions go unrescued).\n");
  PhaseTreeSnapshot Phases = Profiler.snapshot();
  if (!benchjson::writeBenchJson(JsonPath, "ablation", 20090301,
                                 Metrics.snapshot(), &Phases))
    return 2;
  return 0;
}
