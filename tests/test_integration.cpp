//===- tests/test_integration.cpp - Cross-module end-to-end behaviour -----==//
//
// The paper's headline claims, verified on small configurations:
//   * the evolvable VM learns across runs and overtakes the default,
//   * the discriminative guard suppresses immature/misleading predictions,
//   * input-specific prediction adapts where a single average strategy
//     cannot,
//   * interactive updateV/done retriggers prediction.
//
//===----------------------------------------------------------------------===//

#include "evolve/EvolvableVM.h"
#include "harness/Scenario.h"
#include "ml/Confidence.h"
#include "support/Stats.h"
#include "xicl/RuntimeChannel.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace evm;

namespace {

constexpr uint64_t Seed = 77;

} // namespace

TEST(IntegrationTest, EvolveBeatsRepBeatsDefaultOnRoute) {
  wl::Workload W = wl::buildRouteExample(Seed, 30);
  harness::ExperimentConfig C;
  C.Seed = Seed;
  harness::ScenarioRunner Runner(W, C);
  auto Order = Runner.makeInputOrder(3, 30);
  harness::ScenarioResult Ev = Runner.runEvolve(Order);
  harness::ScenarioResult Rp = Runner.runRep(Order);

  // Post-warmup medians (drop the first third).
  auto Tail = [](const harness::ScenarioResult &R) {
    std::vector<double> S;
    for (size_t I = R.Runs.size() / 3; I != R.Runs.size(); ++I)
      S.push_back(R.Runs[I].SpeedupVsDefault);
    return median(S);
  };
  double EvMedian = Tail(Ev), RpMedian = Tail(Rp);
  EXPECT_GT(EvMedian, 1.0);
  EXPECT_GE(RpMedian, 0.98);
  EXPECT_GT(EvMedian, RpMedian - 0.02); // Evolve at least matches Rep
}

TEST(IntegrationTest, GuardPreventsEarlySlowdowns) {
  // During the warmup (no prediction), Evolve must track the default
  // closely: the guard forbids immature predictions from hurting.
  wl::Workload W = wl::buildWorkload("RayTracer", Seed);
  harness::ExperimentConfig C;
  C.Seed = Seed;
  harness::ScenarioRunner Runner(W, C);
  auto Order = Runner.makeInputOrder(1, 12);
  harness::ScenarioResult Ev = Runner.runEvolve(Order);
  for (const harness::RunMetrics &M : Ev.Runs) {
    if (M.UsedPrediction)
      continue;
    EXPECT_GT(M.SpeedupVsDefault, 0.97)
        << "guarded run fell behind the default";
  }
}

TEST(IntegrationTest, HighThresholdIsMoreConservative) {
  wl::Workload W = wl::buildRouteExample(Seed, 20);
  auto CountPredicted = [&](double Threshold) {
    harness::ExperimentConfig C;
    C.Seed = Seed;
    C.ConfidenceThreshold = Threshold;
    harness::ScenarioRunner Runner(W, C);
    auto Order = Runner.makeInputOrder(1, 16);
    harness::ScenarioResult Ev = Runner.runEvolve(Order);
    size_t N = 0;
    for (const harness::RunMetrics &M : Ev.Runs)
      N += M.UsedPrediction ? 1 : 0;
    return N;
  };
  EXPECT_GE(CountPredicted(0.5), CountPredicted(0.9));
}

TEST(IntegrationTest, InteractiveChannelRetriggersPrediction) {
  // Model the paper's interactive-application flow: the app passes new
  // feature values at an interactive point, done() re-predicts.
  xicl::FeatureChannel Channel;
  ml::ConfidenceTracker Conf(0.7, 0.7);
  Conf.update(1.0);
  Conf.update(1.0); // confident

  int Predictions = 0;
  Channel.setDoneCallback([&](const xicl::FeatureVector &FV) {
    if (Conf.confident() && FV.indexOf("mquery.len") >= 0)
      ++Predictions;
  });

  Channel.updateV("mquery.len", xicl::Feature::numeric("", 12));
  Channel.done(); // first interactive point
  Channel.updateV("mquery.len", xicl::Feature::numeric("", 90));
  Channel.done(); // second interactive point
  EXPECT_EQ(Predictions, 2);
}

TEST(IntegrationTest, ModelsAreInputSpecificNotAveraged) {
  // Train the evolvable VM on two very different route inputs; its
  // predictions must differ per input (the paper's core contrast to Rep).
  wl::Workload W = wl::buildRouteExample(Seed, 2);
  // Make the two inputs extreme.
  W.Inputs[0].VmArgs = {bc::Value::makeInt(100), bc::Value::makeInt(300),
                        bc::Value::makeInt(1), bc::Value::makeInt(0)};
  W.Inputs[0].CommandLine = "route tiny";
  W.Inputs[0].Files = {{"tiny", [] {
                          xicl::FileInfo I;
                          I.Attributes["nodes"] = 100;
                          I.Attributes["edges"] = 300;
                          return I;
                        }()}};
  W.Inputs[1].VmArgs = {bc::Value::makeInt(4000), bc::Value::makeInt(20000),
                        bc::Value::makeInt(4), bc::Value::makeInt(0)};
  W.Inputs[1].CommandLine = "route -n 4 huge";
  W.Inputs[1].Files = {{"huge", [] {
                          xicl::FileInfo I;
                          I.Attributes["nodes"] = 4000;
                          I.Attributes["edges"] = 20000;
                          return I;
                        }()}};

  xicl::XFMethodRegistry Registry;
  W.registerMethods(Registry);
  xicl::FileStore Files;
  W.populateFileStore(Files);
  evolve::EvolveConfig EC;
  evolve::EvolvableVM VM(W.Module, W.XiclSpec, &Registry, &Files, EC);

  // Alternate the inputs for a while.
  for (int Run = 0; Run != 10; ++Run) {
    const wl::InputCase &In = W.Inputs[Run % 2];
    auto Rec = VM.runOnce(In.CommandLine, In.VmArgs);
    ASSERT_TRUE(static_cast<bool>(Rec)) << Rec.getError().message();
  }
  // Compare the model's strategies for the two inputs.
  xicl::XICLTranslator T(
      xicl::parseSpec(W.XiclSpec).takeValue(), &Registry, &Files);
  auto FVTiny = T.buildFVector(W.Inputs[0].CommandLine);
  auto FVHuge = T.buildFVector(W.Inputs[1].CommandLine);
  ASSERT_TRUE(static_cast<bool>(FVTiny));
  ASSERT_TRUE(static_cast<bool>(FVHuge));
  auto STiny = VM.model().predict(*FVTiny);
  auto SHuge = VM.model().predict(*FVHuge);
  ASSERT_TRUE(STiny.has_value());
  ASSERT_TRUE(SHuge.has_value());
  EXPECT_FALSE(*STiny == *SHuge)
      << "input-specific models collapsed to one strategy";
  // The huge input asks for at least as much optimization everywhere.
  int HigherSomewhere = 0;
  for (size_t M = 0; M != STiny->Levels.size(); ++M)
    if (vm::levelIndex(SHuge->Levels[M]) > vm::levelIndex(STiny->Levels[M]))
      ++HigherSomewhere;
  EXPECT_GT(HigherSomewhere, 0);
}

TEST(IntegrationTest, Fig7LoopMatchesPseudoCode) {
  // Trace the algorithm state across runs: conf starts 0; after each run
  // with a model, conf' = 0.3*conf + 0.7*acc.
  wl::Workload W = wl::buildRouteExample(Seed, 6);
  xicl::XFMethodRegistry Registry;
  W.registerMethods(Registry);
  xicl::FileStore Files;
  W.populateFileStore(Files);
  evolve::EvolveConfig EC;
  evolve::EvolvableVM VM(W.Module, W.XiclSpec, &Registry, &Files, EC);

  double Conf = 0;
  for (int Run = 0; Run != 6; ++Run) {
    const wl::InputCase &In = W.Inputs[Run % W.Inputs.size()];
    auto Rec = VM.runOnce(In.CommandLine, In.VmArgs);
    ASSERT_TRUE(static_cast<bool>(Rec));
    EXPECT_DOUBLE_EQ(Rec->ConfidenceBefore, Conf);
    if (Rec->HadPrediction)
      Conf = 0.3 * Conf + 0.7 * Rec->Accuracy;
    EXPECT_NEAR(Rec->ConfidenceAfter, Conf, 1e-12);
  }
}
