//===- tests/test_harness.cpp - Scenario runner invariants ----------------==//

#include "harness/Scenario.h"

#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace evm;
using namespace evm::harness;

namespace {

constexpr uint64_t Seed = 20090301;

ExperimentConfig config() {
  ExperimentConfig C;
  C.Seed = Seed;
  return C;
}

} // namespace

TEST(ScenarioRunnerTest, InputOrderDeterministicPerSeed) {
  wl::Workload W = wl::buildRouteExample(Seed, 20);
  ScenarioRunner Runner(W, config());
  auto A = Runner.makeInputOrder(1, 15);
  auto B = Runner.makeInputOrder(1, 15);
  auto C = Runner.makeInputOrder(2, 15);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  for (size_t I : A)
    EXPECT_LT(I, W.Inputs.size());
}

TEST(ScenarioRunnerTest, DefaultCyclesCached) {
  wl::Workload W = wl::buildRouteExample(Seed, 8);
  ScenarioRunner Runner(W, config());
  uint64_t C1 = Runner.defaultCycles(3);
  uint64_t C2 = Runner.defaultCycles(3);
  EXPECT_EQ(C1, C2);
  EXPECT_GT(C1, 0u);
}

TEST(ScenarioRunnerTest, DefaultScenarioSpeedupIsOne) {
  wl::Workload W = wl::buildRouteExample(Seed, 8);
  ScenarioRunner Runner(W, config());
  auto Order = Runner.makeInputOrder(1, 6);
  ScenarioResult R = Runner.runDefault(Order);
  ASSERT_EQ(R.Runs.size(), Order.size());
  for (const RunMetrics &M : R.Runs)
    EXPECT_DOUBLE_EQ(M.SpeedupVsDefault, 1.0);
}

TEST(ScenarioRunnerTest, AllScenariosReplaySameInputs) {
  wl::Workload W = wl::buildRouteExample(Seed, 10);
  ScenarioRunner Runner(W, config());
  auto Order = Runner.makeInputOrder(1, 8);
  ScenarioResult D = Runner.runDefault(Order);
  ScenarioResult Rp = Runner.runRep(Order);
  ScenarioResult Ev = Runner.runEvolve(Order);
  ASSERT_EQ(D.Runs.size(), Rp.Runs.size());
  ASSERT_EQ(D.Runs.size(), Ev.Runs.size());
  for (size_t I = 0; I != D.Runs.size(); ++I) {
    EXPECT_EQ(D.Runs[I].InputIndex, Rp.Runs[I].InputIndex);
    EXPECT_EQ(D.Runs[I].InputIndex, Ev.Runs[I].InputIndex);
  }
}

TEST(ScenarioRunnerTest, EvolveEventuallyPredictsAndWins) {
  wl::Workload W = wl::buildRouteExample(Seed, 24);
  ScenarioRunner Runner(W, config());
  auto Order = Runner.makeInputOrder(1, 24);
  ScenarioResult Ev = Runner.runEvolve(Order);

  // Confidence reaches the guard and prediction engages.
  EXPECT_GT(Ev.FinalConfidence, 0.7);
  size_t Predicted = 0;
  for (const RunMetrics &M : Ev.Runs)
    Predicted += M.UsedPrediction ? 1 : 0;
  EXPECT_GT(Predicted, Ev.Runs.size() / 2);

  // Predicted runs beat the default on average.
  std::vector<double> PredictedSpeedups;
  for (const RunMetrics &M : Ev.Runs)
    if (M.UsedPrediction)
      PredictedSpeedups.push_back(M.SpeedupVsDefault);
  EXPECT_GT(mean(PredictedSpeedups), 1.02);
}

TEST(ScenarioRunnerTest, EvolveAggregatesPopulated) {
  wl::Workload W = wl::buildRouteExample(Seed, 16);
  ScenarioRunner Runner(W, config());
  auto Order = Runner.makeInputOrder(1, 12);
  ScenarioResult Ev = Runner.runEvolve(Order);
  EXPECT_GT(Ev.RawFeatures, 0u);
  EXPECT_LE(Ev.UsedFeatures, Ev.RawFeatures);
  EXPECT_GT(Ev.MeanAccuracy, 0.5);
  EXPECT_GT(Ev.MeanConfidence, 0.0);
}

TEST(ScenarioRunnerTest, RepUsesHistoryWithoutGuard) {
  wl::Workload W = wl::buildRouteExample(Seed, 16);
  ScenarioRunner Runner(W, config());
  auto Order = Runner.makeInputOrder(1, 12);
  ScenarioResult Rp = Runner.runRep(Order);
  ASSERT_EQ(Rp.Runs.size(), 12u);
  // Rep typically matches or beats the default (the adaptive system still
  // runs underneath), though its unguarded average strategy may over-
  // compile individual short runs — the paper's Fig. 10 shows the same
  // sub-1.0 minima.
  std::vector<double> S;
  for (const RunMetrics &M : Rp.Runs) {
    EXPECT_GT(M.SpeedupVsDefault, 0.65);
    S.push_back(M.SpeedupVsDefault);
  }
  EXPECT_GE(median(S), 0.97);
}

TEST(ScenarioRunnerTest, RecommendedRunsFollowPaperRule) {
  ExperimentConfig C = config();
  wl::Workload Small = wl::buildWorkload("Search", Seed); // 6 inputs
  wl::Workload Big = wl::buildWorkload("Mtrt", Seed);     // 92 inputs
  EXPECT_EQ(ScenarioRunner(Small, C).recommendedRuns(), 30u);
  EXPECT_EQ(ScenarioRunner(Big, C).recommendedRuns(), 70u);
}

TEST(ScenarioRunnerTest, OverheadStaysTiny) {
  wl::Workload W = wl::buildRouteExample(Seed, 12);
  ScenarioRunner Runner(W, config());
  auto Order = Runner.makeInputOrder(1, 10);
  ScenarioResult Ev = Runner.runEvolve(Order);
  for (const RunMetrics &M : Ev.Runs) {
    double Fraction = static_cast<double>(M.OverheadCycles) /
                      static_cast<double>(M.Cycles);
    EXPECT_LT(Fraction, 0.05) << "overhead " << M.OverheadCycles << " of "
                              << M.Cycles;
  }
}
