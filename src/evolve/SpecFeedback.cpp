//===- evolve/SpecFeedback.cpp --------------------------------------------==//

#include "evolve/SpecFeedback.h"

#include "support/Format.h"
#include "support/Stats.h"

using namespace evm;
using namespace evm::evolve;

std::vector<std::string> SpecFeedback::droppableFeatures() const {
  std::vector<std::string> Out;
  for (const FeatureReport &F : Features)
    if (!F.UsedByModels)
      Out.push_back(F.Name);
  return Out;
}

std::vector<std::string> SpecFeedback::constantFeatures() const {
  std::vector<std::string> Out;
  for (const FeatureReport &F : Features)
    if (!F.Varied)
      Out.push_back(F.Name);
  return Out;
}

std::string SpecFeedback::render() const {
  std::string Out = formatString(
      "XICL specification feedback after %zu runs\n", RunsObserved);
  Out += formatString("  recent prediction accuracy: %.3f (trend %+.3f)\n",
                      MeanRecentAccuracy, AccuracyTrend);
  for (const FeatureReport &F : Features) {
    Out += formatString("  %-28s %s%s\n", F.Name.c_str(),
                        F.Varied ? "varies" : "constant",
                        F.UsedByModels ? ", used by models"
                                       : ", never used by models");
  }
  auto Droppable = droppableFeatures();
  if (!Droppable.empty()) {
    Out += "  suggestion: these attrs never reduced impurity and could be "
           "dropped:\n   ";
    for (const std::string &Name : Droppable)
      Out += " " + Name;
    Out += "\n";
  }
  if (LikelyMissingFeature)
    Out += "  suggestion: accuracy has plateaued low; the specification is "
           "likely missing\n  an input feature that matters (consider an "
           "m* extractor or updateV()).\n";
  return Out;
}

SpecFeedback SpecFeedbackCollector::analyze(const ModelBuilder &Model) const {
  SpecFeedback FB;
  FB.RunsObserved = Model.numRuns();

  const ml::Dataset &D = Model.encodedRuns();
  std::set<std::string> Used = Model.usedFeatureNames();
  for (size_t Column = 0; Column != D.numFeatures(); ++Column) {
    FeatureReport R;
    R.Name = D.schema()[Column].Name;
    R.UsedByModels = Used.count(R.Name) != 0;
    for (size_t Row = 1; Row < D.numExamples(); ++Row)
      if (D.example(Row).Values[Column] != D.example(0).Values[Column]) {
        R.Varied = true;
        break;
      }
    FB.Features.push_back(std::move(R));
  }

  if (Accuracies.size() >= 4) {
    size_t Third = Accuracies.size() / 3;
    std::vector<double> Early(Accuracies.begin(),
                              Accuracies.begin() + Third);
    std::vector<double> Late(Accuracies.end() - Third, Accuracies.end());
    FB.AccuracyTrend = mean(Late) - mean(Early);
    FB.MeanRecentAccuracy = mean(Late);
  } else if (!Accuracies.empty()) {
    FB.MeanRecentAccuracy = mean(Accuracies);
  }
  FB.LikelyMissingFeature = Accuracies.size() >= 10 &&
                            FB.MeanRecentAccuracy < 0.7 &&
                            FB.AccuracyTrend < 0.05;
  return FB;
}
