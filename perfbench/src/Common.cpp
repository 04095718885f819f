//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "harness/Scenario.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>

#include <sys/resource.h>

using namespace evm;
using namespace perfbench;

uint64_t perfbench::fnv1a(const std::string &S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t perfbench::streamSeed(uint64_t Variant, const std::string &Tag) {
  return fnv1a(Tag) ^ ((Variant + 1) * 0x9e3779b97f4a7c15ULL);
}

std::vector<size_t> perfbench::makeStream(size_t NumInputs, size_t Length,
                                          uint64_t Seed) {
  std::vector<size_t> Order(Length);
  for (size_t K = 0; K != Length; ++K)
    Order[K] = K * NumInputs / Length;
  BenchRng R(Seed);
  for (size_t I = Length; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

std::unique_ptr<AppStream> perfbench::buildApp(const std::string &Name) {
  auto A = std::make_unique<AppStream>();
  A->Name = Name;
  A->W = wl::buildWorkload(Name, 1);
  A->W.registerMethods(A->Registry);
  A->W.populateFileStore(A->Files);
  return A;
}

evolve::EvolveConfig perfbench::evolveConfig() {
  return harness::makeEvolveConfig(harness::ExperimentConfig());
}

namespace {
std::string valueText(const bc::Value &V) {
  char Buf[64];
  if (V.isInt())
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, V.asInt());
  else
    std::snprintf(Buf, sizeof(Buf), "%.17gf", V.asFloat());
  return Buf;
}

std::string levelsText(const evolve::MethodLevelStrategy &S) {
  std::string Out;
  for (vm::OptLevel L : S.Levels) {
    Out += std::to_string(static_cast<int>(L));
    Out += ',';
  }
  return Out;
}
} // namespace

std::string perfbench::runLine(const std::string &App, size_t Input,
                               const evolve::EvolveRunRecord &R) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s|%zu|%" PRIu64 "|%d|%d|%.17g|",
                App.c_str(), Input, R.Result.Cycles, R.UsedPrediction ? 1 : 0,
                R.HadPrediction ? 1 : 0, R.Accuracy);
  return Buf + valueText(R.Result.ReturnValue) + "|" +
         levelsText(R.Predicted) + "|" + levelsText(R.Ideal) + "\n";
}

std::string perfbench::servedLine(const std::string &App, uint64_t Run,
                                  uint64_t Cycles, const std::string &Ret,
                                  int Used, int Had, double Acc) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s|%" PRIu64 "|%" PRIu64 "|%d|%d|%.17g|",
                App.c_str(), Run, Cycles, Used, Had, Acc);
  return Buf + Ret + "\n";
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::medianOf(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

double perfbench::meanOf(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  return std::accumulate(V.begin(), V.end(), 0.0) /
         static_cast<double>(V.size());
}

std::vector<double>
perfbench::positionMin(const std::vector<std::vector<double>> &V) {
  std::vector<double> Out = V.empty() ? std::vector<double>() : V[0];
  for (const std::vector<double> &Row : V)
    for (size_t I = 0; I != Out.size() && I != Row.size(); ++I)
      Out[I] = std::min(Out[I], Row[I]);
  return Out;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void Outcome::digest(const std::string &App, const std::string &Digest) {
  auto [It, Inserted] = Digests.emplace(App, Digest);
  if (!Inserted && It->second != Digest)
    fail("digest of " + App + " differs between repetitions of one run");
}
