//===- perfbench/src/Common.h - Shared benchmark plumbing ---------------===//
///
/// \file
/// Options, seeded input generation, digests, statistics and the result
/// record shared by the three workloads.  Input generation uses the
/// benchmark's own generator, never the program's, so a change to the
/// program cannot change which inputs the benchmark feeds it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Spans.h"

#include "evolve/EvolvableVM.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Reference digests exist for this many input variants per workload; the
/// seed picks variant = seed % NumVariants.
constexpr uint64_t NumVariants = 16;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  std::string WorkDir;   ///< scratch space inside the checkout
  std::string TracePath; ///< where the traced run writes its spans
  bool Record = false;   ///< digest-only pass that prints the digests
  uint64_t variant() const { return Seed % NumVariants; }
};

/// splitmix64: small, seedable, and independent of the program's Rng.
class BenchRng {
public:
  explicit BenchRng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in (0, 1].
  double unit() {
    return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
  }

private:
  uint64_t State;
};

uint64_t fnv1a(const std::string &S, uint64_t H = 0xcbf29ce484222325ULL);

/// Seed for one named stream of one variant.
uint64_t streamSeed(uint64_t Variant, const std::string &Tag);

/// A seeded permutation of a fixed multiset: element k of the multiset is
/// input k * NumInputs / Length, so the inputs are spread evenly over the
/// app's input list and, when Length >= NumInputs, each appears
/// floor(Length / NumInputs) or one more times.  Every variant therefore
/// runs the same inputs, and only the order changes — which is what the
/// evolvable VM's learning depends on.
std::vector<size_t> makeStream(size_t NumInputs, size_t Length,
                               uint64_t Seed);

/// One application with its input stream, ready to run.
struct AppStream {
  std::string Name;
  evm::wl::Workload W;
  evm::xicl::XFMethodRegistry Registry;
  evm::xicl::FileStore Files;
  std::vector<size_t> Order;
};

/// Builds \p Name with workload build seed 1, as the paper benches use;
/// the caller fills in the stream.
std::unique_ptr<AppStream> buildApp(const std::string &Name);

/// The EvolveConfig every benchmark VM and the server lanes share.
evm::evolve::EvolveConfig evolveConfig();

/// Canonical digest line of one production run: the virtual results only.
std::string runLine(const std::string &App, size_t Input,
                    const evm::evolve::EvolveRunRecord &R);
/// The subset a served response carries (cycles, return value, guard
/// outcome, accuracy), rendered the same way from a record or a response.
std::string servedLine(const std::string &App, uint64_t Run, uint64_t Cycles,
                       const std::string &Ret, int Used, int Had,
                       double Acc);

/// Linear-interpolation percentile (P in [0, 100]); 0 for no samples.
double percentile(std::vector<double> V, double P);
double medianOf(std::vector<double> V);
double meanOf(const std::vector<double> &V);
/// Element-wise minimum of equally long sample vectors.
std::vector<double> positionMin(const std::vector<std::vector<double>> &V);

/// Peak resident set of this process, MB.
double peakRssMb();

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Everything one benchmark invocation reports.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems; ///< correctness failures, for stderr
  std::map<std::string, Metric> Metrics;
  std::map<std::string, double> Detail; ///< sample counts and context
  /// Per-app digest of every repetition; all must agree with the reference.
  std::map<std::string, std::string> Digests;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  void fail(const std::string &Why) {
    ++Failed;
    Problems.push_back(Why);
  }
  /// Records \p Digest for \p App, failing on disagreement between reps.
  void digest(const std::string &App, const std::string &Digest);
};

Outcome runPaperSuite(const Options &O);
Outcome runLongStream(const Options &O);
Outcome runServeMix(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
