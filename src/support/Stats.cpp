//===- support/Stats.cpp --------------------------------------------------==//

#include "support/Stats.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

using namespace evm;

double evm::mean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  double Sum = 0;
  for (double S : Samples)
    Sum += S;
  return Sum / static_cast<double>(Samples.size());
}

double evm::stddev(const std::vector<double> &Samples) {
  if (Samples.size() < 2)
    return 0;
  double M = mean(Samples);
  double SumSq = 0;
  for (double S : Samples)
    SumSq += (S - M) * (S - M);
  return std::sqrt(SumSq / static_cast<double>(Samples.size() - 1));
}

double evm::quantile(std::vector<double> Samples, double Q) {
  assert(!Samples.empty() && "quantile of empty sample");
  assert(Q >= 0.0 && Q <= 1.0 && "quantile outside [0,1]");
  std::sort(Samples.begin(), Samples.end());
  if (Samples.size() == 1)
    return Samples.front();
  double Position = Q * static_cast<double>(Samples.size() - 1);
  size_t Lower = static_cast<size_t>(Position);
  size_t Upper = std::min(Lower + 1, Samples.size() - 1);
  double Fraction = Position - static_cast<double>(Lower);
  return Samples[Lower] + Fraction * (Samples[Upper] - Samples[Lower]);
}

double evm::median(const std::vector<double> &Samples) {
  return quantile(Samples, 0.5);
}

double evm::geomean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  double LogSum = 0;
  for (double S : Samples) {
    assert(S > 0 && "geomean requires positive samples");
    LogSum += std::log(S);
  }
  return std::exp(LogSum / static_cast<double>(Samples.size()));
}

BoxStats evm::computeBoxStats(const std::vector<double> &Samples) {
  assert(!Samples.empty() && "boxplot of empty sample");
  BoxStats Stats;
  Stats.Min = quantile(Samples, 0.0);
  Stats.Q25 = quantile(Samples, 0.25);
  Stats.Median = quantile(Samples, 0.5);
  Stats.Q75 = quantile(Samples, 0.75);
  Stats.Max = quantile(Samples, 1.0);
  Stats.Count = Samples.size();
  return Stats;
}

double evm::pearsonCorrelation(const std::vector<double> &Xs,
                               const std::vector<double> &Ys) {
  assert(Xs.size() == Ys.size() && "mismatched sample sizes");
  if (Xs.size() < 2)
    return 0;
  double MX = mean(Xs), MY = mean(Ys);
  double Cov = 0, VarX = 0, VarY = 0;
  for (size_t I = 0, E = Xs.size(); I != E; ++I) {
    Cov += (Xs[I] - MX) * (Ys[I] - MY);
    VarX += (Xs[I] - MX) * (Xs[I] - MX);
    VarY += (Ys[I] - MY) * (Ys[I] - MY);
  }
  if (VarX == 0 || VarY == 0)
    return 0;
  return Cov / std::sqrt(VarX * VarY);
}

const char *evm::seriesClassName(SeriesClass C) {
  switch (C) {
  case SeriesClass::Flat:
    return "flat";
  case SeriesClass::Warmup:
    return "warmup";
  case SeriesClass::Slowdown:
    return "slowdown";
  case SeriesClass::Cyclic:
    return "cyclic";
  case SeriesClass::NoSteadyState:
    return "no-steady-state";
  }
  return "?";
}

bool evm::seriesClassFromName(const std::string &Name, SeriesClass &Out) {
  for (SeriesClass C :
       {SeriesClass::Flat, SeriesClass::Warmup, SeriesClass::Slowdown,
        SeriesClass::Cyclic, SeriesClass::NoSteadyState}) {
    if (Name == seriesClassName(C)) {
      Out = C;
      return true;
    }
  }
  return false;
}

namespace {

/// Prefix sums backing O(1) segment SSE queries.
struct PrefixSums {
  std::vector<double> S1, S2; // S1[i] = sum x[0..i), S2[i] = sum x^2[0..i)

  explicit PrefixSums(const std::vector<double> &Xs)
      : S1(Xs.size() + 1, 0), S2(Xs.size() + 1, 0) {
    for (size_t I = 0; I != Xs.size(); ++I) {
      S1[I + 1] = S1[I] + Xs[I];
      S2[I + 1] = S2[I] + Xs[I] * Xs[I];
    }
  }

  /// Sum of squared deviations from the segment mean over [Begin, End).
  double sse(size_t Begin, size_t End) const {
    double N = static_cast<double>(End - Begin);
    if (N <= 0)
      return 0;
    double Sum = S1[End] - S1[Begin];
    double SumSq = S2[End] - S2[Begin];
    double Sse = SumSq - Sum * Sum / N;
    return Sse > 0 ? Sse : 0; // clamp float cancellation
  }

  double segMean(size_t Begin, size_t End) const {
    return End > Begin
               ? (S1[End] - S1[Begin]) / static_cast<double>(End - Begin)
               : 0;
  }
};

/// Robust noise scale from first differences: mean shifts only touch a
/// handful of diffs, so the median absolute difference tracks the
/// within-segment noise even across big level changes.  For iid N(0, s^2)
/// noise, median|x[i+1] - x[i]| = 0.9539 s.
double robustNoiseSigma(const std::vector<double> &Xs) {
  if (Xs.size() < 3)
    return 0;
  std::vector<double> AbsDiffs;
  AbsDiffs.reserve(Xs.size() - 1);
  for (size_t I = 0; I + 1 != Xs.size(); ++I)
    AbsDiffs.push_back(std::fabs(Xs[I + 1] - Xs[I]));
  return median(AbsDiffs) / 0.9539;
}

double seriesScale(const std::vector<double> &Xs) {
  double Scale = 0;
  for (double X : Xs)
    Scale = std::max(Scale, std::fabs(X));
  return Scale;
}

/// xorshift64* — deterministic, seeded, state in one word.
struct SplitRng {
  uint64_t State;
  explicit SplitRng(uint64_t Seed)
      : State(Seed ? Seed : 0x9e3779b97f4a7c15ULL) {}
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1DULL;
  }
};

} // namespace

std::vector<size_t> evm::detectChangepoints(const std::vector<double> &Series,
                                            const SeriesOptions &Opts) {
  size_t N = Series.size();
  size_t MinSeg = std::max<size_t>(Opts.MinSegment, 1);
  if (N < 2 * MinSeg)
    return {};

  PrefixSums P(Series);
  double Penalty = Opts.Penalty;
  if (Penalty <= 0) {
    double Sigma = robustNoiseSigma(Series);
    double Scale = seriesScale(Series);
    // Floor the noise estimate so noiseless (virtual-clock) series get a
    // tiny positive penalty: splits must strictly reduce the cost.
    double Sigma2 = std::max(Sigma * Sigma, 1e-18 * Scale * Scale + 1e-300);
    Penalty = 3.0 * Sigma2 * std::log(static_cast<double>(std::max<size_t>(
                                 N, 2)));
  }

  // PELT over the mean-shift SSE cost: F[t] = best cost of segmenting
  // [0, t); Prev[t] = the segment start that achieved it.  Ties prefer
  // fewer changepoints, then the longer final segment, so results are
  // deterministic across platforms.
  constexpr double Inf = std::numeric_limits<double>::infinity();
  constexpr double Eps = 1e-9;
  std::vector<double> F(N + 1, Inf);
  std::vector<size_t> Prev(N + 1, 0), NumCps(N + 1, 0);
  F[0] = -Penalty;
  std::vector<size_t> Cands{0};
  std::vector<size_t> Kept;
  for (size_t T = MinSeg; T <= N; ++T) {
    double Best = Inf;
    size_t BestS = 0, BestCps = 0;
    for (size_t S : Cands) {
      if (T - S < MinSeg || F[S] == Inf)
        continue;
      double V = F[S] + P.sse(S, T) + Penalty;
      size_t Cps = NumCps[S] + (S > 0 ? 1 : 0);
      bool Better = V < Best - Eps ||
                    (V <= Best + Eps &&
                     (Cps < BestCps || (Cps == BestCps && S < BestS)));
      if (Best == Inf || Better) {
        Best = V;
        BestS = S;
        BestCps = Cps;
      }
    }
    F[T] = Best;
    Prev[T] = BestS;
    NumCps[T] = BestCps;
    // PELT pruning: a candidate whose partial cost already exceeds F[T]
    // can never win later (the SSE cost is superadditive under splits).
    Kept.clear();
    for (size_t S : Cands)
      if (T - S < MinSeg || F[S] == Inf || F[S] + P.sse(S, T) <= F[T] + Eps)
        Kept.push_back(S);
    Kept.push_back(T);
    Cands.swap(Kept);
  }

  std::vector<size_t> Cps;
  for (size_t T = N; T > 0 && Prev[T] > 0; T = Prev[T])
    Cps.push_back(Prev[T]);
  std::sort(Cps.begin(), Cps.end());
  return Cps;
}

void evm::bootstrapMeanCI(const std::vector<double> &Samples,
                          double Confidence, size_t Resamples, uint64_t Seed,
                          double &Low, double &High) {
  size_t N = Samples.size();
  if (N == 0) {
    Low = High = 0;
    return;
  }
  double M = mean(Samples);
  if (N == 1 || Resamples == 0) {
    Low = High = N == 1 ? Samples.front() : M;
    return;
  }
  SplitRng Rng(Seed);
  std::vector<double> Means;
  Means.reserve(Resamples);
  for (size_t R = 0; R != Resamples; ++R) {
    double Sum = 0;
    for (size_t I = 0; I != N; ++I)
      Sum += Samples[Rng.next() % N];
    Means.push_back(Sum / static_cast<double>(N));
  }
  double Alpha = (1.0 - Confidence) / 2.0;
  Low = quantile(Means, Alpha);
  High = quantile(Means, 1.0 - Alpha);
}

SeriesAnalysis evm::analyzeSeries(const std::vector<double> &Series,
                                  const SeriesOptions &Opts) {
  SeriesAnalysis A;
  size_t N = Series.size();
  if (N == 0) {
    A.Class = SeriesClass::NoSteadyState;
    return A;
  }

  PrefixSums P(Series);
  auto makeSegment = [&](size_t Begin, size_t End) {
    SeriesSegment Seg;
    Seg.Begin = Begin;
    Seg.End = End;
    Seg.Mean = P.segMean(Begin, End);
    Seg.Stddev = End - Begin >= 2
                     ? std::sqrt(P.sse(Begin, End) /
                                 static_cast<double>(End - Begin - 1))
                     : 0;
    return Seg;
  };

  A.Changepoints = detectChangepoints(Series, Opts);
  size_t Begin = 0;
  for (size_t Cp : A.Changepoints) {
    A.Segments.push_back(makeSegment(Begin, Cp));
    Begin = Cp;
  }
  A.Segments.push_back(makeSegment(Begin, N));

  double Tol = Opts.RelTolerance * seriesScale(Series);
  const SeriesSegment &Last = A.Segments.back();

  // Cyclic: four or more segments whose means strictly alternate up/down
  // by more than the tolerance — the series revisits levels rather than
  // settling on one.
  if (A.Segments.size() >= 4) {
    bool Alternating = true;
    double PrevDelta = 0;
    for (size_t I = 1; I != A.Segments.size() && Alternating; ++I) {
      double Delta = A.Segments[I].Mean - A.Segments[I - 1].Mean;
      if (std::fabs(Delta) <= Tol || (I > 1 && Delta * PrevDelta >= 0))
        Alternating = false;
      PrevDelta = Delta;
    }
    if (Alternating) {
      A.Class = SeriesClass::Cyclic;
      return A;
    }
  }

  // Steady window: the maximal suffix of segments whose means agree with
  // the final segment.
  size_t SteadyBegin = Last.Begin;
  for (size_t I = A.Segments.size(); I-- > 0;) {
    if (std::fabs(A.Segments[I].Mean - Last.Mean) > Tol)
      break;
    SteadyBegin = A.Segments[I].Begin;
  }
  size_t SteadyCount = N - SteadyBegin;
  size_t MinSteady = std::max<size_t>(
      Opts.MinSegment, static_cast<size_t>(Opts.SteadyTailFraction *
                                           static_cast<double>(N)));
  if (SteadyCount < MinSteady) {
    A.Class = SeriesClass::NoSteadyState;
    return A;
  }

  A.HasSteadyState = true;
  A.Steady.Begin = SteadyBegin;
  A.Steady.Count = SteadyCount;
  std::vector<double> SteadySamples(Series.begin() +
                                        static_cast<ptrdiff_t>(SteadyBegin),
                                    Series.end());
  A.Steady.Mean = mean(SteadySamples);
  bootstrapMeanCI(SteadySamples, Opts.Confidence, Opts.BootstrapResamples,
                  Opts.BootstrapSeed, A.Steady.CILow, A.Steady.CIHigh);

  if (SteadyBegin == 0) {
    A.Class = SeriesClass::Flat;
    return A;
  }
  double PreMean = P.segMean(0, SteadyBegin);
  double Delta = A.Steady.Mean - PreMean;
  if (std::fabs(Delta) <= Tol) {
    A.Class = SeriesClass::Flat; // a mid-series blip that came back
    return A;
  }
  bool Improved = Opts.LowerIsBetter ? Delta < 0 : Delta > 0;
  A.Class = Improved ? SeriesClass::Warmup : SeriesClass::Slowdown;
  return A;
}

std::string evm::renderSeriesJson(const std::string &Name,
                                  const std::string &Unit, bool LowerIsBetter,
                                  const std::vector<double> &Samples,
                                  const SeriesAnalysis &Analysis) {
  std::string Out =
      formatString("{\"name\":\"%s\",\"unit\":\"%s\",\"lower_is_better\":%s,"
                   "\"samples\":[",
                   Name.c_str(), Unit.c_str(),
                   LowerIsBetter ? "true" : "false");
  for (size_t I = 0; I != Samples.size(); ++I) {
    if (I)
      Out += ',';
    Out += formatString("%.17g", Samples[I]);
  }
  Out += formatString("],\"analysis\":{\"class\":\"%s\",\"changepoints\":[",
                      seriesClassName(Analysis.Class));
  for (size_t I = 0; I != Analysis.Changepoints.size(); ++I) {
    if (I)
      Out += ',';
    Out += formatString("%zu", Analysis.Changepoints[I]);
  }
  Out += "],\"segments\":[";
  for (size_t I = 0; I != Analysis.Segments.size(); ++I) {
    const SeriesSegment &S = Analysis.Segments[I];
    if (I)
      Out += ',';
    Out += formatString(
        "{\"begin\":%zu,\"end\":%zu,\"mean\":%.17g,\"stddev\":%.17g}",
        S.Begin, S.End, S.Mean, S.Stddev);
  }
  Out += ']';
  if (Analysis.HasSteadyState)
    Out += formatString(",\"steady\":{\"begin\":%zu,\"count\":%zu,"
                        "\"mean\":%.17g,\"ci_low\":%.17g,\"ci_high\":%.17g}",
                        Analysis.Steady.Begin, Analysis.Steady.Count,
                        Analysis.Steady.Mean, Analysis.Steady.CILow,
                        Analysis.Steady.CIHigh);
  Out += "}}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Self-test
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic uniform noise in [-Amp, Amp].
double noise(SplitRng &Rng, double Amp) {
  return (static_cast<double>(Rng.next() % 20001) / 10000.0 - 1.0) * Amp;
}

/// Builds a piecewise-constant series from (length, mean) legs.
std::vector<double>
makeSteps(const std::vector<std::pair<size_t, double>> &Legs, double Amp,
          uint64_t Seed) {
  SplitRng Rng(Seed);
  std::vector<double> Xs;
  for (const auto &[Len, Mean] : Legs)
    for (size_t I = 0; I != Len; ++I)
      Xs.push_back(Mean + noise(Rng, Amp));
  return Xs;
}

bool changepointsNear(const std::vector<size_t> &Got,
                      const std::vector<size_t> &Want) {
  if (Got.size() != Want.size())
    return false;
  for (size_t I = 0; I != Got.size(); ++I) {
    size_t G = Got[I], W = Want[I];
    if ((G > W ? G - W : W - G) > 1)
      return false;
  }
  return true;
}

} // namespace

int evm::statsSelfTest(bool Verbose) {
  int Failures = 0;
  auto check = [&](const char *Label, bool Ok) {
    if (!Ok)
      ++Failures;
    if (Verbose || !Ok)
      std::printf("%s stats self-test: %s\n", Ok ? "PASS" : "FAIL", Label);
  };

  SeriesOptions Opts;

  // Flat: one segment, steady from iteration 0, CI brackets the mean.
  {
    std::vector<double> Xs = makeSteps({{60, 1000}}, 5, 1);
    SeriesAnalysis A = analyzeSeries(Xs, Opts);
    check("flat classifies flat", A.Class == SeriesClass::Flat);
    check("flat has no changepoints", A.Changepoints.empty());
    check("flat steady covers everything",
          A.HasSteadyState && A.Steady.Begin == 0 && A.Steady.Count == 60);
    check("flat CI brackets the true mean",
          A.Steady.CILow <= 1000.5 && A.Steady.CIHigh >= 999.5 &&
              A.Steady.CILow < A.Steady.CIHigh);
  }

  // Warmup: 30 slow iterations, then 70 fast ones.
  {
    std::vector<double> Xs = makeSteps({{30, 1000}, {70, 800}}, 4, 2);
    SeriesAnalysis A = analyzeSeries(Xs, Opts);
    check("warmup classifies warmup", A.Class == SeriesClass::Warmup);
    check("warmup changepoint within +/-1 of 30",
          changepointsNear(A.Changepoints, {30}));
    check("warmup steady mean near 800",
          A.HasSteadyState && std::fabs(A.Steady.Mean - 800) < 5);
  }

  // Slowdown: settles above where it started.
  {
    std::vector<double> Xs = makeSteps({{40, 500}, {60, 560}}, 4, 3);
    SeriesAnalysis A = analyzeSeries(Xs, Opts);
    check("slowdown classifies slowdown", A.Class == SeriesClass::Slowdown);
    check("slowdown changepoint within +/-1 of 40",
          changepointsNear(A.Changepoints, {40}));
  }

  // Cyclic: eight alternating 12-iteration legs.
  {
    std::vector<std::pair<size_t, double>> Legs;
    for (size_t I = 0; I != 8; ++I)
      Legs.push_back({12, I % 2 ? 1200.0 : 1000.0});
    std::vector<double> Xs = makeSteps(Legs, 4, 4);
    SeriesAnalysis A = analyzeSeries(Xs, Opts);
    check("cyclic classifies cyclic", A.Class == SeriesClass::Cyclic);
    check("cyclic has no steady state", !A.HasSteadyState);
  }

  // No steady state: still shifting when the series ends.
  {
    std::vector<double> Xs =
        makeSteps({{30, 1000}, {30, 900}, {30, 820}, {10, 700}}, 4, 5);
    SeriesAnalysis A = analyzeSeries(Xs, Opts);
    check("shifting tail classifies no-steady-state",
          A.Class == SeriesClass::NoSteadyState);
    check("no-steady-state reports no steady window", !A.HasSteadyState);
  }

  // Noiseless virtual-clock series: exact changepoint recovery.
  {
    std::vector<double> Xs = makeSteps({{20, 100}, {20, 50}}, 0, 6);
    SeriesAnalysis A = analyzeSeries(Xs, Opts);
    check("noiseless step splits exactly at 20",
          A.Changepoints == std::vector<size_t>{20});
    check("noiseless step classifies warmup",
          A.Class == SeriesClass::Warmup);
  }

  // Higher-is-better orientation (speedup series).
  {
    SeriesOptions Up = Opts;
    Up.LowerIsBetter = false;
    std::vector<double> Rise = makeSteps({{25, 1.0}, {50, 1.5}}, 0.01, 7);
    check("rising speedup classifies warmup",
          analyzeSeries(Rise, Up).Class == SeriesClass::Warmup);
    std::vector<double> Fall = makeSteps({{25, 1.5}, {50, 1.0}}, 0.01, 8);
    check("falling speedup classifies slowdown",
          analyzeSeries(Fall, Up).Class == SeriesClass::Slowdown);
  }

  // Bootstrap CI edge cases: never divides by zero, always well-ordered.
  {
    double Low = -1, High = -1;
    bootstrapMeanCI({}, 0.95, 200, 1, Low, High);
    check("empty bootstrap gives [0, 0]", Low == 0 && High == 0);
    bootstrapMeanCI({42.0}, 0.95, 200, 1, Low, High);
    check("single-sample bootstrap collapses to the sample",
          Low == 42.0 && High == 42.0);
    bootstrapMeanCI({7.0, 7.0, 7.0, 7.0}, 0.95, 200, 1, Low, High);
    check("identical-sample bootstrap collapses to the value",
          Low == 7.0 && High == 7.0);
    bootstrapMeanCI({10.0, 20.0}, 0.95, 200, 1, Low, High);
    check("two-sample bootstrap stays inside [min, max]",
          Low >= 10.0 && High <= 20.0 && Low <= High);
    double Low2 = -1, High2 = -1;
    bootstrapMeanCI({10.0, 20.0}, 0.95, 200, 1, Low2, High2);
    check("bootstrap is deterministic", Low == Low2 && High == High2);
  }

  // Short series degrade gracefully: single flat segment, no crash.
  {
    SeriesAnalysis A = analyzeSeries({5.0, 5.0, 5.0}, Opts);
    check("short series is one flat segment",
          A.Class == SeriesClass::Flat && A.Segments.size() == 1 &&
              A.HasSteadyState);
    SeriesAnalysis E = analyzeSeries({}, Opts);
    check("empty series is no-steady-state",
          E.Class == SeriesClass::NoSteadyState && !E.HasSteadyState);
  }

  // JSON rendering is byte-deterministic and carries the classification.
  {
    std::vector<double> Xs = makeSteps({{30, 1000}, {70, 800}}, 4, 2);
    SeriesAnalysis A = analyzeSeries(Xs, Opts);
    std::string J1 = renderSeriesJson("t.cycles", "cycles", true, Xs, A);
    std::string J2 = renderSeriesJson("t.cycles", "cycles", true, Xs, A);
    check("series JSON is deterministic", J1 == J2);
    check("series JSON carries the class",
          J1.find("\"class\":\"warmup\"") != std::string::npos);
    check("series JSON carries the steady CI",
          J1.find("\"ci_low\":") != std::string::npos);
  }

  if (Verbose || Failures)
    std::printf("stats self-test: %s (%d failure%s)\n",
                Failures ? "FAIL" : "ok", Failures, Failures == 1 ? "" : "s");
  return Failures;
}
