//===- support/Stats.h - Descriptive statistics and run-series analytics --===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Descriptive statistics (mean/median/quantile/box-plot summaries) used by
/// the experiment harness to regenerate the paper's Figure 10 boxplots and
/// Table I aggregates, and by the metrics registry's histograms.
///
/// Steady-state analytics for per-iteration run series, after Barrett et
/// al.'s "Virtual Machine Warmup Blows Hot and Cold": per-run means hide
/// non-warmup pathologies (slowdowns, cycles, no steady state at all), so
/// every bench series is segmented with a changepoint detector and
/// classified before any mean is trusted.
///
/// The pipeline is:
///
///   1. detectChangepoints — PELT (Killick et al.) over a squared-error
///      mean-shift cost with a BIC-style penalty scaled by a robust
///      first-difference noise estimate.  Exact for the cost used, O(n^2)
///      worst case (series here are tens to hundreds of iterations).
///   2. analyzeSeries — classifies the segmented series as one of
///      flat / warmup / slowdown / cyclic / no-steady-state, identifies the
///      steady-state window (the maximal suffix of segments whose means
///      agree with the final segment), and summarizes it with a
///      deterministic percentile-bootstrap confidence interval of the mean.
///   3. renderSeriesJson — the stable JSON rendering bench --json documents
///      embed (see bench/BenchJson.h) and tools/bench-compare and
///      tools/evm-warmup consume.
///
/// Everything is deterministic: the bootstrap uses a fixed-seed xorshift
/// generator, so identical series render byte-identical JSON.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_SUPPORT_STATS_H
#define EVM_SUPPORT_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace evm {

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double> &Samples);

/// Sample standard deviation (N-1 denominator); 0 for fewer than 2 samples.
double stddev(const std::vector<double> &Samples);

/// Linear-interpolation quantile for \p Q in [0, 1]; asserts on empty input.
double quantile(std::vector<double> Samples, double Q);

/// Median (the 0.5 quantile).
double median(const std::vector<double> &Samples);

/// Geometric mean; asserts all samples are positive.
double geomean(const std::vector<double> &Samples);

/// Five-number summary backing one box of a Figure-10-style boxplot.
struct BoxStats {
  double Min = 0;
  double Q25 = 0;
  double Median = 0;
  double Q75 = 0;
  double Max = 0;
  size_t Count = 0;
};

/// Computes the five-number summary of \p Samples; asserts on empty input.
BoxStats computeBoxStats(const std::vector<double> &Samples);

/// Pearson correlation coefficient; 0 when either side has no variance.
double pearsonCorrelation(const std::vector<double> &Xs,
                          const std::vector<double> &Ys);

/// What shape a per-iteration series has (Barrett et al.'s taxonomy, with
/// "good inconsistent" collapsed into the per-shape classes).
enum class SeriesClass : uint8_t {
  Flat,          ///< one steady segment from the first iteration
  Warmup,        ///< reaches a steady state faster than it started
  Slowdown,      ///< reaches a steady state slower than it started
  Cyclic,        ///< alternates between repeated levels; no single steady mean
  NoSteadyState, ///< still shifting when the series ends
};

/// Stable lowercase name ("flat", "warmup", "slowdown", "cyclic",
/// "no-steady-state") used in JSON documents and reports.
const char *seriesClassName(SeriesClass C);

/// Parses a seriesClassName back; returns false on unknown names.
bool seriesClassFromName(const std::string &Name, SeriesClass &Out);

/// One homogeneous segment [Begin, End) of a series.
struct SeriesSegment {
  size_t Begin = 0; ///< inclusive
  size_t End = 0;   ///< exclusive
  double Mean = 0;
  double Stddev = 0;
  size_t length() const { return End - Begin; }
};

/// The steady-state window and its bootstrap confidence interval.
struct SteadyStateSummary {
  size_t Begin = 0; ///< first iteration inside the steady window
  size_t Count = 0; ///< iterations inside the window
  double Mean = 0;
  double CILow = 0;  ///< percentile-bootstrap CI of the mean
  double CIHigh = 0;
};

/// Knobs for segmentation, classification, and the bootstrap.  The
/// defaults suit virtual-clock bench series (tens to hundreds of
/// iterations, relative shifts of a few percent or more).
struct SeriesOptions {
  /// Changepoint penalty; 0 selects the automatic BIC-style penalty
  /// (3 * sigma^2 * log n, sigma estimated robustly from first
  /// differences so mean shifts do not inflate it).
  double Penalty = 0;
  /// Minimum segment length the detector may emit.
  size_t MinSegment = 3;
  /// Segment means within this relative distance (of the series scale)
  /// count as equal for steady-window extension and classification.
  double RelTolerance = 0.02;
  /// The steady window must cover at least this fraction of the series
  /// (and at least MinSegment iterations), else: no steady state.
  double SteadyTailFraction = 0.25;
  /// Percentile-bootstrap resamples for the steady-mean CI.
  size_t BootstrapResamples = 200;
  /// Two-sided CI confidence level.
  double Confidence = 0.95;
  /// Bootstrap RNG seed (fixed so renderings are byte-stable).
  uint64_t BootstrapSeed = 20090301;
  /// True when smaller samples are better (cycles, latency): warmup means
  /// the steady state is *below* the start.  False for speedup-like
  /// series, where warmup means the steady state is *above* the start.
  bool LowerIsBetter = true;
};

/// Everything analyzeSeries derives from one series.
struct SeriesAnalysis {
  std::vector<SeriesSegment> Segments; ///< covers [0, n), in order
  std::vector<size_t> Changepoints;    ///< interior segment starts
  SeriesClass Class = SeriesClass::Flat;
  bool HasSteadyState = false; ///< false for cyclic / no-steady-state
  SteadyStateSummary Steady;   ///< meaningful only when HasSteadyState
};

/// PELT changepoint detection over \p Series.  Returns the interior
/// segment start indices, ascending (empty = one homogeneous segment).
std::vector<size_t> detectChangepoints(const std::vector<double> &Series,
                                       const SeriesOptions &Opts = {});

/// Segments, classifies, and summarizes \p Series.  Empty input yields an
/// empty no-steady-state analysis; short input (under 2 * MinSegment)
/// yields a single flat segment.
SeriesAnalysis analyzeSeries(const std::vector<double> &Series,
                             const SeriesOptions &Opts = {});

/// Deterministic percentile-bootstrap CI of the mean of \p Samples.
/// Degenerate inputs never divide by zero: empty gives [0, 0], a single
/// sample (or all-identical samples) gives [x, x].
void bootstrapMeanCI(const std::vector<double> &Samples, double Confidence,
                     size_t Resamples, uint64_t Seed, double &Low,
                     double &High);

/// Stable JSON rendering of one named series and its analysis, as embedded
/// in bench --json documents:
///
///   {"name":"...","unit":"...","lower_is_better":true,
///    "samples":[...],
///    "analysis":{"class":"warmup","changepoints":[30],
///      "segments":[{"begin":0,"end":30,"mean":...},...],
///      "steady":{"begin":30,"count":70,"mean":...,
///                "ci_low":...,"ci_high":...}}}
///
/// The "steady" object is omitted when the series has no steady state.
std::string renderSeriesJson(const std::string &Name, const std::string &Unit,
                             bool LowerIsBetter,
                             const std::vector<double> &Samples,
                             const SeriesAnalysis &Analysis);

/// The module's built-in regression check: synthetic warmup / slowdown /
/// flat / cyclic / no-steady-state series with known changepoints must
/// segment within +/- 1 iteration and classify exactly; bootstrap CIs must
/// cover the true mean and stay well-defined on degenerate inputs.
/// Returns the number of failed checks (0 = pass); prints one PASS/FAIL
/// line per check when \p Verbose.
int statsSelfTest(bool Verbose);

} // namespace evm

#endif // EVM_SUPPORT_STATS_H
