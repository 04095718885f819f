//===- perfbench/src/Spans.h - In-memory span recorder -----------------===//
///
/// \file
/// The traced run's recorder.  A span is one call the benchmark makes into
/// a layer of the system: name, host start and end (steady_clock ns since
/// the log was created), the enclosing span, and a request id (serve_mix).
/// Spans stay in memory and are written out once, after the run; the
/// per-layer metrics are derived from them.  A disabled log records
/// nothing, so the untraced run pays one branch per call site.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds between two steady_clock points.
inline int64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count();
}

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int64_t Parent = -1; ///< index of the enclosing span, -1 at the root
  uint64_t Request = 0; ///< serve_mix request id, 0 elsewhere
};

class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  bool enabled() const { return Enabled; }
  int64_t now() const { return nsBetween(Origin, Clock::now()); }
  int64_t at(Clock::time_point T) const { return nsBetween(Origin, T); }

  /// Opens a span on the calling thread's stack (main thread only).
  size_t open(const char *Name);
  void close(size_t Index);

  /// Records a finished span from any thread, parented to \p Parent.
  void add(const char *Name, int64_t StartNs, int64_t EndNs, int64_t Parent,
           uint64_t Request);

  /// Durations in ns of every span called \p Name.
  std::vector<double> durations(const std::string &Name) const;

  /// Writes one JSON object per span, then one "summary" object per span
  /// name with count, total and self time (duration minus the part of it
  /// covered by child spans).
  bool writeJsonl(const std::string &Path) const;

  size_t size() const;

private:
  bool Enabled;
  Clock::time_point Origin;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
  std::vector<int64_t> Stack;
};

/// RAII span around one call into a layer.
class Scope {
public:
  Scope(SpanLog &Log, const char *Name)
      : Log(Log), Index(Log.enabled() ? Log.open(Name) : 0) {}
  ~Scope() {
    if (Log.enabled())
      Log.close(Index);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  /// This span's index, the parent for spans added from other threads.
  int64_t index() const {
    return Log.enabled() ? static_cast<int64_t>(Index) : -1;
  }

private:
  SpanLog &Log;
  size_t Index;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
