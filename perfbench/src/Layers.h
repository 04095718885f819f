//===- perfbench/src/Layers.h - Traced-run probes and serve sessions ----===//
///
/// \file
/// Interfaces between the workloads (Batch.cpp, Serve.cpp) and the traced
/// run's layer probes (Probes.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Common.h"

#include "store/KnowledgeStore.h"
#include "support/Metrics.h"

namespace perfbench {

/// One production run as the benchmark saw it.
struct RunRecord {
  size_t App = 0;   ///< index into the workload's apps
  size_t Input = 0; ///< index into that app's inputs
  evm::evolve::EvolveRunRecord R;
};

using AppList = std::vector<std::unique_ptr<AppStream>>;

/// A knowledge-store checkpoint of one app's VM, for the store probes.
struct Checkpoint {
  size_t App = 0;
  evm::store::KnowledgeStore KS;
};

/// Runs the per-layer probes over a traced repetition's data and sets every
/// per-layer metric the probes own (vm.*, jit.*, xicl.*, ml.*, evolve.*,
/// store.*, server.* framing).  Store round trips are probed only when the
/// main loop recorded none (\p HaveStoreSpans false).
void probeLayers(const Options &O, const AppList &Apps,
                 const std::vector<RunRecord> &Runs,
                 const std::vector<Checkpoint> &Checkpoints,
                 bool HaveStoreSpans, SpanLog &Log, Outcome &Out);

/// One prediction-server session: lanes, open-loop then closed-loop load.
struct ServeSpec {
  std::vector<std::string> Lanes; ///< one lane and one connection per app
  size_t OpenPerLane = 0;
  double RatePerSec = 0; ///< open-loop arrival rate, all lanes together
  size_t ClosedPerLane = 0;
  uint64_t Variant = 0;
  const char *Tag = "serve";
  /// Per-lane input sequence (makeLaneInputs): the warm request, the open-loop
  /// requests, then the closed-loop requests.
  std::vector<std::vector<size_t>> Inputs;
};

/// Fills S.Inputs from the lanes' input counts and the variant.
void makeLaneInputs(ServeSpec &S);

struct ServeStats {
  double SetupS = 0;               ///< start + connect + warm requests
  std::vector<double> LatencyMs;   ///< open loop, from due time; failed = inf
  std::vector<double> ServiceMs;   ///< every ok request, from send time
  std::vector<double> ClosedMs;    ///< closed-loop round trips
  std::vector<double> LateMs;      ///< send time minus due time
  double OpenWallS = 0;
  double ClosedWallS = 0;
  uint64_t ClosedOk = 0;
  evm::MetricsSnapshot Server;     ///< server.* after drain
  /// Per lane, every response payload in request order (warm first).
  std::vector<std::vector<std::string>> Responses;
};

/// Runs one session against an in-process PredictionServer on a Unix
/// socket under O.WorkDir.  Counts attempts and failures into \p Out; the
/// socket and store directory are removed on every path.
ServeStats runServeSession(const Options &O, const ServeSpec &S, int Session,
                           SpanLog &Log, Outcome &Out);

/// Per-lane digests of the served responses, checked into \p Out.
void digestServed(const ServeSpec &S, const ServeStats &St, Outcome &Out);

/// The same lane streams run in batch through EvolvableVM; digests go to
/// \p Out under the same names as digestServed uses.  \p Apps, \p Runs and
/// \p Checkpoints, when non-null, receive the apps, records and final
/// checkpoints for the probes.
void runLanesInBatch(const ServeSpec &S, Outcome &Out, AppList *Apps,
                     std::vector<RunRecord> *Runs,
                     std::vector<Checkpoint> *Checkpoints);

/// server.batch_size_mean, server.deadline_flush_frac,
/// server.client_overhead_us and loadgen.late_p99_ms from a session.
void setServeLayerMetrics(const ServeStats &St, Outcome &Out);

/// The short single-lane session the batch workloads' traced runs use to
/// measure the serving metrics on their own host.
void probeServe(const Options &O, SpanLog &Log, Outcome &Out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
