//===- harness/Fleet.cpp --------------------------------------------------===//

#include "harness/Fleet.h"

#include "store/KnowledgeStore.h"
#include "support/Format.h"
#include "support/Stats.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

using namespace evm;
using namespace evm::harness;

FleetRunner::FleetRunner(FleetConfig Config) : Config(std::move(Config)) {
  assert(this->Config.NumTenants > 0 && "fleet needs at least one tenant");
  assert(!this->Config.Workloads.empty() && "fleet needs a workload mix");
}

std::string FleetRunner::shardPath(const std::string &Dir, size_t TenantId) {
  return formatString("%s/shard-%04zu.store", Dir.c_str(), TenantId);
}

std::string FleetRunner::globalStorePath(const std::string &Dir,
                                         const std::string &App) {
  return Dir + "/global-" + App + ".store";
}

wl::Workload evm::harness::buildFleetWorkload(const std::string &Name,
                                              uint64_t Seed) {
  if (Name == "route")
    return wl::buildRouteExample(Seed, 24);
  return wl::buildWorkload(Name, Seed);
}

namespace {

/// Loads \p Path, treating NotFound/IoError as an empty store (fleet
/// startup must never abort on a damaged or missing shard; the loader's
/// recovery semantics already keep whatever survives).
store::KnowledgeStore loadOrEmpty(const std::string &Path) {
  store::KnowledgeStore KS;
  store::StoreReadStats Stats;
  store::loadStoreFile(Path, KS, Stats);
  return KS;
}

} // namespace

TenantResult FleetRunner::runTenant(size_t TenantId) {
  TenantResult T;
  T.TenantId = TenantId;
  T.Workload = Config.Workloads[TenantId % Config.Workloads.size()];

  wl::Workload W = buildFleetWorkload(T.Workload, Config.Seed);
  ExperimentConfig EC = Config.Experiment;
  EC.Seed = Config.Seed;
  ScenarioRunner Runner(W, EC);
  std::vector<size_t> Order =
      Runner.makeInputOrder(TenantId + 1, Config.RunsPerTenant);

  // Per-tenant phase profiling: the profiler is installed thread-locally,
  // so concurrent tenants attribute into disjoint trees.
  PhaseProfiler Prof;
  std::optional<ProfilerInstallGuard> ProfGuard;
  if (Config.CapturePhases)
    ProfGuard.emplace(&Prof);

  // Per-tenant decision ledger: local to this tenant's thread, exported
  // into the tenant's own slot and folded after the pool joins.
  DecisionLedger Ledger;
  if (Config.CaptureDecisions) {
    Ledger.setEnabled(true);
    Runner.setLedger(&Ledger);
  }

  if (Config.ShardDir.empty()) {
    T.Result = Runner.runEvolve(Order);
  } else {
    // Seed the tenant's shard from the per-app global store (frozen for
    // the whole fleet launch) merged with whatever the shard held from a
    // previous launch, then stripe the generation: every checkpoint this
    // tenant writes (disk generation + 1 per launch) stays inside its own
    // stripe, so no two shards of one fleet ever tie under newest-wins.
    std::string Shard = shardPath(Config.ShardDir, TenantId);
    store::KnowledgeStore Global =
        loadOrEmpty(globalStorePath(Config.ShardDir, W.Name));
    store::KnowledgeStore Old = loadOrEmpty(Shard);
    uint64_t Base = std::max(Global.Header.Generation, Old.Header.Generation);
    store::KnowledgeStore Seeded = store::mergeStores(Old, Global);
    Seeded.Header.Generation =
        (Base / GenerationStride + 1 + TenantId) * GenerationStride;
    Seeded.Header.App = W.Name;
    store::saveStoreFile(Shard, Seeded);

    size_t Launches =
        Config.MergeEvery
            ? (Order.size() + Config.MergeEvery - 1) / Config.MergeEvery
            : 1;
    assert(Launches < GenerationStride && "stripe too narrow for cadence");
    T.Result = Runner.runEvolveLaunches(Order, Launches, Shard);
    T.Launches = Launches;
  }

  for (const RunMetrics &M : T.Result.Runs) {
    T.TotalCycles += M.Cycles;
    T.OverheadCycles += M.OverheadCycles;
    T.Compiles += M.Compiles;
  }
  if (ProfGuard)
    ProfGuard.reset();
  T.Phases = Prof.snapshot();
  if (Config.CaptureDecisions && Ledger.enabled()) {
    T.Decisions = Ledger.exportOrder();
    for (DecisionRecord &D : T.Decisions)
      D.Tenant = static_cast<int64_t>(TenantId);
  }
  return T;
}

FleetResult FleetRunner::run() {
  const size_t N = Config.NumTenants;
  size_t Threads = std::min(std::max<size_t>(Config.NumThreads, 1), N);

  FleetResult R;
  R.Tenants.resize(N);

  // The pool: workers claim tenant ids off an atomic counter.  Which worker
  // runs which tenant (and when) is scheduling noise; each result lands in
  // its own pre-sized slot, and everything below this loop reduces those
  // slots in tenant-ID order on this thread.
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I = Next.fetch_add(1); I < N; I = Next.fetch_add(1))
      R.Tenants[I] = runTenant(I);
  };
  if (Threads == 1) {
    Work();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (size_t W = 0; W != Threads; ++W)
      Pool.emplace_back(Work);
    for (std::thread &Th : Pool)
      Th.join();
  }

  // Deterministic reduction: tenant-ID order throughout.
  MetricsRegistry Reg;
  std::vector<double> Accuracies, Confidences;
  for (const TenantResult &T : R.Tenants) {
    R.TotalCycles += T.TotalCycles;
    R.TotalRuns += T.Result.Runs.size();
    Reg.add("fleet.runs.total", T.Result.Runs.size());
    Reg.add("fleet.cycles.total", T.TotalCycles);
    Reg.add("fleet.cycles.overhead", T.OverheadCycles);
    Reg.add("fleet.compiles.total", T.Compiles);
    Reg.add("fleet.checkpoints.total", T.Launches);
    Accuracies.push_back(T.Result.MeanAccuracy);
    Confidences.push_back(T.Result.FinalConfidence);
    if (Tracer && Tracer->enabled()) {
      TraceEvent E;
      E.Kind = TraceEventKind::FleetTenant;
      E.Cycle = T.TotalCycles;
      E.A = T.TenantId;
      E.B = T.Result.Runs.size();
      E.C = T.Launches;
      E.X = T.Result.MeanAccuracy;
      Tracer->record(E);
    }
  }
  // Fold per-tenant ledgers in tenant-ID order: the JSONL the CLI writes
  // from this vector is byte-identical for any thread count.
  if (Config.CaptureDecisions)
    for (const TenantResult &T : R.Tenants)
      R.Decisions.insert(R.Decisions.end(), T.Decisions.begin(),
                         T.Decisions.end());

  Reg.add("fleet.tenants", N);
  Reg.setGauge("fleet.accuracy.mean", mean(Accuracies));
  Reg.setGauge("fleet.confidence.final.mean", mean(Confidences));

  // Fold shards into per-app global stores, apps in first-tenant order,
  // shards in tenant-ID order within an app.  Striped generations make the
  // fold order-insensitive (see GenerationStride); this fixed order makes
  // it deterministic even if that invariant were ever violated.
  if (!Config.ShardDir.empty()) {
    std::vector<std::string> Apps;
    for (const TenantResult &T : R.Tenants)
      if (std::find(Apps.begin(), Apps.end(), T.Workload) == Apps.end())
        Apps.push_back(T.Workload);
    for (const std::string &AppName : Apps) {
      // Shards carry the built workload's name, which for "route" is the
      // example's own app tag; resolve it the same way the tenant did.
      std::string App = buildFleetWorkload(AppName, Config.Seed).Name;
      std::string GlobalPath = globalStorePath(Config.ShardDir, App);
      store::KnowledgeStore Global = loadOrEmpty(GlobalPath);
      size_t Folded = 0;
      for (const TenantResult &T : R.Tenants) {
        if (T.Workload != AppName)
          continue;
        Global = store::mergeStores(
            Global, loadOrEmpty(shardPath(Config.ShardDir, T.TenantId)));
        ++Folded;
      }
      store::saveStoreFile(GlobalPath, Global);
      R.ShardsMerged += Folded;
      ++R.GlobalStores;
      Reg.add("fleet.shards.merged", Folded);
      if (Tracer && Tracer->enabled()) {
        TraceEvent E;
        E.Kind = TraceEventKind::FleetMerge;
        E.A = Folded;
        E.B = Global.Header.Generation;
        E.C = Global.Runs.size();
        Tracer->record(E);
      }
    }
    Reg.add("fleet.stores.global", R.GlobalStores);
  }

  R.Metrics = Reg.snapshot();
  return R;
}

std::string FleetResult::renderJson() const {
  std::string Out = formatString(
      "{\"fleet\":{\"tenants\":%zu,\"total_runs\":%zu,\"total_cycles\":%llu,"
      "\"shards_merged\":%zu,\"global_stores\":%zu},\"tenants\":[",
      Tenants.size(), TotalRuns, static_cast<unsigned long long>(TotalCycles),
      ShardsMerged, GlobalStores);
  for (size_t I = 0; I != Tenants.size(); ++I) {
    const TenantResult &T = Tenants[I];
    if (I)
      Out += ',';
    Out += formatString(
        "{\"id\":%zu,\"workload\":\"%s\",\"launches\":%zu,\"cycles\":%llu,"
        "\"overhead_cycles\":%llu,\"compiles\":%llu,"
        "\"final_confidence\":%.17g,\"mean_confidence\":%.17g,"
        "\"mean_accuracy\":%.17g,\"raw_features\":%zu,\"used_features\":%zu,"
        "\"runs\":[",
        T.TenantId, T.Workload.c_str(), T.Launches,
        static_cast<unsigned long long>(T.TotalCycles),
        static_cast<unsigned long long>(T.OverheadCycles),
        static_cast<unsigned long long>(T.Compiles), T.Result.FinalConfidence,
        T.Result.MeanConfidence, T.Result.MeanAccuracy, T.Result.RawFeatures,
        T.Result.UsedFeatures);
    for (size_t J = 0; J != T.Result.Runs.size(); ++J) {
      const RunMetrics &M = T.Result.Runs[J];
      if (J)
        Out += ',';
      Out += formatString(
          "{\"input\":%zu,\"cycles\":%llu,\"speedup\":%.17g,"
          "\"confidence\":%.17g,\"accuracy\":%.17g,\"used\":%d,\"had\":%d}",
          M.InputIndex, static_cast<unsigned long long>(M.Cycles),
          M.SpeedupVsDefault, M.Confidence, M.Accuracy,
          M.UsedPrediction ? 1 : 0, M.HadPrediction ? 1 : 0);
    }
    Out += ']';
    if (!T.Phases.empty()) {
      // Embed the canonical phase document: {"phases":[...]} -> ,"phases":[...]
      std::string Phases = T.Phases.renderJson();
      Out += ',';
      Out.append(Phases, 1, Phases.size() - 2);
    }
    Out += '}';
  }
  Out += "],";
  Out += Metrics.renderJson().substr(1); // {"metrics":[...]} -> "metrics":[...]}
  return Out;
}
