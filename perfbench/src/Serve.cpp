//===- perfbench/src/Serve.cpp - serve_mix load generator ----------------===//
///
/// \file
/// One process drives an in-process PredictionServer over a Unix socket.
/// Each lane has one connection with one reader thread, so the sender
/// never waits for a reply: in the open-loop phase requests leave at
/// seeded Poisson times and latency is timed from the due time; in the
/// closed-loop phase each reader sends its lane's next request when the
/// previous reply arrives.  The load generator uses one sender plus one
/// reader per lane, no more threads or connections than lanes + 1.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "server/PredictionServer.h"
#include "server/Protocol.h"
#include "store/Json.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace evm;
using namespace perfbench;

namespace {

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// One lane's connection and its request bookkeeping (index = id - 1).
struct LaneConn {
  std::string App;
  int Fd = -1;
  const std::vector<size_t> *Inputs = nullptr;
  std::vector<std::string> Responses;
  std::vector<Clock::time_point> Due, Sent, Done;
  size_t ClosedBegin = 0; ///< first closed-loop request index
  std::thread Reader;

  bool send(size_t Index) {
    Sent[Index] = Clock::now();
    return server::writeFrame(
        Fd, server::renderRunInputRequest(Index + 1, App, (*Inputs)[Index]));
  }
};

/// Counts replies; the sender waits on it between phases.
struct Progress {
  std::mutex M;
  std::condition_variable CV;
  size_t Received = 0;
  bool Closed = false; ///< closed-loop phase: readers send the next request

  /// Waits until \p Target replies have arrived or \p Limit passes.
  bool waitFor(size_t Target, std::chrono::seconds Limit) {
    std::unique_lock<std::mutex> L(M);
    return CV.wait_for(L, Limit, [&] { return Received >= Target; });
  }
};

void readerMain(LaneConn &C, Progress &P) {
  while (true) {
    std::string Payload, Err;
    if (server::readFrame(C.Fd, Payload, Err) != server::FrameStatus::Ok)
      return;
    Clock::time_point Now = Clock::now();
    std::optional<store::JsonValue> Doc = store::JsonValue::parse(Payload);
    const store::JsonValue *Id = Doc ? Doc->field("id") : nullptr;
    uint64_t Index = Id ? Id->asU64() : 0;
    if (Index == 0 || Index > C.Responses.size())
      continue; // unmatched reply: the request stays unanswered
    --Index;
    C.Responses[Index] = std::move(Payload);
    C.Done[Index] = Now;
    bool SendNext;
    {
      std::lock_guard<std::mutex> L(P.M);
      ++P.Received;
      SendNext = P.Closed && Index >= C.ClosedBegin &&
                 Index + 1 < C.Responses.size();
    }
    P.CV.notify_all();
    if (SendNext)
      C.send(Index + 1);
  }
}

bool responseOk(const std::string &R) {
  std::optional<store::JsonValue> Doc = store::JsonValue::parse(R);
  const store::JsonValue *S = Doc ? Doc->field("status") : nullptr;
  return S && S->str() == "ok";
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return static_cast<double>(nsBetween(A, B)) / 1e6;
}

/// \p S restricted to one phase: the warm request plus the open-loop
/// requests, or the warm request plus the closed-loop requests.
ServeSpec onlyPhase(const ServeSpec &S, bool Open) {
  ServeSpec P = S;
  for (std::vector<size_t> &In : P.Inputs) {
    auto OpenEnd = In.begin() + 1 + static_cast<std::ptrdiff_t>(S.OpenPerLane);
    if (Open)
      In.erase(OpenEnd, In.end());
    else
      In.erase(In.begin() + 1, OpenEnd);
  }
  (Open ? P.ClosedPerLane : P.OpenPerLane) = 0;
  return P;
}

/// Digest key of lane \p L: the app and the phases the spec runs.
std::string laneKey(const ServeSpec &S, size_t L) {
  return "lane/" + S.Lanes[L] + (S.OpenPerLane ? "/open" : "") +
         (S.ClosedPerLane ? "/closed" : "");
}

} // namespace

void perfbench::makeLaneInputs(ServeSpec &S) {
  S.Inputs.clear();
  for (const std::string &App : S.Lanes) {
    size_t N = wl::buildWorkload(App, 1).Inputs.size();
    std::string Tag = std::string(S.Tag) + "/lane/" + App;
    // Each phase is a stream of its own, so every variant puts the same
    // inputs in each phase.
    std::vector<size_t> In{0};
    for (size_t X : makeStream(N, S.OpenPerLane, streamSeed(S.Variant, Tag)))
      In.push_back(X);
    for (size_t X :
         makeStream(N, S.ClosedPerLane, streamSeed(S.Variant, Tag + "/closed")))
      In.push_back(X);
    S.Inputs.push_back(std::move(In));
  }
}

ServeStats perfbench::runServeSession(const Options &O, const ServeSpec &S,
                                      int Session, SpanLog &Log,
                                      Outcome &Out) {
  ServeStats St;
  Scope SessionSpan(Log, "serve.session");
  // Relative to the checkout root: keeps the socket path short.
  std::string Tag = O.WorkDir + "/serve" + std::to_string(Session);
  server::ServerConfig C;
  C.SocketPath = Tag + ".sock";
  C.StoreDir = Tag + ".store";
  C.Seed = 1;
  C.CheckpointEvery = 16; // periodic checkpoint publication on
  std::filesystem::remove(C.SocketPath);
  std::filesystem::remove_all(C.StoreDir);

  size_t NumLanes = S.Lanes.size();
  std::vector<LaneConn> Conns(NumLanes);
  Progress P;
  size_t Total = 0;
  for (size_t L = 0; L != NumLanes; ++L) {
    LaneConn &LC = Conns[L];
    LC.App = S.Lanes[L];
    LC.Inputs = &S.Inputs[L];
    size_t N = S.Inputs[L].size();
    LC.Responses.assign(N, "");
    LC.Due.assign(N, Clock::time_point());
    LC.Sent = LC.Done = LC.Due;
    LC.ClosedBegin = 1 + S.OpenPerLane;
    Total += N;
  }
  Out.Attempted += Total;

  Clock::time_point SetupBegin = Clock::now();
  server::PredictionServer Server(C);
  bool Started;
  {
    Scope Sp(Log, "serve.start");
    Started = Server.start();
  }
  auto Finish = [&] {
    // Drain: the server shuts our connections down, which ends the
    // readers; then the socket and store directory go.
    Scope Sp(Log, "serve.drain");
    Server.requestDrain();
    if (Server.drainAndWait() != 0)
      Out.fail("server drain failed to fold its stores");
    for (LaneConn &LC : Conns) {
      if (LC.Fd >= 0)
        ::shutdown(LC.Fd, SHUT_RDWR);
      if (LC.Reader.joinable())
        LC.Reader.join();
      if (LC.Fd >= 0)
        ::close(LC.Fd);
    }
    St.Server = Server.metricsSnapshot();
    std::filesystem::remove(C.SocketPath);
    std::filesystem::remove_all(C.StoreDir);
  };
  if (!Started) {
    Out.fail("server did not start: " + Server.error());
    Out.Failed += Total - 1;
    Finish();
    return St;
  }
  for (LaneConn &LC : Conns) {
    LC.Fd = connectTo(C.SocketPath);
    if (LC.Fd >= 0)
      LC.Reader = std::thread(readerMain, std::ref(LC), std::ref(P));
  }

  const auto Limit = std::chrono::seconds(60);
  {
    Scope Sp(Log, "serve.warm");
    for (LaneConn &LC : Conns)
      if (LC.Fd >= 0)
        LC.send(0);
    P.waitFor(NumLanes, Limit);
  }
  St.SetupS = static_cast<double>(nsBetween(SetupBegin, Clock::now())) / 1e9;

  // Open loop: a seeded shuffle of lane labels (each lane gets exactly
  // OpenPerLane requests) at exponential inter-arrival gaps.
  {
    Scope OpenSpan(Log, "serve.open");
    // Every session of a run replays the same schedule, so the sessions'
    // latencies can be compared request by request.
    BenchRng R(streamSeed(S.Variant, std::string(S.Tag) + "/arrivals"));
    std::vector<size_t> Labels;
    for (size_t L = 0; L != NumLanes; ++L)
      Labels.insert(Labels.end(), S.OpenPerLane, L);
    for (size_t I = Labels.size(); I > 1; --I)
      std::swap(Labels[I - 1], Labels[R.below(I)]);
    std::vector<size_t> Next(NumLanes, 1);
    Clock::time_point Start = Clock::now() + std::chrono::milliseconds(2);
    double OffsetS = 0;
    for (size_t Lane : Labels) {
      OffsetS += -std::log(R.unit()) / S.RatePerSec;
      LaneConn &LC = Conns[Lane];
      size_t Index = Next[Lane]++;
      LC.Due[Index] = Start + std::chrono::nanoseconds(
                                  static_cast<int64_t>(OffsetS * 1e9));
      std::this_thread::sleep_until(LC.Due[Index]);
      if (LC.Fd >= 0)
        LC.send(Index);
    }
    P.waitFor(NumLanes * (1 + S.OpenPerLane), Limit);
    St.OpenWallS = static_cast<double>(nsBetween(Start, Clock::now())) / 1e9;
    for (LaneConn &LC : Conns)
      for (size_t I = 1; I != LC.ClosedBegin; ++I) {
        bool Ok = LC.Done[I] != Clock::time_point() &&
                  responseOk(LC.Responses[I]);
        St.LateMs.push_back(msBetween(LC.Due[I], LC.Sent[I]));
        St.LatencyMs.push_back(Ok ? msBetween(LC.Due[I], LC.Done[I])
                                  : std::numeric_limits<double>::infinity());
        if (Log.enabled() && Ok)
          Log.add("serve.request", Log.at(LC.Due[I]), Log.at(LC.Done[I]),
                  OpenSpan.index(),
                  (static_cast<uint64_t>(&LC - Conns.data()) << 32) | (I + 1));
      }
  }

  // Closed loop on the same connections.
  if (S.ClosedPerLane) {
    Scope ClosedSpan(Log, "serve.closed");
    {
      std::lock_guard<std::mutex> L(P.M);
      P.Closed = true;
    }
    Clock::time_point Start = Clock::now();
    for (LaneConn &LC : Conns)
      if (LC.Fd >= 0)
        LC.send(LC.ClosedBegin);
    P.waitFor(Total, Limit);
    Clock::time_point Last = Start;
    for (LaneConn &LC : Conns)
      for (size_t I = LC.ClosedBegin; I != LC.Responses.size(); ++I) {
        bool Ok = LC.Done[I] != Clock::time_point() &&
                  responseOk(LC.Responses[I]);
        St.ClosedMs.push_back(Ok ? msBetween(LC.Sent[I], LC.Done[I])
                                 : std::numeric_limits<double>::infinity());
        if (!Ok)
          continue;
        ++St.ClosedOk;
        Last = std::max(Last, LC.Done[I]);
        if (Log.enabled())
          Log.add("serve.request", Log.at(LC.Sent[I]), Log.at(LC.Done[I]),
                  ClosedSpan.index(),
                  (static_cast<uint64_t>(&LC - Conns.data()) << 32) | (I + 1));
      }
    St.ClosedWallS = static_cast<double>(nsBetween(Start, Last)) / 1e9;
  }

  Finish();
  for (LaneConn &LC : Conns) {
    for (size_t I = 0; I != LC.Responses.size(); ++I)
      if (responseOk(LC.Responses[I]))
        St.ServiceMs.push_back(msBetween(LC.Sent[I], LC.Done[I]));
      else if (LC.Responses[I].empty())
        Out.fail(LC.App + ": request " + std::to_string(I + 1) +
                 " unanswered");
      else
        Out.fail(LC.App + ": request " + std::to_string(I + 1) +
                 " answered " + LC.Responses[I].substr(0, 120));
    St.Responses.push_back(std::move(LC.Responses));
  }
  return St;
}

void perfbench::digestServed(const ServeSpec &S, const ServeStats &St,
                             Outcome &Out) {
  for (size_t L = 0; L != St.Responses.size(); ++L) {
    uint64_t H = fnv1a("");
    for (const std::string &R : St.Responses[L]) {
      std::optional<store::JsonValue> Doc = store::JsonValue::parse(R);
      auto Field = [&](const char *Name) -> const store::JsonValue * {
        static const store::JsonValue Missing;
        const store::JsonValue *F = Doc ? Doc->field(Name) : nullptr;
        return F ? F : &Missing;
      };
      H = fnv1a(servedLine(S.Lanes[L], Field("run")->asU64(),
                           Field("cycles")->asU64(), Field("ret")->str(),
                           static_cast<int>(Field("used")->asU64()),
                           static_cast<int>(Field("had")->asU64()),
                           Field("acc")->asDouble()),
                H);
    }
    char Hex[17];
    std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, H);
    Out.digest(laneKey(S, L), Hex);
  }
}

void perfbench::runLanesInBatch(const ServeSpec &S, Outcome &Out,
                                AppList *Apps, std::vector<RunRecord> *Runs,
                                std::vector<Checkpoint> *Checkpoints) {
  for (size_t L = 0; L != S.Lanes.size(); ++L) {
    std::unique_ptr<AppStream> A = buildApp(S.Lanes[L]);
    A->Order = S.Inputs[L];
    evolve::EvolvableVM VM(A->W.Module, A->W.XiclSpec, &A->Registry,
                           &A->Files, evolveConfig());
    uint64_t H = fnv1a("");
    for (size_t Input : A->Order) {
      const wl::InputCase &In = A->W.Inputs[Input];
      ErrorOr<evolve::EvolveRunRecord> R =
          VM.runOnce(In.CommandLine, In.VmArgs);
      if (!R) {
        Out.fail(A->Name + ": batch runOnce failed");
        continue;
      }
      H = fnv1a(servedLine(A->Name, VM.numRuns(), R->Result.Cycles,
                           R->Result.ReturnValue.str(), R->UsedPrediction,
                           R->HadPrediction, R->Accuracy),
                H);
      if (Runs)
        Runs->push_back(RunRecord{L, Input, std::move(*R)});
    }
    char Hex[17];
    std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, H);
    Out.digest(laneKey(S, L), Hex);
    if (Checkpoints)
      Checkpoints->push_back(Checkpoint{L, VM.checkpoint(1)});
    if (Apps)
      Apps->push_back(std::move(A));
  }
}

void perfbench::setServeLayerMetrics(const ServeStats &St, Outcome &Out) {
  const MetricValue *Batch = St.Server.find("server.batch.size");
  Out.set("server.batch_size_mean",
          Batch && Batch->Box.Count
              ? Batch->Sum / static_cast<double>(Batch->Box.Count)
              : 0,
          "count");
  double Size = static_cast<double>(St.Server.counter("server.flush.size"));
  double Deadline =
      static_cast<double>(St.Server.counter("server.flush.deadline"));
  double Drain = static_cast<double>(St.Server.counter("server.flush.drain"));
  double Flushes = Size + Deadline + Drain;
  Out.set("server.deadline_flush_frac", Flushes ? Deadline / Flushes : 0,
          "ratio");
  const MetricValue *Lat = St.Server.find("server.latency.us");
  Out.set("server.client_overhead_us",
          percentile(St.ServiceMs, 50) * 1e3 - (Lat ? Lat->P50 : 0), "us");
  Out.set("loadgen.late_p99_ms", percentile(St.LateMs, 99), "ms");
}

void perfbench::probeServe(const Options &O, SpanLog &Log, Outcome &Out) {
  ServeSpec S;
  S.Lanes = {"Fop"};
  S.OpenPerLane = 100;
  S.RatePerSec = 50;
  S.ClosedPerLane = 30;
  S.Variant = O.variant();
  S.Tag = "probe";
  makeLaneInputs(S);
  ServeStats St = runServeSession(O, S, 0, Log, Out);
  setServeLayerMetrics(St, Out);
}

Outcome perfbench::runServeMix(const Options &O) {
  Outcome Out;
  ServeSpec S;
  S.Lanes = {"Fop", "Bloat", "Search"};
  // 1020 open-loop requests, so p99 has ten samples beyond it, at about a
  // quarter of the closed-loop capacity measured on a 4-core x86 host
  // (tier-1 -O2 build); fixed, so every commit sees the same load.
  S.OpenPerLane = 340;
  S.RatePerSec = 100;
  S.ClosedPerLane = 100;
  S.Variant = O.variant();
  S.Tag = "serve_mix";
  makeLaneInputs(S);
  // Each phase runs in sessions of its own, on fresh lanes: the open loop
  // for request latency, the closed loop (short, so it can be repeated
  // more often) for per-run round trips and capacity.
  ServeSpec OpenS = onlyPhase(S, true), ClosedS = onlyPhase(S, false);

  if (O.Record) {
    runLanesInBatch(OpenS, Out, nullptr, nullptr, nullptr);
    runLanesInBatch(ClosedS, Out, nullptr, nullptr, nullptr);
    return Out;
  }

  SpanLog Off(false);
  if (!O.Trace) {
    // A fixed number of sessions for a given --seconds, so both sides of a
    // comparison take the same number of samples.
    size_t OpenSessions =
        std::max<size_t>(1, static_cast<size_t>(O.Seconds / 12.5));
    size_t ClosedSessions = 2 * OpenSessions;
    std::vector<double> Setup, OpenWalls, ClosedWalls;
    std::vector<std::vector<double>> Open, Closed;
    int Session = 0;
    for (size_t I = 0; I != OpenSessions; ++I) {
      ServeStats St = runServeSession(O, OpenS, Session++, Off, Out);
      digestServed(OpenS, St, Out);
      Setup.push_back(St.SetupS);
      OpenWalls.push_back(St.OpenWallS);
      Out.Detail["open" + std::to_string(I) + ".req_p99_ms"] =
          percentile(St.LatencyMs, 99);
      Open.push_back(std::move(St.LatencyMs));
    }
    for (size_t I = 0; I != ClosedSessions; ++I) {
      ServeStats St = runServeSession(O, ClosedS, Session++, Off, Out);
      digestServed(ClosedS, St, Out);
      Setup.push_back(St.SetupS);
      ClosedWalls.push_back(St.ClosedWallS);
      Out.Detail["closed" + std::to_string(I) + ".capacity_rps"] =
          St.ClosedWallS > 0
              ? static_cast<double>(St.ClosedOk) / St.ClosedWallS
              : 0;
      Closed.push_back(std::move(St.ClosedMs));
    }
    // Every session of a phase replays the same requests at the same due
    // times; each request is taken at its fastest over the sessions
    // (interference from other tenants only ever slows a request down).
    std::vector<double> Latency = positionMin(Open);
    std::vector<double> RunMs = positionMin(Closed);
    // Capacity: each lane has one request outstanding, so a lane completes
    // one request per round trip, and the lanes run side by side.
    double Capacity = 0;
    for (size_t L = 0; L != S.Lanes.size(); ++L) {
      double LaneMs = 0;
      for (size_t I = 0; I != S.ClosedPerLane; ++I)
        LaneMs += RunMs[L * S.ClosedPerLane + I];
      Capacity += static_cast<double>(S.ClosedPerLane) / LaneMs * 1e3;
    }
    Out.set("setup_s", medianOf(Setup), "s");
    Out.set("wall_s",
            *std::min_element(OpenWalls.begin(), OpenWalls.end()) +
                *std::min_element(ClosedWalls.begin(), ClosedWalls.end()),
            "s");
    Out.set("run_p50_ms", percentile(RunMs, 50), "ms");
    Out.set("run_p95_ms", percentile(RunMs, 95), "ms");
    Out.set("req_p50_ms", percentile(Latency, 50), "ms");
    Out.set("req_p99_ms", percentile(Latency, 99), "ms");
    Out.set("capacity_rps", Capacity, "1/s");
    Out.set("peak_rss_mb", peakRssMb(), "MB");
    Out.Detail["sessions"] = static_cast<double>(Session);
    Out.Detail["req_samples"] = static_cast<double>(Latency.size());
    Out.Detail["run_samples"] = static_cast<double>(RunMs.size());
    return Out;
  }

  // Traced run: an untraced open-loop session for the overhead baseline,
  // traced open- and closed-loop sessions, then the same lane streams in
  // batch (the identity check and the data for the layer probes).
  ServeStats Plain = runServeSession(O, OpenS, 0, Off, Out);
  digestServed(OpenS, Plain, Out);
  SpanLog Log(true);
  ServeStats OpenSt, ClosedSt;
  {
    Scope Sp(Log, "workload");
    OpenSt = runServeSession(O, OpenS, 1, Log, Out);
    ClosedSt = runServeSession(O, ClosedS, 2, Log, Out);
  }
  digestServed(OpenS, OpenSt, Out);
  digestServed(ClosedS, ClosedSt, Out);
  setServeLayerMetrics(OpenSt, Out);
  Out.set("trace.overhead_frac", OpenSt.OpenWallS / Plain.OpenWallS - 1,
          "ratio");
  AppList Apps;
  std::vector<RunRecord> Runs;
  std::vector<Checkpoint> Checkpoints;
  runLanesInBatch(OpenS, Out, &Apps, &Runs, &Checkpoints);
  runLanesInBatch(ClosedS, Out, nullptr, nullptr, nullptr);
  probeLayers(O, Apps, Runs, Checkpoints, false, Log, Out);
  if (!Log.writeJsonl(O.TracePath))
    Out.fail("cannot write trace " + O.TracePath);
  Out.Detail["spans"] = static_cast<double>(Log.size());
  return Out;
}
