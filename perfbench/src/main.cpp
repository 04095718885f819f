//===- perfbench/src/main.cpp - Benchmark driver entry point ------------===//
///
/// \file
/// perfbench_driver --workload W --seed N --seconds S --trace 0|1
///                  --work-dir DIR [--trace-out FILE] [--record]
///
/// Runs one workload and prints one JSON line: attempts, failures, the
/// metrics (end-to-end without --trace, per-layer with it), per-app
/// virtual-result digests and sample counts.  run.py checks the digests
/// against the committed reference and adds provenance.  --record runs one
/// repetition and prints only the digests.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return V > 0 ? "1e300" : "-1e300";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void print(const Outcome &Out) {
  std::string S = "{\"attempted\":" + std::to_string(Out.Attempted) +
                  ",\"failed\":" + std::to_string(Out.Failed) +
                  ",\"problems\":[";
  for (size_t I = 0; I != Out.Problems.size() && I != 20; ++I)
    S += (I ? "," : "") + jsonString(Out.Problems[I]);
  S += "],\"metrics\":{";
  bool First = true;
  for (const auto &[Name, M] : Out.Metrics) {
    S += (First ? "" : ",") + jsonString(Name) +
         ":{\"value\":" + jsonNumber(M.Value) +
         ",\"unit\":" + jsonString(M.Unit) + "}";
    First = false;
  }
  S += "},\"digests\":{";
  First = true;
  for (const auto &[App, D] : Out.Digests) {
    S += (First ? "" : ",") + jsonString(App) + ":" + jsonString(D);
    First = false;
  }
  S += "},\"detail\":{";
  First = true;
  for (const auto &[Name, V] : Out.Detail) {
    S += (First ? "" : ",") + jsonString(Name) + ":" + jsonNumber(V);
    First = false;
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
}

/// Ends the process if a run hangs, so the benchmark always exits in time.
class Watchdog {
public:
  explicit Watchdog(std::chrono::seconds Limit)
      : Thread([this, Limit] {
          std::unique_lock<std::mutex> L(M);
          if (!CV.wait_for(L, Limit, [this] { return Done; })) {
            std::fprintf(stderr, "perfbench: run exceeded %llds, aborting\n",
                         static_cast<long long>(Limit.count()));
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> L(M);
      Done = true;
    }
    CV.notify_all();
    Thread.join();
  }
  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

private:
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  std::thread Thread; ///< declared last: it uses the members above
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload paper_suite|long_stream|"
               "serve_mix --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE] [--record]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * { return I + 1 < argc ? argv[++I] : ""; };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Next(), nullptr);
    else if (A == "--trace")
      O.Trace = std::strcmp(Next(), "1") == 0;
    else if (A == "--work-dir")
      O.WorkDir = Next();
    else if (A == "--trace-out")
      O.TracePath = Next();
    else if (A == "--record")
      O.Record = true;
    else
      return usage();
  }
  if (O.WorkDir.empty() || !(O.Seconds > 0) ||
      (O.Trace && O.TracePath.empty()))
    return usage();
  std::filesystem::create_directories(O.WorkDir);

  Watchdog Guard(std::chrono::seconds(170));
  Outcome Out;
  if (O.Workload == "paper_suite")
    Out = runPaperSuite(O);
  else if (O.Workload == "long_stream")
    Out = runLongStream(O);
  else if (O.Workload == "serve_mix")
    Out = runServeMix(O);
  else
    return usage();
  print(Out);
  return 0;
}
