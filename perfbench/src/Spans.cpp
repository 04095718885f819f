//===- perfbench/src/Spans.cpp --------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

size_t SpanLog::open(const char *Name) {
  std::lock_guard<std::mutex> L(Mutex);
  Span S;
  S.Name = Name;
  S.StartNs = now();
  S.Parent = Stack.empty() ? -1 : Stack.back();
  Spans.push_back(std::move(S));
  Stack.push_back(static_cast<int64_t>(Spans.size() - 1));
  return Spans.size() - 1;
}

void SpanLog::close(size_t Index) {
  int64_t End = now();
  std::lock_guard<std::mutex> L(Mutex);
  Spans[Index].EndNs = End;
  if (!Stack.empty() && Stack.back() == static_cast<int64_t>(Index))
    Stack.pop_back();
}

void SpanLog::add(const char *Name, int64_t StartNs, int64_t EndNs,
                  int64_t Parent, uint64_t Request) {
  if (!Enabled)
    return;
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  S.Parent = Parent;
  S.Request = Request;
  std::lock_guard<std::mutex> L(Mutex);
  Spans.push_back(std::move(S));
}

std::vector<double> SpanLog::durations(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mutex);
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs));
  return Out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> L(Mutex);
  return Spans.size();
}

bool SpanLog::writeJsonl(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mutex);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  // Child intervals per parent, for self time.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.StartNs, S.EndNs});

  struct Sum {
    uint64_t Count = 0;
    int64_t TotalNs = 0;
    int64_t SelfNs = 0;
  };
  std::map<std::string, Sum> Summary;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 I, S.Name.c_str(), static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs),
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request));
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> &C = Children[I];
    std::sort(C.begin(), C.end());
    int64_t Covered = 0, CurStart = 0, CurEnd = -1;
    for (auto [B, E] : C) {
      B = std::max(B, S.StartNs);
      E = std::min(E, S.EndNs);
      if (E <= B)
        continue;
      if (B > CurEnd) {
        if (CurEnd > CurStart)
          Covered += CurEnd - CurStart;
        CurStart = B;
        CurEnd = E;
      } else {
        CurEnd = std::max(CurEnd, E);
      }
    }
    if (CurEnd > CurStart)
      Covered += CurEnd - CurStart;
    Sum &Agg = Summary[S.Name];
    ++Agg.Count;
    Agg.TotalNs += S.EndNs - S.StartNs;
    Agg.SelfNs += S.EndNs - S.StartNs - Covered;
  }
  for (const auto &[Name, Agg] : Summary)
    std::fprintf(F,
                 "{\"summary\":\"%s\",\"count\":%llu,\"total_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 Name.c_str(), static_cast<unsigned long long>(Agg.Count),
                 static_cast<long long>(Agg.TotalNs),
                 static_cast<long long>(Agg.SelfNs));
  return std::fclose(F) == 0;
}
