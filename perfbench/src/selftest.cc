// Self-test of the benchmark's arithmetic: self times, percentiles and the
// ledger on a hand-built span tree. `python3 perfbench/run.py --selftest`
// runs it, then a smoke-size run of every workload.
#include <cmath>
#include <cstdio>
#include <string>

#include "trace.h"

namespace {

using perfbench::Layer;
using perfbench::Span;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

Span MakeSpan(Layer layer, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestSelfTimesAndLedger() {
  // Window [0, 1000) with 2 decisions:
  //   0 report [100, 600)            children cover [150,250) u [200,300)
  //   1   wal.append [150, 250)        -> union 150, report self 350
  //   2     wal.write [160, 200)       -> append self 60
  //   3   obs.hook [200, 300)          -> self 100 (overlaps its sibling)
  //   4 next [700, 800)              -> self 100
  //   5 next [950, 1100)             -> ends outside the window: ignored
  const std::vector<Span> spans = {
      MakeSpan(Layer::kCoreReport, 100, 600, -1),
      MakeSpan(Layer::kWalAppend, 150, 250, 0),
      MakeSpan(Layer::kWalWrite, 160, 200, 1),
      MakeSpan(Layer::kObsHook, 200, 300, 0),
      MakeSpan(Layer::kCoreNext, 700, 800, -1),
      MakeSpan(Layer::kCoreNext, 950, 1100, -1),
  };
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  const std::vector<int64_t> want = {350, 60, 40, 100, 100, 150};
  Expect(self == want, "self times of the hand-built tree");

  const perfbench::Ledger ledger =
      perfbench::BuildLedger(spans, 0, 1000, /*decisions=*/2);
  Expect(Near(ledger.wall_us_per_decision, 0.5), "ledger wall per decision");
  auto us = [&](Layer l) {
    return ledger.layer_us_per_decision[static_cast<int>(l)];
  };
  Expect(Near(us(Layer::kCoreReport), 0.175), "ledger core.report");
  Expect(Near(us(Layer::kWalAppend), 0.030), "ledger wal.append");
  Expect(Near(us(Layer::kWalWrite), 0.020), "ledger wal.write");
  Expect(Near(us(Layer::kObsHook), 0.050), "ledger obs.hook");
  Expect(Near(us(Layer::kCoreNext), 0.050), "ledger core.next");
  // Explained: 350+60+40+100+100 = 650 of 1000 ns.
  Expect(Near(ledger.unexplained_pct, 35.0), "ledger unexplained share");
  double total = ledger.unexplained_pct;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    total += ledger.LayerPct(static_cast<Layer>(l));
  }
  Expect(Near(total, 100.0), "ledger shares sum to 100%");
}

void TestQuantile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(perfbench::Quantile(v, 0.5) == 50.0, "p50 of 1..100");
  Expect(perfbench::Quantile(v, 0.99) == 99.0, "p99 of 1..100");
  Expect(perfbench::Quantile(v, 1.0) == 100.0, "p100 of 1..100");
  std::vector<double> one = {7.0};
  Expect(perfbench::Quantile(one, 0.99) == 7.0, "p99 of one sample");
  std::vector<double> none;
  Expect(perfbench::Quantile(none, 0.5) == 0.0, "quantile of no samples");
}

void TestSpanLogNesting() {
  perfbench::SpanLog log;
  const int32_t outer = log.Begin(Layer::kCoreReport, 7);
  const int32_t inner = log.Begin(Layer::kWalAppend);
  log.End(inner);
  log.End(outer);
  const int32_t next = log.Begin(Layer::kCoreNext);
  log.End(next, 8);
  const auto& s = log.spans();
  Expect(s.size() == 3 && s[1].parent == 0 && s[0].parent == -1 &&
             s[2].parent == -1,
         "SpanLog nests children under the open span");
  Expect(s[2].ticket == 8 && s[0].ticket == 7, "SpanLog keeps tickets");
  Expect(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns,
         "child interval inside its parent");
}

}  // namespace

int main() {
  TestSelfTimesAndLedger();
  TestQuantile();
  TestSpanLogNesting();
  std::fprintf(stderr, "perfbench self-test: %s\n",
               g_failures == 0 ? "all passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
