#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};

struct LogRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

LogRegistry& Registry() {
  static LogRegistry* registry = new LogRegistry;  // never destroyed
  return *registry;
}

thread_local SpanLog* t_log = nullptr;

}  // namespace

double ClockFloorNs() {
  constexpr int kReads = 20001;
  std::vector<double> gaps;
  gaps.reserve(kReads);
  int64_t prev = NowNs();
  for (int i = 0; i < kReads; ++i) {
    const int64_t now = NowNs();
    gaps.push_back(static_cast<double>(now - prev));
    prev = now;
  }
  return Quantile(gaps, 0.5);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCoreNext:
      return "core.next";
    case Layer::kCoreReport:
      return "core.report";
    case Layer::kCoreCancel:
      return "core.cancel";
    case Layer::kCoreAddTenant:
      return "core.add_tenant";
    case Layer::kCoreRemoveTenant:
      return "core.remove_tenant";
    case Layer::kWalAppend:
      return "wal.append";
    case Layer::kWalWrite:
      return "wal.write";
    case Layer::kWalSync:
      return "wal.sync";
    case Layer::kWalCheckpoint:
      return "wal.checkpoint";
    case Layer::kObsHook:
      return "obs.hook";
    case Layer::kPlatformSubmit:
      return "platform.submit";
    case Layer::kPlatformDispatch:
      return "platform.dispatch";
    case Layer::kCount:
      break;
  }
  return "?";
}

int32_t SpanLog::Begin(Layer layer, int64_t ticket) {
  Span span;
  span.layer = layer;
  span.parent = open_;
  span.ticket = ticket;
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  open_ = index;
  // Read the clock last so the push is charged to the parent, not to us.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanLog::End(int32_t index, int64_t ticket) {
  const int64_t now = NowNs();
  Span& span = spans_[index];
  span.end_ns = now;
  if (ticket >= 0) span.ticket = ticket;
  open_ = span.parent;
}

void SpanLog::Clear() {
  spans_.clear();
  open_ = -1;
}

SpanLog* ThreadLog() {
  if (t_log == nullptr) {
    LogRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.logs.push_back(std::make_unique<SpanLog>());
    t_log = registry.logs.back().get();
  }
  return t_log;
}

bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

void SetTracingEnabled(bool enabled) {
  g_tracing.store(enabled, std::memory_order_relaxed);
}

std::vector<const SpanLog*> AllLogs() {
  std::vector<const SpanLog*> out;
  LogRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& log : registry.logs) out.push_back(log.get());
  return out;
}

void ResetTracing() {
  LogRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& log : registry.logs) log->Clear();
}

ScopedSpan::ScopedSpan(Layer layer, int64_t ticket) : ticket_(ticket) {
  if (!TracingEnabled()) return;
  log_ = ThreadLog();
  index_ = log_->Begin(layer, ticket);
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->End(index_, ticket_);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  }
  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    covered.clear();
    for (const int32_t c : children[i]) {
      const int64_t lo = std::max(p.start_ns, spans[c].start_ns);
      const int64_t hi = std::min(p.end_ns, spans[c].end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (p.end_ns - p.start_ns) - union_ns;
  }
  return self;
}

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Ledger::LayerPct(Layer layer) const {
  if (wall_us_per_decision <= 0.0) return 0.0;
  return 100.0 * layer_us_per_decision[static_cast<int>(layer)] /
         wall_us_per_decision;
}

Ledger BuildLedger(const std::vector<Span>& spans, int64_t begin_ns,
                   int64_t end_ns, int64_t decisions) {
  Ledger ledger;
  ledger.layer_us_per_decision.assign(static_cast<int>(Layer::kCount), 0.0);
  if (decisions <= 0 || end_ns <= begin_ns) return ledger;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  const double per = 1e-3 / static_cast<double>(decisions);
  double explained_us = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.start_ns < begin_ns || s.end_ns > end_ns) continue;
    const double us = static_cast<double>(self[i]) * per;
    ledger.layer_us_per_decision[static_cast<int>(s.layer)] += us;
    explained_us += us;
  }
  ledger.wall_us_per_decision = static_cast<double>(end_ns - begin_ns) * per;
  ledger.unexplained_us_per_decision =
      ledger.wall_us_per_decision - explained_us;
  ledger.unexplained_pct =
      100.0 * ledger.unexplained_us_per_decision / ledger.wall_us_per_decision;
  return ledger;
}

std::string SpansToJson(const std::vector<const SpanLog*>& logs) {
  std::ostringstream out;
  out << "{\"spans\":[";
  bool first = true;
  for (size_t thread = 0; thread < logs.size(); ++thread) {
    const std::vector<Span>& spans = logs[thread]->spans();
    std::vector<int64_t> ticket(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      // Parents precede children, so the parent's ticket is final here.
      ticket[i] = spans[i].ticket >= 0 || spans[i].parent < 0
                      ? spans[i].ticket
                      : ticket[spans[i].parent];
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (first ? "" : ",") << "\n{\"name\":\"" << LayerName(s.layer)
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"ticket\":" << ticket[i]
          << ",\"thread\":" << thread << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace perfbench
