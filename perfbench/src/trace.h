#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's one clock: monotonic wall time in nanoseconds. Every
/// end-to-end and per-layer time in this benchmark is read from it; the
/// program's own thread-CPU figures arrive through the observer seam and
/// are reported as such, never mixed into the ledger.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median cost of one `NowNs()` read, measured as the gap between
/// back-to-back reads. Any single timing below a few floors is noise.
double ClockFloorNs();

/// Layers a span can be charged to. The names are the per-layer metric
/// prefixes of README.md's layer table.
enum class Layer : uint8_t {
  kCoreNext,
  kCoreReport,
  kCoreCancel,
  kCoreAddTenant,
  kCoreRemoveTenant,
  kWalAppend,      // DurabilityLog::Log* (encode + buffer)
  kWalWrite,       // WritableFile::Append (the write syscall)
  kWalSync,        // WritableFile::Sync / FileSystem::SyncDir (fsync)
  kWalCheckpoint,  // wal::CutCheckpoint
  kObsHook,        // SelectorObserver hooks (FleetObserver work)
  kPlatformSubmit,    // EaseMlService::SubmitJob + Feed
  kPlatformDispatch,  // EaseMlService::RunAsync
  kCount,
};

const char* LayerName(Layer layer);

/// One timed call. `parent` indexes the enclosing span on the same thread
/// (-1 for a root); `ticket` is the decision's ticket id, -1 when the call
/// has none (a child inherits its parent's when written out).
struct Span {
  Layer layer = Layer::kCount;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t ticket = -1;
};

/// Per-thread in-memory span log. Spans nest: `Begin` makes the new span a
/// child of the innermost open one. Nothing is written until the run ends.
class SpanLog {
 public:
  int32_t Begin(Layer layer, int64_t ticket = -1);
  void End(int32_t index, int64_t ticket = -1);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear();

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// Starts recording on the calling thread (idempotent) and returns its log.
/// Logs of every thread that ever recorded live as long as the process.
SpanLog* ThreadLog();

/// Whether spans are being recorded (the traced run); when false every
/// `ScopedSpan` is a single branch.
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

/// Every thread's log, in the order the threads started recording.
std::vector<const SpanLog*> AllLogs();
/// Clears every thread's spans (logs stay registered).
void ResetTracing();

/// RAII span on the calling thread's log; a no-op unless tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, int64_t ticket = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_ticket(int64_t ticket) { ticket_ = ticket; }

 private:
  SpanLog* log_ = nullptr;
  int32_t index_ = -1;
  int64_t ticket_ = -1;
};

// --- Arithmetic (pure functions; checked by the self-test) ---------------

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (children clipped to the parent).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it. 0 for no samples. Sorts `samples` in place.
double Quantile(std::vector<double>& samples, double q);

/// Per-decision split of a thread's wall time over [begin_ns, end_ns):
/// every span fully inside the window contributes its self time to its
/// layer; the rest of the window is `unexplained`. The shares sum to 100.
struct Ledger {
  double wall_us_per_decision = 0.0;
  std::vector<double> layer_us_per_decision;  // indexed by Layer
  double unexplained_us_per_decision = 0.0;
  double unexplained_pct = 0.0;

  double LayerPct(Layer layer) const;
};

Ledger BuildLedger(const std::vector<Span>& spans, int64_t begin_ns,
                   int64_t end_ns, int64_t decisions);

/// Spans of every thread as one JSON document (layer, start, end, parent,
/// ticket, thread); tickets are inherited from the parent when unset.
std::string SpansToJson(const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
