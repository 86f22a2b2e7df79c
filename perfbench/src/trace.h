#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// The traced pass's span recorder. Spans are recorded from the benchmark's
// own files around its calls into each sose layer (nothing inside src/ is
// instrumented). Each span carries a name, start, end, parent span and
// operation id; spans live in per-thread buffers until the pass drains
// them, and the retained ones are written out when the process exits.

#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Every span name the benchmark records.
enum class Layer : int32_t {
  kSearch,       // ose: FindMinimalRows (one threshold search row)
  kEstimate,     // ose: one probe (the EstimateFailureProbability pieces)
  kRunner,       // ose: RunTrials
  kTrial,        // ose: one TrialFn attempt
  kDistortion,   // ose: SketchDistortionOnInstance inside a trial (bounded
                 //      by the last sampler return and the trial's end)
  kSketchCreate, // sketch: CreateSketch / the SketchFactory
  kColumnDraw,   // sketch: ColumnInto replay over U's touched rows
  kApplyDense,   // sketch: ApplyDense
  kApplyVector,  // sketch: ApplyVector
  kSample,       // hardinstance: one sampler call
  kEigensolve,   // core: (Generalized)SymmetricEigenvalues replay
  kSolve,        // apps: SketchAndSolve
  kResidual,     // apps: ResidualRatio
  kGenerate,     // workload: MakeRegressionInstance
  kUpdate,       // sosed: one update request, client side
  kQuery,        // sosed: one sketch or distortion request, client side
  kCount,
};

const char* LayerName(Layer layer);

struct SpanRecord {
  Layer layer = Layer::kCount;
  int32_t thread = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t op = 0;
  double start = 0.0;
  double end = 0.0;
};

/// A per-thread append-only log. Appends never lock; a thread's items move
/// to a shared list when the thread exits (trial-runner pools are built and
/// joined per RunTrials call), and Drain() collects those plus the calling
/// thread's own items.
template <typename T>
class PerThreadLog {
 public:
  static void Append(T value) { local_.items.push_back(std::move(value)); }

  static std::vector<T> Drain() {
    std::vector<T> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out.swap(retired_);
    }
    out.insert(out.end(), std::make_move_iterator(local_.items.begin()),
               std::make_move_iterator(local_.items.end()));
    local_.items.clear();
    return out;
  }

 private:
  struct Local {
    std::vector<T> items;
    ~Local() {
      if (items.empty()) return;
      std::lock_guard<std::mutex> lock(mu_);
      retired_.insert(retired_.end(), std::make_move_iterator(items.begin()),
                      std::make_move_iterator(items.end()));
    }
  };
  static inline std::mutex mu_;
  static inline std::vector<T> retired_;
  static inline thread_local Local local_;
};

/// Process-wide tracing switch and span plumbing.
class Trace {
 public:
  static bool on() { return on_.load(std::memory_order_relaxed); }
  static void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// Parent and operation id for spans opened on a thread with no open span
  /// of its own (trial-runner workers): the main thread publishes its
  /// runner span and current operation here before handing work out.
  static void SetRoot(int64_t parent, int64_t op);
  /// Operation id for spans opened on the calling thread.
  static void SetOp(int64_t op);

  /// Records a completed span under the calling thread's innermost open
  /// span (or the root). Returns its id. No-op (returns 0) when off.
  static int64_t Record(Layer layer, double start, double end);
  /// Same, with an explicit parent.
  static int64_t RecordChild(Layer layer, double start, double end,
                             int64_t parent);

  /// All spans recorded so far by exited threads and the caller.
  static std::vector<SpanRecord> Drain() {
    return PerThreadLog<SpanRecord>::Drain();
  }

 private:
  friend class Span;
  static int64_t NextId();
  static int64_t CurrentParent();
  static int64_t CurrentOp();
  static void Push(int64_t id);
  static void Pop();

  static inline std::atomic<bool> on_{false};
};

/// RAII span on the calling thread; records nothing while tracing is off.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t id() const { return id_; }

 private:
  Layer layer_;
  int64_t id_ = 0;
  int64_t parent_ = 0;
  double start_ = 0.0;
};

/// Writes `spans` as CSV (layer,thread,id,parent,op,start,end) to `path`.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
