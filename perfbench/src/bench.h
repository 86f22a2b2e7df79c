#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

/// One invocation's settings (see main.cc for the command line).
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Set up, stamp the first timed call, tear down, and report only that.
  bool setup_only = false;
  std::string sosed_path;  // sosed_stream: the server binary
  std::string socket_path; // sosed_stream: the Unix socket to serve on
  std::string trace_out;   // traced run: where the spans are written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): counts, correctness misses,
/// metrics, and free-form facts for the human-readable report.
struct RunResult {
  /// MonotonicSeconds() at the first timed call into the layer under test.
  double first_call = 0.0;
  int64_t passes = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per correctness miss; each is also counted in `failed`.
  std::vector<std::string> misses;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  /// mc_*: one "<pass>,<row>,<m*>" per search, for run.py's band check.
  std::vector<std::string> rows;
  // Untraced measurements, folded into the end-to-end metrics by
  // EmitEndToEnd: pass walls, per-operation latencies with the kind of
  // each operation (a workload-defined label: the same kind is the same
  // work in every pass), and the units of work each pass completed.
  std::vector<double> walls;
  std::vector<double> op_seconds;
  std::vector<int> op_kinds;
  std::vector<double> pass_work;
  double peak_rss_mb = 0.0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void Op(int kind, double seconds) {
    op_kinds.push_back(kind);
    op_seconds.push_back(seconds);
  }
  void Miss(const std::string& what) {
    misses.push_back(what);
    ++failed;
  }
};

/// Per-layer totals folded from one traced pass's spans.
struct LayerTotals {
  int64_t calls = 0;
  double busy = 0.0;  // summed durations (over threads)
  double self = 0.0;  // summed self times (SelfTime per span)
  std::vector<double> durations;
};
using Totals = std::array<LayerTotals, static_cast<size_t>(Layer::kCount)>;

/// Folds spans into `totals` (self time from each span's recorded
/// children) and keeps up to a fixed number of raw spans for the trace
/// file written at exit.
void FoldSpans(const std::vector<SpanRecord>& spans, Totals* totals);
/// The raw spans kept by FoldSpans.
const std::vector<SpanRecord>& RetainedSpans();

inline LayerTotals& At(Totals& t, Layer layer) {
  return t[static_cast<size_t>(layer)];
}

/// Everything a traced run measures. Every workload emits the full
/// per-layer list; a layer the workload never calls reads 0.
struct PerLayer {
  Totals totals;
  int64_t traced_passes = 0;
  /// Trial-runner threads (idle = threads × runner wall − Σ trial busy).
  int threads = 1;
  // Counts the spans do not carry.
  int64_t probes = 0;
  int64_t completed = 0;
  int64_t quarantined = 0;
  int64_t column_calls = 0;
  int64_t column_entries = 0;
  double replay_s = 0.0;  // replays run inside ose.search, outside the trial
  // sosed server side, from the `stats` verb (deltas over traced passes).
  double update_server_s = 0.0;
  double query_server_s = 0.0;
  int64_t busy_replies = 0;
  int64_t backpressure_pauses = 0;
  // Pass walls of the paired untraced and traced passes (replays excluded).
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
};

/// Appends the end-to-end metrics except setup_s, which run.py measures
/// across processes. Pass p repeats the work of pass p % kPassCycle, and
/// each of those pass kinds is averaged first (CycleMean), so the cycle's
/// passes weigh the same however many passes the run fitted: wall_s (mean
/// pass wall), work_per_s (mean pass work over mean pass wall),
/// peak_rss_mb, and op_p1_ms (MedianOfKindQuantiles at p1: the fastest
/// percent of each operation kind, which the shared host's bursts of
/// interference leave alone, then the median over kinds). The pooled
/// op_p50_ms and the operation tail (HighestTail) go to the report only.
void EmitEndToEnd(RunResult* result);

/// Appends the per-layer metrics (per traced pass) to `result`.
void EmitPerLayer(PerLayer& layer, RunResult* result);

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MB; 0 if the
/// status file cannot be read.
double PeakRssMb(int pid);

/// Spreads a serial workload's passes over the cores the process may use:
/// Pin(p) moves the calling thread to the (p mod n)-th of them. On a shared
/// host each core runs at its own, slowly changing speed, and a thread left
/// alone stays on one core for tens of seconds, so a run would measure
/// whichever core it landed on; rotating makes every run sample each core
/// equally. The destructor restores the original set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Pin(int64_t pass) const;

 private:
  std::vector<int> cpus_;
};

/// Number of online processors.
int Nproc();

/// Formats a double with all its digits.
std::string Num(double value);

/// A run cycles through this many passes, pass p seeded with
/// DeriveSeed(seed, p % kPassCycle), so every run repeats the same pinned
/// work whatever the speed of the build. The cost of an mc_dense_threshold
/// pass depends on its seed (a search's probes follow its m*), so the
/// cycle is long enough that its mean over seeds is steady.
constexpr int64_t kPassCycle = 12;

/// Runs passes until `seconds` have passed since `start`; an untraced run
/// runs at least one whole cycle, a traced one at least one pass.
inline bool KeepGoing(double start, double seconds, int64_t passes_done,
                      bool traced) {
  return passes_done < (traced ? 1 : kPassCycle) ||
         MonotonicSeconds() - start < seconds;
}

/// The workloads.
RunResult RunMc(const RunConfig& config);
RunResult RunSolve(const RunConfig& config);
RunResult RunStream(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
