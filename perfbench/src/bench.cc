#include "bench.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>

namespace perfbench {

namespace {

// Raw spans kept for the trace file: enough to inspect several probes or
// requests end to end, bounded so a traced mc_short_probes run (millions
// of ~10 µs trials) cannot grow without limit.
constexpr size_t kRetainedSpans = 400000;

std::vector<SpanRecord>& Retained() {
  static std::vector<SpanRecord> spans;
  return spans;
}

}  // namespace

void FoldSpans(const std::vector<SpanRecord>& spans, Totals* totals) {
  std::unordered_map<int64_t, std::vector<Interval>> children;
  children.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
  }
  for (const SpanRecord& s : spans) {
    LayerTotals& t = At(*totals, s.layer);
    const double duration = s.end - s.start;
    ++t.calls;
    t.busy += duration;
    t.durations.push_back(duration);
    const auto it = children.find(s.id);
    t.self += it == children.end() ? duration
                                   : SelfTime({s.start, s.end}, it->second);
  }
  std::vector<SpanRecord>& kept = Retained();
  for (size_t i = 0; i < spans.size() && kept.size() < kRetainedSpans; ++i) {
    kept.push_back(spans[i]);
  }
}

const std::vector<SpanRecord>& RetainedSpans() { return Retained(); }

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void EmitPerLayer(PerLayer& p, RunResult* r) {
  const double passes =
      std::max<double>(1.0, static_cast<double>(p.traced_passes));
  auto per = [&](double v) { return v / passes; };
  auto calls = [&](Layer l) { return static_cast<double>(At(p.totals, l).calls); };
  auto busy = [&](Layer l) { return At(p.totals, l).busy; };
  auto calls_busy = [&](Layer l) {
    const std::string name = LayerName(l);
    r->Add(name + ".calls", per(calls(l)), "count");
    r->Add(name + ".busy_s", per(busy(l)), "s");
  };

  calls_busy(Layer::kSearch);
  // Replays run inside the search callback; they are analysis, not search.
  r->metrics.back().value = per(busy(Layer::kSearch) - p.replay_s);
  r->Add("ose.search.probes", per(static_cast<double>(p.probes)), "count");
  calls_busy(Layer::kEstimate);
  const std::vector<double>& est = At(p.totals, Layer::kEstimate).durations;
  r->Add("ose.estimate.p50_ms", 1e3 * NearestRank(est, 500), "ms");
  r->Add("ose.estimate.p90_ms", 1e3 * NearestRank(est, 900), "ms");
  calls_busy(Layer::kTrial);
  r->Add("ose.trial.quarantined", per(static_cast<double>(p.quarantined)), "count");
  r->Add("ose.trial.useful_ratio",
         Ratio(static_cast<double>(p.completed), calls(Layer::kTrial)), "ratio");
  const double capacity = p.threads * busy(Layer::kRunner);
  r->Add("ose.runner.idle_s", per(capacity - busy(Layer::kTrial)), "s");
  r->Add("ose.runner.utilization", Ratio(busy(Layer::kTrial), capacity), "ratio");
  calls_busy(Layer::kDistortion);
  r->Add("ose.distortion.self_s",
         per(DerivedSelf(busy(Layer::kDistortion),
                         busy(Layer::kColumnDraw) + busy(Layer::kEigensolve))),
         "s");

  calls_busy(Layer::kSketchCreate);
  r->Add("sketch.column_draw.calls", per(static_cast<double>(p.column_calls)), "count");
  r->Add("sketch.column_draw.entries", per(static_cast<double>(p.column_entries)), "count");
  r->Add("sketch.column_draw.busy_s", per(busy(Layer::kColumnDraw)), "s");
  calls_busy(Layer::kApplyDense);
  calls_busy(Layer::kApplyVector);

  calls_busy(Layer::kSample);
  r->Add("hardinstance.useful_ratio",
         Ratio(calls(Layer::kDistortion), calls(Layer::kSample)), "ratio");
  calls_busy(Layer::kEigensolve);

  calls_busy(Layer::kSolve);
  r->Add("apps.solve.self_s", per(At(p.totals, Layer::kSolve).self), "s");
  r->Add("apps.residual.busy_s", per(busy(Layer::kResidual)), "s");
  r->Add("workload.generate.busy_s", per(busy(Layer::kGenerate)), "s");

  calls_busy(Layer::kUpdate);
  r->Add("sosed.update.server_s", per(p.update_server_s), "s");
  r->Add("sosed.update.wait_s", per(busy(Layer::kUpdate) - p.update_server_s), "s");
  calls_busy(Layer::kQuery);
  r->Add("sosed.query.server_s", per(p.query_server_s), "s");
  const std::vector<double>& q = At(p.totals, Layer::kQuery).durations;
  r->Add("sosed.query.p50_ms", 1e3 * Median(q), "ms");
  r->Add("sosed.query.tail_ms", 1e3 * HighestTail(q).value, "ms");
  r->Add("sosed.busy_replies", per(static_cast<double>(p.busy_replies)), "count");
  r->Add("sosed.backpressure.pauses", per(static_cast<double>(p.backpressure_pauses)),
         "count");

  // Means, like every other per-pass value here, so busy times compare
  // with the wall directly; the passes are paired on the same seeds.
  double traced = 0.0;
  double untraced = 0.0;
  for (const double w : p.traced_walls) traced += w / passes;
  for (const double w : p.untraced_walls) untraced += w / passes;
  r->Add("trace.wall_s", traced, "s");
  r->Add("trace.overhead_s", traced - untraced, "s");
  r->Add("trace.replay_s", per(p.replay_s), "s");
  r->Info("traced_passes", std::to_string(p.traced_passes));
  r->Info("sosed.query.tail_level_permille",
          std::to_string(HighestTail(q).level_permille));
}

void EmitEndToEnd(RunResult* r) {
  const double wall = CycleMean(r->walls, kPassCycle);
  const double work = CycleMean(r->pass_work, kPassCycle);
  const Tail tail = HighestTail(r->op_seconds);
  r->Add("wall_s", wall, "s");
  r->Add("peak_rss_mb", r->peak_rss_mb, "MB");
  r->Add("work_per_s", wall > 0.0 ? work / wall : 0.0, "1/s");
  r->Add("op_p1_ms", 1e3 * MedianOfKindQuantiles(r->op_seconds, r->op_kinds, 10),
         "ms");
  r->Info("op_p50_ms", Num(1e3 * Median(r->op_seconds)));
  r->Info("op_tail_ms", Num(1e3 * tail.value));
  r->Info("op_tail_level_permille", std::to_string(tail.level_permille));
  r->Info("op_samples", std::to_string(tail.count));
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

void SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) SetAffinity(cpus_);
}

void CpuRotation::Pin(int64_t pass) const {
  if (cpus_.empty()) return;
  SetAffinity({cpus_[static_cast<size_t>(pass) % cpus_.size()]});
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
