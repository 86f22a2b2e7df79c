#include "trace.h"

#include <cstdio>

#include "stats.h"

namespace perfbench {

namespace {

std::atomic<int32_t> g_next_thread{1};
std::atomic<int64_t> g_root_parent{0};
std::atomic<int64_t> g_root_op{0};

struct ThreadState {
  int32_t index = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  int64_t next_local = 0;
  bool has_op = false;
  int64_t op = 0;
  std::vector<int64_t> open;  // ids of this thread's open spans
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSearch: return "ose.search";
    case Layer::kEstimate: return "ose.estimate";
    case Layer::kRunner: return "ose.runner";
    case Layer::kTrial: return "ose.trial";
    case Layer::kDistortion: return "ose.distortion";
    case Layer::kSketchCreate: return "sketch.create";
    case Layer::kColumnDraw: return "sketch.column_draw";
    case Layer::kApplyDense: return "sketch.apply_dense";
    case Layer::kApplyVector: return "sketch.apply_vector";
    case Layer::kSample: return "hardinstance.sample";
    case Layer::kEigensolve: return "core.eigensolve";
    case Layer::kSolve: return "apps.solve";
    case Layer::kResidual: return "apps.residual";
    case Layer::kGenerate: return "workload.generate";
    case Layer::kUpdate: return "sosed.update";
    case Layer::kQuery: return "sosed.query";
    case Layer::kCount: break;
  }
  return "unknown";
}

void Trace::SetRoot(int64_t parent, int64_t op) {
  g_root_parent.store(parent, std::memory_order_relaxed);
  g_root_op.store(op, std::memory_order_relaxed);
}

void Trace::SetOp(int64_t op) {
  State().has_op = true;
  State().op = op;
}

int64_t Trace::NextId() {
  ThreadState& s = State();
  return (static_cast<int64_t>(s.index) << 40) | ++s.next_local;
}

int64_t Trace::CurrentParent() {
  const ThreadState& s = State();
  return s.open.empty() ? g_root_parent.load(std::memory_order_relaxed)
                        : s.open.back();
}

int64_t Trace::CurrentOp() {
  const ThreadState& s = State();
  return s.has_op ? s.op : g_root_op.load(std::memory_order_relaxed);
}

void Trace::Push(int64_t id) { State().open.push_back(id); }
void Trace::Pop() { State().open.pop_back(); }

int64_t Trace::Record(Layer layer, double start, double end) {
  return RecordChild(layer, start, end, CurrentParent());
}

int64_t Trace::RecordChild(Layer layer, double start, double end,
                           int64_t parent) {
  if (!on()) return 0;
  const int64_t id = NextId();
  PerThreadLog<SpanRecord>::Append(
      {layer, State().index, id, parent, CurrentOp(), start, end});
  return id;
}

Span::Span(Layer layer) : layer_(layer) {
  if (!Trace::on()) return;
  id_ = Trace::NextId();
  parent_ = Trace::CurrentParent();
  Trace::Push(id_);
  start_ = MonotonicSeconds();
}

Span::~Span() {
  if (id_ == 0) return;
  const double end = MonotonicSeconds();
  Trace::Pop();
  PerThreadLog<SpanRecord>::Append({layer_, State().index, id_, parent_,
                                    Trace::CurrentOp(), start_, end});
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "layer,thread,id,parent,op,start,end\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(f, "%s,%d,%lld,%lld,%lld,%.9f,%.9f\n", LayerName(s.layer),
                 s.thread, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<long long>(s.op),
                 s.start, s.end);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
