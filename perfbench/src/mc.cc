// mc_dense_threshold and mc_short_probes: Monte-Carlo threshold searches
// for the minimal target dimension m* on the Section-3 hard mixture.
//
// The untraced pass calls EstimateFailureProbability itself. The traced
// pass composes the same public pieces (ValidateEstimatorOptions,
// MakeFailureTrialFn, RunTrials, SummarizeTrialReport) and wraps the
// TrialFn, the SketchFactory and the sampler, so trial, sketch-draw and
// sampling time are measured without touching the library. What happens
// inside SketchDistortionOnInstance is attributed by replaying its pieces
// after the probe, on the same sketch and instance: ColumnInto over U's
// touched rows, and the d×d eigensolve.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/linalg_eigen.h"
#include "core/matrix.h"
#include "core/random.h"
#include "core/simd/dispatch.h"
#include "hardinstance/mixtures.h"
#include "ose/failure_estimator.h"
#include "ose/threshold_search.h"
#include "ose/trial_runner.h"
#include "sketch/registry.h"

namespace perfbench {

namespace {

/// One threshold search of a pass.
struct Row {
  std::string tag;
  std::string family;
  int64_t d = 0;
  double epsilon = 0.0;
  double delta = 0.0;
  int64_t n = 0;
  int64_t trials = 0;
  int64_t sparsity = 1;
  int64_t m_hi = 0;
  double tolerance = 0.0;
  uint64_t seed_offset = 0;
};

/// E8's shape: three families on the Section-3 mixture with n = 2^21,
/// ε = 1/16, δ = 0.2 and 200 trials per probe, at d ∈ {4, 8}: the rows
/// whose searches fit a pass of a few seconds (d = 16 alone takes ~10 s).
/// Gaussian and OSNAP m* reach the thousands at d = 8.
std::vector<Row> DenseRows() {
  const double epsilon = 1.0 / 16.0;
  const double delta = 0.2;
  std::vector<Row> rows;
  const std::vector<std::string> families = {"gaussian", "osnap", "countsketch"};
  for (const int64_t d : {4, 8}) {
    for (size_t f = 0; f < families.size(); ++f) {
      Row row;
      row.family = families[f];
      row.tag = families[f] + ".d" + std::to_string(d);
      row.d = d;
      row.epsilon = epsilon;
      row.delta = delta;
      row.n = int64_t{1} << 21;
      row.trials = 200;
      // OSNAP's upper-bound regime s = Θ(log(d/δ)/ε), with E8's constant.
      row.sparsity =
          row.family != "osnap"
              ? 1
              : std::max<int64_t>(2, std::llround(std::log2(d / delta) /
                                                  (2.0 * epsilon)));
      row.m_hi = int64_t{1} << 21;
      row.tolerance = 0.06;
      row.seed_offset = f;
      rows.push_back(row);
    }
  }
  return rows;
}

/// E1's shape: Count-Sketch (s = 1) sweeps over d, 1/ε and 1/δ, with E1's
/// ambient dimension and trial-count rules.
std::vector<Row> ShortRows() {
  std::vector<Row> rows;
  auto add = [&rows](const std::string& tag, int64_t d, double epsilon,
                     double delta, uint64_t seed_offset) {
    Row row;
    row.tag = tag;
    row.family = "countsketch";
    row.d = d;
    row.epsilon = epsilon;
    row.delta = delta;
    row.n = std::max<int64_t>(
        int64_t{1} << 18,
        static_cast<int64_t>(32.0 * static_cast<double>(d * d) /
                             (epsilon * epsilon * delta)));
    row.trials = std::min<int64_t>(
        800, std::max<int64_t>(200, static_cast<int64_t>(30.0 / delta)));
    row.sparsity = 1;
    row.m_hi = int64_t{1} << 22;
    row.tolerance = 0.05;
    row.seed_offset = seed_offset;
    rows.push_back(row);
  };
  for (const int64_t d : {4, 6, 8, 12, 16, 24}) {
    add("d.d" + std::to_string(d), d, 1.0 / 16.0, 0.2, 0);
  }
  for (const int inv_eps : {16, 32, 64, 128}) {
    add("inv_eps.e" + std::to_string(inv_eps), 4, 1.0 / inv_eps, 0.2, 1);
  }
  for (const char* delta : {"0.4", "0.2", "0.1", "0.05"}) {
    add(std::string("inv_delta.p") + delta, 4, 1.0 / 16.0, std::stod(delta), 2);
  }
  return rows;
}

sose::SketchFactory Factory(const std::string& family, int64_t m, int64_t n,
                            int64_t sparsity) {
  return [family, m, n, sparsity](uint64_t seed)
             -> sose::Result<std::unique_ptr<sose::SketchingMatrix>> {
    sose::SketchConfig config;
    config.rows = m;
    config.cols = n;
    config.sparsity = sparsity;
    config.seed = seed;
    return sose::CreateSketch(family, config);
  };
}

// ---- traced-pass plumbing -------------------------------------------------

/// What a trial leaves behind for its replay.
struct ReplayJob {
  int64_t distortion_span = 0;
  uint64_t sketch_seed = 0;
  sose::HardInstance instance;
};

/// Per-thread state of the trial in flight (one trial per thread at a time).
struct TrialScratch {
  bool sampled = false;
  double last_sample_end = 0.0;
  uint64_t sketch_seed = 0;
  sose::HardInstance instance;
};
thread_local TrialScratch t_scratch;

sose::SketchFactory TracedFactory(sose::SketchFactory inner) {
  return [inner = std::move(inner)](uint64_t seed) {
    const double start = MonotonicSeconds();
    auto sketch = inner(seed);
    Trace::Record(Layer::kSketchCreate, start, MonotonicSeconds());
    t_scratch.sketch_seed = seed;
    return sketch;
  };
}

sose::InstanceSampler TracedSampler(sose::InstanceSampler inner) {
  return [inner = std::move(inner)](sose::Rng* rng) {
    const double start = MonotonicSeconds();
    sose::HardInstance instance = inner(rng);
    Trace::Record(Layer::kSample, start, MonotonicSeconds());
    t_scratch.instance = instance;
    t_scratch.sampled = true;
    // Stamped after the copy: the distortion span starts here.
    t_scratch.last_sample_end = MonotonicSeconds();
    return instance;
  };
}

sose::TrialFn TracedTrial(sose::TrialFn inner) {
  return [inner = std::move(inner)](uint64_t seed) {
    t_scratch.sampled = false;
    Span trial(Layer::kTrial);
    sose::Result<sose::TrialOutcome> outcome = inner(seed);
    if (t_scratch.sampled) {
      // MakeFailureTrialFn calls SketchDistortionOnInstance right after the
      // last sampler call (only the collision check sits between), and
      // returns right after it.
      const int64_t span = Trace::Record(
          Layer::kDistortion, t_scratch.last_sample_end, MonotonicSeconds());
      PerThreadLog<ReplayJob>::Append(
          {span, t_scratch.sketch_seed, std::move(t_scratch.instance)});
    }
    return outcome;
  };
}

/// Replays the pieces of each trial's distortion call: ColumnInto over the
/// instance's touched rows, and the eigensolve on the same sketched Gram.
void Replay(const sose::SketchFactory& factory, PerLayer* layer) {
  std::vector<sose::ColumnEntry> buffer;
  for (ReplayJob& job : PerThreadLog<ReplayJob>::Drain()) {
    auto sketch = factory(job.sketch_seed);
    if (!sketch.ok()) continue;
    const std::vector<int64_t> touched = job.instance.TouchedRows();
    const double start = MonotonicSeconds();
    for (const int64_t row : touched) {
      sketch.value()->ColumnInto(row, &buffer);
      layer->column_entries += static_cast<int64_t>(buffer.size());
    }
    Trace::RecordChild(Layer::kColumnDraw, start, MonotonicSeconds(),
                       job.distortion_span);
    layer->column_calls += static_cast<int64_t>(touched.size());
    auto sketched = sketch.value()->ApplyBatch(job.instance.ToCsc());
    if (!sketched.ok()) continue;
    const sose::Matrix gram = sose::Gram(sketched.value());
    const double eig_start = MonotonicSeconds();
    const auto eigenvalues =
        job.instance.HasRowCollision()
            ? sose::GeneralizedSymmetricEigenvalues(gram, job.instance.GramU())
            : sose::SymmetricEigenvalues(gram);
    Trace::RecordChild(Layer::kEigensolve, eig_start, MonotonicSeconds(),
                       job.distortion_span);
    (void)eigenvalues.ok();
  }
}

sose::Result<sose::FailureEstimate> TracedEstimate(
    const sose::SketchFactory& factory, const sose::InstanceSampler& sampler,
    const sose::EstimatorOptions& options, int64_t op, PerLayer* layer) {
  Span estimate(Layer::kEstimate);
  SOSE_RETURN_IF_ERROR(sose::ValidateEstimatorOptions(options));
  sose::FailureTrialPolicy policy;
  policy.epsilon = options.epsilon;
  policy.condition_on_no_collision = options.condition_on_no_collision;
  policy.max_redraws = options.max_redraws;
  const sose::TrialFn trial = TracedTrial(sose::MakeFailureTrialFn(
      TracedFactory(factory), TracedSampler(sampler), policy));
  // EstimatorOptions' remaining resilience fields hold their defaults,
  // which equal TrialRunnerOptions' defaults.
  sose::TrialRunnerOptions runner;
  runner.trials = options.trials;
  runner.seed = options.seed;
  runner.threads = options.threads;
  sose::Result<sose::TrialRunReport> report =
      sose::Status::Internal("RunTrials did not run");
  {
    Span run(Layer::kRunner);
    Trace::SetRoot(run.id(), op);
    report = sose::RunTrials(trial, runner);
  }
  SOSE_RETURN_IF_ERROR(report.status());
  layer->completed += report.value().completed;
  return sose::SummarizeTrialReport(report.value());
}

struct Pass {
  double wall = 0.0;
  int64_t completed = 0;
  std::vector<int64_t> m_star;  // per row; 0 when the search failed
};

Pass RunPass(const std::vector<Row>& rows,
             const std::vector<sose::SectionThreeMixture>& mixtures,
             uint64_t pass_seed, int64_t pass, int threads, bool traced,
             PerLayer* layer, RunResult* result) {
  Pass out;
  out.m_star.assign(rows.size(), 0);
  const double replay_before = layer->replay_s;
  const double start = MonotonicSeconds();
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const sose::SectionThreeMixture& mixture = mixtures[i];
    const int64_t op = pass * 1000 + static_cast<int64_t>(i);
    Trace::SetOp(op);
    const uint64_t search_seed = pass_seed + row.seed_offset;
    auto failure_at = [&](int64_t m) -> sose::Result<sose::FailureEstimate> {
      sose::EstimatorOptions options;
      options.trials = row.trials;
      options.epsilon = row.epsilon;
      options.seed = sose::DeriveSeed(search_seed, static_cast<uint64_t>(m));
      options.threads = threads;
      const sose::SketchFactory factory =
          Factory(row.family, m, row.n, std::min(row.sparsity, m));
      const sose::InstanceSampler sampler = [&mixture](sose::Rng* rng) {
        return mixture.Sample(rng);
      };
      const double probe_start = MonotonicSeconds();
      sose::Result<sose::FailureEstimate> estimate =
          traced ? TracedEstimate(factory, sampler, options, op, layer)
                 : sose::EstimateFailureProbability(factory, sampler, options);
      if (traced) {
        ++layer->probes;
        const double replay_start = MonotonicSeconds();
        Replay(factory, layer);
        layer->replay_s += MonotonicSeconds() - replay_start;
      } else {
        // A probe's kind is its row.
        result->Op(static_cast<int>(i), MonotonicSeconds() - probe_start);
      }
      if (estimate.ok()) {
        out.completed += estimate.value().completed;
        if (traced) layer->quarantined += estimate.value().faulted;
      }
      return estimate;
    };
    sose::ThresholdSearchOptions search;
    search.m_lo = 4;
    search.m_hi = row.m_hi;
    search.delta = row.delta;
    search.relative_tolerance = row.tolerance;
    sose::Result<sose::ThresholdResult> found = sose::Status::Internal("unset");
    {
      Span span(Layer::kSearch);
      found = sose::FindMinimalRows(failure_at, search);
    }
    ++result->attempted;
    const std::string where =
        "pass " + std::to_string(pass) + " row " + row.tag + ": ";
    if (!found.ok()) {
      result->Miss(where + found.status().ToString());
      continue;
    }
    const sose::ThresholdResult& r = found.value();
    out.m_star[i] = r.m_star;
    if (!traced) {
      result->rows.push_back(std::to_string(pass) + "," + row.tag + "," +
                             std::to_string(r.m_star));
    }
    if (!r.bracketed || r.total_faulted != 0 || r.any_partial) {
      result->Miss(where + "bracketed=" + std::to_string(r.bracketed) +
                   " quarantined=" + std::to_string(r.total_faulted) +
                   " partial=" + std::to_string(r.any_partial));
    }
  }
  out.wall = MonotonicSeconds() - start - (layer->replay_s - replay_before);
  return out;
}

}  // namespace

RunResult RunMc(const RunConfig& config) {
  RunResult result;
  const bool dense = config.workload == "mc_dense_threshold";
  const std::vector<Row> rows = dense ? DenseRows() : ShortRows();
  // mc_dense_threshold is serial by definition; mc_short_probes runs a
  // fixed pool of two threads, never more than the host has.
  const int threads = dense ? 1 : std::min(2, Nproc());
  result.Info("threads", std::to_string(threads));
  result.Info("op", "probe (one failure-probability estimate)");
  result.Info("work", "completed Monte-Carlo trials");

  // Set-up: kernel dispatch install and mixture construction.
  (void)sose::simd::ActiveKernels();
  std::vector<sose::SectionThreeMixture> mixtures;
  for (const Row& row : rows) {
    auto mixture = sose::SectionThreeMixture::Create(row.n, row.d, row.epsilon);
    if (!mixture.ok()) {
      result.Miss("mixture " + row.tag + ": " + mixture.status().ToString());
      return result;
    }
    mixtures.push_back(std::move(mixture).value());
  }
  result.first_call = MonotonicSeconds();
  if (config.setup_only) return result;

  PerLayer layer;
  layer.threads = threads;
  // Only the serial workload rotates: pinning would put mc_short_probes'
  // trial threads on one core.
  const std::optional<CpuRotation> rotation =
      dense ? std::make_optional<CpuRotation>() : std::nullopt;
  const double start = MonotonicSeconds();
  for (int64_t pass = 0; KeepGoing(start, config.seconds, result.passes, config.trace);
       ++pass, ++result.passes) {
    const uint64_t pass_seed =
        sose::DeriveSeed(config.seed, static_cast<uint64_t>(pass % kPassCycle));
    if (rotation) rotation->Pin(pass);
    const Pass plain = RunPass(rows, mixtures, pass_seed, pass, threads, false,
                               &layer, &result);
    result.walls.push_back(plain.wall);
    result.pass_work.push_back(static_cast<double>(plain.completed));
    if (!config.trace) continue;
    // Traced twin of the same pass: same seeds, so the overhead is paired.
    Trace::SetOn(true);
    const Pass traced = RunPass(rows, mixtures, pass_seed, pass, threads, true,
                                &layer, &result);
    Trace::SetOn(false);
    // The composed pieces must reproduce EstimateFailureProbability exactly.
    if (traced.m_star != plain.m_star) {
      result.Miss("pass " + std::to_string(pass) +
                  ": traced m* differ from untraced m*");
    }
    FoldSpans(Trace::Drain(), &layer.totals);
    layer.untraced_walls.push_back(plain.wall);
    layer.traced_walls.push_back(traced.wall);
    ++layer.traced_passes;
  }
  result.peak_rss_mb = PeakRssMb(0);
  if (config.trace) {
    EmitPerLayer(layer, &result);
  } else {
    EmitEndToEnd(&result);
  }
  return result;
}

}  // namespace perfbench
