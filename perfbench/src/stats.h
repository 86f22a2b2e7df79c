#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Pure arithmetic shared by every workload: latency percentiles, self time
// of a span, and the derived (replay-subtracted) self time. Kept free of
// the sose libraries so tests/perfbench_test.cc pins them directly.

#include <cstdint>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in seconds — the clock Python's time.monotonic() reads,
/// so run.py can subtract its pre-spawn timestamp from ours (setup_s).
double MonotonicSeconds();

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// A latency summary under the benchmark's percentile rule.
struct Tail {
  /// Percentile level in per-mille (990 = p99); 0 when no level qualifies.
  int level_permille = 0;
  /// The nearest-rank sample at that level (the maximum when level is 0).
  double value = 0.0;
  /// Samples ranked beyond the reported one.
  int64_t beyond = 0;
  /// Total sample count.
  int64_t count = 0;
};

/// The highest percentile of the ladder p50, p75, p90, p95, p99 that has at
/// least 10 samples ranked beyond it. The ladder stops at p99: beyond it a
/// 20-second run's tail is set by how many scheduler stalls the host
/// happened to inject, not by the program. Nearest rank: level q reports
/// sorted[ceil(q·N) − 1], and N − ceil(q·N) samples lie beyond it.
Tail HighestTail(std::vector<double> samples);

/// Nearest-rank quantile of `samples` at `permille` (0 when empty).
double NearestRank(std::vector<double> samples, int permille);

/// Mean of per-kind means, where sample i is of kind i % cycle: each of a
/// cycle's passes weighs the same however many of them a run fitted. Kinds
/// with no sample are skipped; 0 when empty.
double CycleMean(const std::vector<double>& per_pass, int64_t cycle);

/// For each kind (kinds[i] labels samples[i]), the nearest-rank quantile at
/// `permille` of that kind's samples; then the median over kinds. 0 when
/// empty.
double MedianOfKindQuantiles(const std::vector<double>& samples,
                             const std::vector<int>& kinds, int permille);

/// A closed time interval [start, end] in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// A span's self time: its duration minus the measure of the union of its
/// children's intervals clipped to it. Children may nest inside each other
/// or overlap (trials of one probe run concurrently on several threads), so
/// the union — not the sum — is subtracted.
double SelfTime(const Interval& parent, std::vector<Interval> children);

/// Derived self time of a call measured from outside: its total time minus
/// the replayed time of the pieces it is known to contain. Computed on sums
/// over all calls and clamped at zero once, so per-call timer noise neither
/// biases the total upward nor makes it negative.
double DerivedSelf(double total_s, double replayed_pieces_s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
