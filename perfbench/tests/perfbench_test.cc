// Unit tests for the benchmark's own arithmetic and trace plumbing.
//
//   cmake -S perfbench -B <build> -DPERFBENCH_TESTS=ON
//   cmake --build <build> --target perfbench_test && ctest --test-dir <build>
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <thread>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(HighestTail, PicksTheHighestLevelWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990 with exactly 10 beyond.
  Tail t = HighestTail(OneTo(1000));
  EXPECT_EQ(t.level_permille, 990);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_EQ(t.count, 1000);
  // One fewer sample leaves p99 with 9 beyond, so p95 is reported.
  t = HighestTail(OneTo(999));
  EXPECT_EQ(t.level_permille, 950);
  EXPECT_EQ(t.value, 950.0);
  EXPECT_EQ(t.beyond, 49);
  // The ladder stops at p99, however many samples there are.
  t = HighestTail(OneTo(100000));
  EXPECT_EQ(t.level_permille, 990);
  EXPECT_EQ(t.value, 99000.0);
  EXPECT_EQ(t.beyond, 1000);
}

TEST(HighestTail, SmallSamples) {
  Tail t = HighestTail(OneTo(20));  // p50 = rank 10, 10 beyond
  EXPECT_EQ(t.level_permille, 500);
  EXPECT_EQ(t.value, 10.0);
  t = HighestTail(OneTo(19));  // no level qualifies: the maximum, level 0
  EXPECT_EQ(t.level_permille, 0);
  EXPECT_EQ(t.value, 19.0);
  EXPECT_EQ(t.beyond, 0);
  t = HighestTail({});
  EXPECT_EQ(t.count, 0);
  EXPECT_EQ(t.value, 0.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(NearestRank(OneTo(10), 900), 9.0);
  EXPECT_EQ(NearestRank(OneTo(10), 500), 5.0);
}

TEST(SelfTime, NoChildren) {
  EXPECT_DOUBLE_EQ(SelfTime({1.0, 3.0}, {}), 2.0);
}

TEST(SelfTime, DisjointAndNestedChildren) {
  // [0, 10] with children [1, 2] and [4, 8], the latter containing [5, 6]:
  // a grandchild recorded against the same parent must not count twice.
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{1, 2}, {4, 8}, {5, 6}}), 10 - 1 - 4);
}

TEST(SelfTime, OverlappingChildrenFromSeveralThreads) {
  // Trials of one probe on three threads: [1, 5], [2, 6], [3, 4], [8, 9].
  // Their union is [1, 6] ∪ [8, 9] = 6 seconds.
  EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{2, 6}, {1, 5}, {8, 9}, {3, 4}}), 4.0);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_DOUBLE_EQ(SelfTime({2, 6}, {{0, 3}, {5, 9}}), 2.0);
  EXPECT_DOUBLE_EQ(SelfTime({2, 6}, {{0, 9}}), 0.0);
  EXPECT_DOUBLE_EQ(SelfTime({2, 6}, {{7, 9}}), 4.0);
}

TEST(DerivedSelf, SubtractsReplaysAndClampsOnceOnTheSum) {
  EXPECT_DOUBLE_EQ(DerivedSelf(1.0, 0.3 + 0.2), 0.5);
  EXPECT_DOUBLE_EQ(DerivedSelf(0.4, 0.5), 0.0);
}

TEST(EmitPerLayer, DistortionSelfIsBusyMinusColumnAndEigenReplays) {
  PerLayer layer;
  layer.traced_passes = 2;
  At(layer.totals, Layer::kDistortion).busy = 1.0;
  At(layer.totals, Layer::kColumnDraw).busy = 0.3;
  At(layer.totals, Layer::kEigensolve).busy = 0.2;
  layer.threads = 4;
  At(layer.totals, Layer::kRunner).busy = 1.0;   // 4 s of thread capacity
  At(layer.totals, Layer::kTrial).busy = 3.0;    // 3 s busy
  RunResult r;
  EmitPerLayer(layer, &r);
  auto value = [&r](const std::string& name) {
    for (const Metric& m : r.metrics) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << name;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(value("ose.distortion.self_s"), 0.25);  // (1 − 0.5) / 2
  EXPECT_DOUBLE_EQ(value("ose.runner.idle_s"), 0.5);       // (4 − 3) / 2
  EXPECT_DOUBLE_EQ(value("ose.runner.utilization"), 0.75);
}

TEST(CycleMean, WeighsEachPassKindOnce) {
  // Kinds 0 and 1 of a 2-pass cycle; kind 0 ran three times, kind 1 twice.
  EXPECT_DOUBLE_EQ(CycleMean({1.0, 10.0, 3.0, 20.0, 2.0}, 2), (2.0 + 15.0) / 2);
  // A kind with no sample is skipped.
  EXPECT_DOUBLE_EQ(CycleMean({4.0, 6.0}, 4), 5.0);
  EXPECT_DOUBLE_EQ(CycleMean({}, 4), 0.0);
}

TEST(MedianOfKindQuantiles, TakesEachKindsQuantileThenTheMedian) {
  // Kind 0 is 1..200 (p1 = rank 2), kind 1 is 1001..1010 (p1 = its
  // minimum), kind 2 a single 50.
  std::vector<double> samples;
  std::vector<int> kinds;
  for (int i = 200; i >= 1; --i) {
    samples.push_back(i);
    kinds.push_back(0);
  }
  for (int i = 1010; i > 1000; --i) {
    samples.push_back(i);
    kinds.push_back(1);
  }
  samples.push_back(50.0);
  kinds.push_back(2);
  EXPECT_DOUBLE_EQ(MedianOfKindQuantiles(samples, kinds, 10), 50.0);
  // Median over an even number of kinds averages the middle two.
  samples.pop_back();
  kinds.pop_back();
  EXPECT_DOUBLE_EQ(MedianOfKindQuantiles(samples, kinds, 10), (2.0 + 1001.0) / 2);
  EXPECT_DOUBLE_EQ(MedianOfKindQuantiles({}, {}, 10), 0.0);
}

TEST(MetricNames, AreWellFormedAndUnique) {
  RunResult r;
  PerLayer layer;
  EmitPerLayer(layer, &r);
  r.walls = {1.0};
  r.pass_work = {1.0};
  EmitEndToEnd(&r);
  const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const Metric& m : r.metrics) {
    EXPECT_TRUE(std::regex_match(m.name, name)) << m.name;
    EXPECT_TRUE(std::regex_match(m.unit, unit)) << m.unit;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
  }
  EXPECT_EQ(seen.size(), 49u + 4u);
}

TEST(Trace, NestedSpansRecordTheirParentAndWorkerThreadsTheRoot) {
  Trace::Drain();
  Trace::SetOn(true);
  int64_t outer_id = 0;
  int64_t inner_id = 0;
  {
    Span outer(Layer::kEstimate);
    outer_id = outer.id();
    {
      Span inner(Layer::kRunner);
      inner_id = inner.id();
      Trace::SetRoot(inner_id, 7);
      std::thread worker([] { Span trial(Layer::kTrial); });
      worker.join();
    }
  }
  Trace::SetOn(false);
  const std::vector<SpanRecord> spans = Trace::Drain();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanRecord& s : spans) {
    if (s.layer == Layer::kEstimate) EXPECT_EQ(s.parent, 0);
    if (s.layer == Layer::kRunner) EXPECT_EQ(s.parent, outer_id);
    if (s.layer == Layer::kTrial) {
      EXPECT_EQ(s.parent, inner_id);
      EXPECT_EQ(s.op, 7);
    }
    EXPECT_LE(s.start, s.end);
  }
  Totals totals;
  FoldSpans(spans, &totals);
  EXPECT_EQ(At(totals, Layer::kTrial).calls, 1);
  EXPECT_LE(At(totals, Layer::kEstimate).self, At(totals, Layer::kEstimate).busy);
}

TEST(Trace, OffRecordsNothing) {
  Trace::Drain();
  { Span s(Layer::kSolve); }
  EXPECT_EQ(Trace::Record(Layer::kSolve, 0.0, 1.0), 0);
  EXPECT_TRUE(Trace::Drain().empty());
}

}  // namespace
}  // namespace perfbench
