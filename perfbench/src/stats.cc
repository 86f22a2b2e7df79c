#include "stats.h"

#include <algorithm>
#include <ctime>
#include <map>

namespace perfbench {

double MonotonicSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// ceil(permille · n / 1000) in integers, at least 1.
int64_t Rank(int64_t n, int permille) {
  return std::max<int64_t>(1, (permille * n + 999) / 1000);
}

}  // namespace

double NearestRank(std::vector<double> samples, int permille) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  return samples[static_cast<size_t>(Rank(n, permille) - 1)];
}

Tail HighestTail(std::vector<double> samples) {
  Tail tail;
  tail.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  tail.value = samples.back();
  for (const int permille : {500, 750, 900, 950, 990}) {
    const int64_t rank = Rank(tail.count, permille);
    const int64_t beyond = tail.count - rank;
    if (beyond < 10) break;
    tail.level_permille = permille;
    tail.value = samples[static_cast<size_t>(rank - 1)];
    tail.beyond = beyond;
  }
  return tail;
}

double CycleMean(const std::vector<double>& per_pass, int64_t cycle) {
  double sum = 0.0;
  int64_t kinds = 0;
  for (int64_t k = 0; k < cycle; ++k) {
    double kind_sum = 0.0;
    int64_t count = 0;
    for (size_t i = static_cast<size_t>(k); i < per_pass.size();
         i += static_cast<size_t>(cycle)) {
      kind_sum += per_pass[i];
      ++count;
    }
    if (count == 0) continue;
    sum += kind_sum / static_cast<double>(count);
    ++kinds;
  }
  return kinds == 0 ? 0.0 : sum / static_cast<double>(kinds);
}

double MedianOfKindQuantiles(const std::vector<double>& samples,
                             const std::vector<int>& kinds, int permille) {
  std::map<int, std::vector<double>> by_kind;
  for (size_t i = 0; i < samples.size() && i < kinds.size(); ++i) {
    by_kind[kinds[i]].push_back(samples[i]);
  }
  std::vector<double> quantiles;
  for (auto& [kind, values] : by_kind) {
    quantiles.push_back(NearestRank(std::move(values), permille));
  }
  return Median(std::move(quantiles));
}

double SelfTime(const Interval& parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return std::max(0.0, (parent.end - parent.start) - covered);
}

double DerivedSelf(double total_s, double replayed_pieces_s) {
  return std::max(0.0, total_s - replayed_pieces_s);
}

}  // namespace perfbench
