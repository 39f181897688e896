// The benchmark's own tests: the percentile rule, the seeded Poisson
// schedule and the metric-name rules. run.py runs this before every
// measurement and refuses to measure when it fails.
#include <cmath>
#include <iostream>
#include <regex>
#include <set>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  using perfbench::tail_of;
  // p99 keeps its name only with >= 1000 samples (ten beyond it).
  const auto t1000 = tail_of(one_to(1000));
  expect(t1000.pct == 99.0 && t1000.value == 990.0, "1000 samples -> p99 = 990");
  expect(tail_of(one_to(999)).pct == 95.0, "999 samples -> p95");
  expect(tail_of(one_to(10000)).pct == 99.9, "10000 samples -> p99.9");
  expect(tail_of(one_to(100)).pct == 90.0, "100 samples -> p90");
  expect(tail_of(one_to(40)).pct == 75.0, "40 samples -> p75");
  const auto t20 = tail_of(one_to(20));
  expect(t20.pct == 50.0 && t20.value == 10.0, "20 samples -> p50 = 10");
  expect(tail_of(one_to(5)).pct == 50.0, "5 samples fall back to the median");
  expect(tail_of({}).value == 0.0, "empty sample reads 0");
  expect(perfbench::percentile(one_to(10), 50.0) == 5.0, "nearest-rank median");
  expect(perfbench::percentile(one_to(10), 100.0) == 10.0, "p100 is the max");

  // Block tails: one disturbed block of three does not move the result.
  std::vector<double> blocks;
  for (int b = 0; b < 3; ++b)
    for (double x : one_to(1000)) blocks.push_back(b == 1 ? 10.0 * x : x);
  const auto bt = perfbench::block_tail_of(blocks, 1000);
  expect(bt.pct == 99.0 && bt.n == 1000 && bt.value == 990.0,
         "block tail is the median of per-block p99s");
  blocks.push_back(1e9);  // a short last block is dropped
  expect(perfbench::block_tail_of(blocks, 1000).value == 990.0, "short block dropped");
  expect(perfbench::block_tail_of(one_to(500), 1000).pct == 95.0,
         "below one block: the plain tail");
}

void poisson_schedule() {
  const auto a = perfbench::poisson_schedule(42, 100.0, 20000);
  const auto b = perfbench::poisson_schedule(42, 100.0, 20000);
  const auto c = perfbench::poisson_schedule(43, 100.0, 20000);
  expect(a == b, "same seed reproduces the schedule exactly");
  expect(a != c, "another seed gives another schedule");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  expect(increasing && a.front() > 0.0, "arrival offsets strictly increase");
  const double rate = static_cast<double>(a.size()) / a.back();
  expect(std::abs(rate - 100.0) < 3.0, "mean rate matches the nominal rate");
  // Exponential gaps: about e^-1 of them exceed the mean gap.
  std::size_t longer = 0;
  for (std::size_t i = 1; i < a.size(); ++i) longer += (a[i] - a[i - 1]) > 0.01;
  const double share = static_cast<double>(longer) / static_cast<double>(a.size() - 1);
  expect(std::abs(share - std::exp(-1.0)) < 0.02, "gaps are exponential");
}

void metric_names() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* list :
       {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()})
    for (const auto& m : *list) {
      expect(std::regex_match(m.name, name_re), "metric name " + m.name);
      expect(std::regex_match(m.unit, unit_re), "unit of " + m.name);
      expect(seen.insert(m.name).second, "unique metric name " + m.name);
    }
  expect(perfbench::end_to_end_metrics().size() <= 16, "at most 16 end-to-end metrics");
  expect(perfbench::per_layer_metrics().size() <= 128, "at most 128 per-layer metrics");
  bool has_setup = false;
  for (const auto& m : perfbench::end_to_end_metrics())
    has_setup |= m.name == "setup_s" && m.unit == "s";
  expect(has_setup, "setup_s is an end-to-end metric in seconds");
}

}  // namespace

int main() {
  percentile_rule();
  poisson_schedule();
  metric_names();
  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
