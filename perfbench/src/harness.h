// Shared machinery of the repository benchmark: timing, the percentile
// rule, the seeded Poisson arrival schedule, benchmark-side spans and the
// one-line JSON result every run ends with.
//
// Spans here wrap calls *into* the simulator's public functions from the
// benchmark's own code; nothing under src/ is instrumented. Per-layer
// metrics are derived from these spans after the traced phase ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

// --- percentiles ------------------------------------------------------------

/// Nearest-rank percentile of `v` (pct in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double pct);
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that has
/// at least ten samples beyond it (p99 therefore needs >= 1000 samples).
/// Below 20 samples no rung qualifies and the tail falls back to the
/// median, labelled p50.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t n = 0;
  std::string label() const;  ///< "p99 of 1200" etc.
};
Tail tail_of(const std::vector<double>& v);

/// The median, over consecutive blocks of `block` samples (in arrival
/// order; a short last block is dropped), of each block's tail_of. A burst
/// of host interference then moves one block's tail, not the result.
/// Falls back to tail_of(v) below one whole block; `n` is the block size.
Tail block_tail_of(const std::vector<double>& v, std::size_t block);

// --- open-loop arrivals -----------------------------------------------------

/// `n` arrival offsets in seconds from the start of the phase: a seeded
/// Poisson process at `rate_per_s` (exponential gaps). The same seed gives
/// the same schedule bit for bit.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t n);

// --- benchmark-side spans ---------------------------------------------------

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< enclosing span on the same thread (0 = none)
  std::uint64_t request = 0;  ///< request / sample id the span belongs to
  double t0_us = 0.0;         ///< since tracing was enabled
  double t1_us = 0.0;
  std::uint32_t tid = 0;
  double ms() const { return (t1_us - t0_us) * 1e-3; }
};

/// Process-wide span log: off by default; spans are kept in memory and
/// written as Chrome-trace JSON at exit.
class SpanLog {
 public:
  static void enable();
  static void disable();
  static bool enabled();
  static std::vector<Span> snapshot();
  /// Durations (ms) of every recorded span called `name`.
  static std::vector<double> durations_ms(const std::string& name);
  static bool write_chrome_json(const std::string& path);
};

/// RAII span; records nothing while the log is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool live_ = false;
  Span span_;
};

/// Records an already-measured interval (for work timed on another thread,
/// such as an HTTP exchange completing inside a poll loop).
void record_span(std::string name, std::uint64_t request, Clock::time_point t0,
                 Clock::time_point t1);

// --- host context and results -----------------------------------------------

unsigned host_cpus();
double load_average_1m();
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  /// Counts one checked operation; a false `ok` marks it failed.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  std::string json() const;
};

/// The benchmark's metric catalogue (BENCHMARK.json lists the same names;
/// run.py checks that every result carries exactly these).
struct MetricDef {
  std::string name;
  std::string unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Layer names of the gesture network (per-layer ecnn.layer.<name>.* keys).
const std::vector<std::string>& gesture_layer_names();

using Values = std::map<std::string, double>;

/// Adds the catalogue the run reports (end-to-end, or per-layer when
/// `trace`) to `r`. Every end-to-end metric must be in `v`; a per-layer
/// metric a workload does not reach reads 0.
void emit(Result& r, const Values& v, bool trace);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace JSON path (traced runs)
};

/// Set-up repetitions per run (setup_s is their median).
inline constexpr int kSetupReps = 5;

/// Times `setup` kSetupReps times and returns the median seconds; the
/// object the last repetition built is what the workload keeps.
template <typename Fn>
double median_setup_s(Fn&& setup) {
  std::vector<double> s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(ms_since(t0) * 1e-3);
  }
  return median(s);
}

// Workload entry points (one translation unit each).
Result run_gesture_dense(const Args& a);
Result run_serve_http(const Args& a);
Result run_train_bptt(const Args& a);

}  // namespace perfbench
