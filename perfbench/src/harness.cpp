#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

std::string Tail::label() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%g of %zu", pct, n);
  return buf;
}

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.n = v.size();
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly beyond the nearest-rank position.
    const double beyond = static_cast<double>(t.n) * (1.0 - pct / 100.0);
    if (beyond + 1e-9 >= 10.0) {
      t.pct = pct;
      t.value = percentile(v, pct);
      return t;
    }
  }
  t.value = median(v);
  return t;
}

Tail block_tail_of(const std::vector<double>& v, std::size_t block) {
  if (block == 0 || v.size() < block) return tail_of(v);
  std::vector<double> tails;
  Tail t;
  for (std::size_t i = 0; i + block <= v.size(); i += block) {
    t = tail_of(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(i),
                                    v.begin() + static_cast<std::ptrdiff_t>(i + block)));
    tails.push_back(t.value);
  }
  t.value = median(tails);
  return t;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t n) {
  // splitmix64 keeps the schedule independent of the standard library's
  // distribution implementations.
  std::uint64_t state = seed ^ 0x9E3779B97F4A7C15ull;
  const auto next = [&state]() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::vector<double> at;
  at.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;  // [0,1)
    t += -std::log1p(-u) / rate_per_s;
    at.push_back(t);
  }
  return at;
}

// --- spans --------------------------------------------------------------------

namespace {

struct Log {
  std::atomic<bool> on{false};
  std::mutex m;
  std::vector<Span> spans;
  Clock::time_point epoch = Clock::now();
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_tid{0};
};

Log& log() {
  static Log l;
  return l;
}

std::uint32_t this_tid() {
  thread_local const std::uint32_t tid = log().next_tid.fetch_add(1);
  return tid;
}

std::uint64_t& current_parent() {
  thread_local std::uint64_t parent = 0;
  return parent;
}

double us_of(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - log().epoch).count();
}

void push(Span s) {
  std::lock_guard<std::mutex> lk(log().m);
  log().spans.push_back(std::move(s));
}

}  // namespace

void SpanLog::enable() {
  Log& l = log();
  {
    std::lock_guard<std::mutex> lk(l.m);
    l.spans.clear();
    l.epoch = Clock::now();
  }
  l.on.store(true, std::memory_order_release);
}

void SpanLog::disable() { log().on.store(false, std::memory_order_release); }

bool SpanLog::enabled() { return log().on.load(std::memory_order_acquire); }

std::vector<Span> SpanLog::snapshot() {
  std::lock_guard<std::mutex> lk(log().m);
  return log().spans;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) {
  std::vector<double> out;
  std::lock_guard<std::mutex> lk(log().m);
  for (const Span& s : log().spans)
    if (s.name == name) out.push_back(s.ms());
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : snapshot()) {
    if (!first) f << ",";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, s.t0_us, s.t1_us - s.t0_us);
    f << "{\"name\":\"" << s.name << "\"," << buf << ",\"args\":{\"id\":"
      << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
      << "}}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(std::string name, std::uint64_t request) {
  if (!SpanLog::enabled()) return;
  live_ = true;
  span_.name = std::move(name);
  span_.id = log().next_id.fetch_add(1);
  span_.parent = current_parent();
  span_.request = request;
  span_.tid = this_tid();
  current_parent() = span_.id;
  span_.t0_us = us_of(Clock::now());
}

ScopedSpan::~ScopedSpan() {
  if (!live_) return;
  span_.t1_us = us_of(Clock::now());
  current_parent() = span_.parent;
  push(std::move(span_));
}

void record_span(std::string name, std::uint64_t request, Clock::time_point t0,
                 Clock::time_point t1) {
  if (!SpanLog::enabled()) return;
  Span s;
  s.name = std::move(name);
  s.id = log().next_id.fetch_add(1);
  s.parent = current_parent();
  s.request = request;
  s.tid = this_tid();
  s.t0_us = us_of(t0);
  s.t1_us = us_of(t1);
  push(std::move(s));
}

// --- host context and results ---------------------------------------------------

unsigned host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

double load_average_1m() {
  double l[1] = {0.0};
  return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Result::json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct && failed == 0 ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char v[40];
    std::snprintf(v, sizeof v, "%.17g", metrics[i].value);
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"ok_frac", "frac"},       {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"},       {"op_tail_ms", "ms"},
  };
  return defs;
}

const std::vector<std::string>& gesture_layer_names() {
  static const std::vector<std::string> names = {
      "conv1", "pool1", "conv2", "pool2", "pool3", "fc1", "fc2"};
  return names;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"core.host_ns_per_event", "ns"},
        {"core.host_ns_per_cycle", "ns"},
        {"core.sim_cycles", "count"},
        {"core.sops", "count"},
        {"core.sim_uj_per_inf", "uJ"},
        {"core.sim_ms_per_inf", "ms"},
    };
    for (const char* mode : {"dead_jump", "sweep_jump", "percycle", "burst",
                             "bulk_replay", "steady", "drain_spans"})
      d.push_back({std::string("core.prof.") + mode, "count"});
    for (const std::string& l : gesture_layer_names()) {
      d.push_back({"ecnn.layer." + l + ".host_ms", "ms"});
      d.push_back({"ecnn.layer." + l + ".sim_cycles", "count"});
      d.push_back({"ecnn.layer." + l + ".in_events", "count"});
    }
    const std::vector<MetricDef> rest = {
        {"ecnn.mapper.plan_ms", "ms"},
        {"ecnn.batch.lane_efficiency", "frac"},
        {"ecnn.pool.warm_pass_ratio", "frac"},
        {"ecnn.pool.warm_lease_ratio", "frac"},
        {"ecnn.pool.engines_constructed", "count"},
        {"serve.submit_us", "us"},
        {"serve.latency_ms_p50", "ms"},
        {"serve.latency_ms_tail", "ms"},
        {"serve.queue_depth_peak", "count"},
        {"serve.retried", "count"},
        {"serve.rejected", "count"},
        {"serve.failed", "count"},
        {"serve.session.open_ms", "ms"},
        {"serve.session.chunk_ms_p50", "ms"},
        {"serve.session.chunk_ms_tail", "ms"},
        {"net.front_door_ms_p50", "ms"},
        {"net.front_door_ms_tail", "ms"},
        {"net.infer_ms_p50", "ms"},
        {"net.infer_ms_tail", "ms"},
        {"net.chunk_ms_p50", "ms"},
        {"net.chunk_ms_tail", "ms"},
        {"net.responses_5xx", "count"},
        {"net.dispatch_rejected", "count"},
        {"net.parse_errors", "count"},
        {"net.peak_connections", "count"},
        {"event.encode_us", "us"},
        {"event.decode_us", "us"},
        {"train.fit_ms_per_epoch", "ms"},
        {"train.eval_ms", "ms"},
        {"train.calibrate_ms", "ms"},
        {"train.lane_efficiency", "frac"},
        {"data.gesture_gen_ms", "ms"},
        {"obs.trace_overhead_frac", "frac"},
        {"gen.lag_ms_tail", "ms"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

void emit(Result& r, const Values& v, bool trace) {
  for (const MetricDef& m : trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = v.find(m.name);
    if (it == v.end() && !trace)
      throw std::logic_error("workload did not measure " + m.name);
    r.add(m.name, it == v.end() ? 0.0 : it->second, m.unit);
  }
}

}  // namespace perfbench
