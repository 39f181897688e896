// sne_perf: the repository benchmark's measuring binary (run it via
// perfbench/run.py, which builds it first).
//
//   sne_perf --workload gesture-dense|serve-http|train-bptt --seed N
//            --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off;
// --trace 1 is a separate run that prints the per-layer metrics derived
// from benchmark-side spans (and writes them as Chrome-trace JSON). The
// last stdout line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int usage() {
  std::cerr << "usage: sne_perf --workload gesture-dense|serve-http|train-bptt"
               " --seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::cerr << "sne_perf: refusing to measure a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--trace-out") a.trace_out = v;
    else return usage();
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0.0) return usage();

  std::cout << "host: nproc=" << host_cpus() << " build=Release(NDEBUG)"
            << " loadavg_1m=" << load_average_1m() << "\n"
            << "workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace << "\n";
  Result r;
  try {
    if (a.workload == "gesture-dense") r = run_gesture_dense(a);
    else if (a.workload == "serve-http") r = run_serve_http(a);
    else if (a.workload == "train-bptt") r = run_train_bptt(a);
    else return usage();
  } catch (const std::exception& e) {
    std::cerr << "sne_perf: " << a.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (a.trace && !a.trace_out.empty() && !SpanLog::write_chrome_json(a.trace_out))
    std::cerr << "sne_perf: could not write " << a.trace_out << "\n";
  std::cout << "host: loadavg_1m_end=" << load_average_1m() << "\n";
  std::cout << r.json() << std::endl;
  return 0;
}
