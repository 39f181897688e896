// The activity-calibrated Fig. 6 gesture network shared by the benches that
// run the paper's workload (bench_energy_proportionality, and
// BM_GestureNetwork in bench_sim_throughput).
#pragma once

#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "ecnn/golden.h"
#include "ecnn/layer.h"
#include "ecnn/quantized.h"

namespace sne::bench {

/// Fig. 6 topology (scaled to the synthetic 32x32 input) with random weights
/// and *activity-calibrated* thresholds: each layer's integer threshold is
/// tuned (binary search, at the band midpoint) so its output activity
/// tracks its input activity. Trained SNNs behave this way — inter-layer
/// spike rates stay in a narrow band (the paper measures 1.2-4.9% "across
/// the entire network") — whereas uncalibrated random thresholds make
/// activity amplification super-linear and would distort the
/// proportionality shape the energy bench reproduces.
inline ecnn::QuantizedNetwork calibrated_gesture_network() {
  ecnn::Network net = ecnn::Network::paper_topology(2, 32, 32, 11, 8, 64);
  Rng rng(1234);
  for (auto& layer : net.layers) {
    if (layer.weights.empty()) continue;
    for (auto& w : layer.weights)
      w = static_cast<float>(rng.uniform(-0.4, 1.0));
    layer.threshold = 2.5f;
    layer.leak = 0.1f;
  }
  ecnn::QuantizedNetwork q = ecnn::quantize(net);

  const auto mid = data::random_stream({2, 32, 32, 50}, 0.03, 777);
  const event::EventStream* input = &mid;
  std::vector<event::EventStream> kept;
  kept.reserve(q.layers.size());
  for (auto& layer : q.layers) {
    if (layer.type != ecnn::LayerSpec::Type::kConv &&
        layer.type != ecnn::LayerSpec::Type::kFc) {
      kept.push_back(ecnn::GoldenExecutor::run_layer(layer, *input).output);
      input = &kept.back();
      continue;
    }
    const double target = input->activity();
    std::int32_t lo = 1, hi = 120;
    while (lo < hi) {  // higher threshold -> lower output activity
      const std::int32_t midth = (lo + hi) / 2;
      layer.lif.v_th = midth;
      const auto trace = ecnn::GoldenExecutor::run_layer(layer, *input);
      if (trace.output.activity() > target)
        lo = midth + 1;
      else
        hi = midth;
    }
    layer.lif.v_th = lo;
    kept.push_back(ecnn::GoldenExecutor::run_layer(layer, *input).output);
    input = &kept.back();
  }
  return q;
}

}  // namespace sne::bench
