#include "networks.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "ecnn/golden.h"
#include "ecnn/layer.h"

namespace perfbench {

using namespace sne;

core::SneConfig design_point() { return core::SneConfig::paper_design_point(8); }

ecnn::QuantizedNetwork gesture_network() {
  ecnn::Network net = ecnn::Network::paper_topology(2, 32, 32, 11, 8, 64);
  Rng rng(1234);
  for (auto& layer : net.layers) {
    if (layer.weights.empty()) continue;
    for (auto& w : layer.weights) w = static_cast<float>(rng.uniform(-0.4, 1.0));
    layer.threshold = 2.5f;
    layer.leak = 0.1f;
  }
  ecnn::QuantizedNetwork q = ecnn::quantize(net);

  const auto calib = data::random_stream({2, 32, 32, 50}, 0.03, 777);
  const event::EventStream* input = &calib;
  std::vector<event::EventStream> kept;
  kept.reserve(q.layers.size());
  for (auto& layer : q.layers) {
    if (layer.type == ecnn::LayerSpec::Type::kConv ||
        layer.type == ecnn::LayerSpec::Type::kFc) {
      const double target = input->activity();
      std::int32_t lo = 1, hi = 120;
      while (lo < hi) {  // higher threshold -> lower output activity
        const std::int32_t mid = (lo + hi) / 2;
        layer.lif.v_th = mid;
        if (ecnn::GoldenExecutor::run_layer(layer, *input).output.activity() > target)
          lo = mid + 1;
        else
          hi = mid;
      }
      layer.lif.v_th = lo;
    }
    kept.push_back(ecnn::GoldenExecutor::run_layer(layer, *input).output);
    input = &kept.back();
  }
  return q;
}

namespace {

ecnn::QuantizedLayerSpec session_conv(const char* name, std::uint16_t in_ch,
                                      std::int32_t v_th, std::uint64_t seed) {
  ecnn::QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kConv;
  l.name = name;
  l.in_ch = in_ch;
  l.in_w = 16;
  l.in_h = 16;
  l.out_ch = 4;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(static_cast<std::size_t>(l.out_ch) * in_ch * 9);
  Rng rng(seed);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
  l.lif.v_th = v_th;
  l.lif.leak = 1;
  return l;
}

}  // namespace

ecnn::QuantizedNetwork session_network() {
  ecnn::QuantizedNetwork net;
  net.layers.push_back(session_conv("sconv1", 2, 6, 41));
  net.layers.push_back(session_conv("sconv2", 4, 8, 42));
  return net;
}

std::vector<event::Event> canonical_spikes(const event::EventStream& s) {
  std::vector<event::Event> out;
  for (const event::Event& e : s.events())
    if (e.op == event::Op::kUpdate) out.push_back(e);
  std::sort(out.begin(), out.end(), [](const event::Event& a, const event::Event& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.ch != b.ch) return a.ch < b.ch;
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  });
  return out;
}

void add_profile_metrics(Values& v, const obs::RunProfile& p, std::size_t runs) {
  const double n = static_cast<double>(std::max<std::size_t>(runs, 1));
  v["core.prof.dead_jump"] = static_cast<double>(p.dead_jump_cycles) / n;
  v["core.prof.sweep_jump"] = static_cast<double>(p.sweep_jump_cycles) / n;
  v["core.prof.percycle"] = static_cast<double>(p.percycle_cycles) / n;
  v["core.prof.burst"] = static_cast<double>(p.burst_cycles) / n;
  v["core.prof.bulk_replay"] = static_cast<double>(p.bulk_replay_cycles) / n;
  v["core.prof.steady"] = static_cast<double>(p.steady_cycles) / n;
  v["core.prof.drain_spans"] = static_cast<double>(p.drain_spans) / n;
}

}  // namespace perfbench
