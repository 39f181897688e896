// Reproduces the paper's section IV-B energy-proportionality analysis:
// "a sample extracted by the IBM DVS-Gesture data set generated a firing
// activity between 1.2% and 4.9% ... an input event is consumed in 120 ns
// ... the inference is performed in a best and worst case time interval of
// 7.1 ms and 23.12 ms ... a rate comprised between 141 inf/s and 43 inf/s,
// consuming a total inference energy between 80 uJ/inf and 261 uJ/inf."
//
// The bench sweeps input activity over the paper's band on the Fig. 6
// topology (scaled to the synthetic 32x32 input), derives per-layer event
// counts with the golden executor, and applies the paper's own timing
// method (events x 48 cycles at 400 MHz; energy = dense power x time). The
// cycle-accurate engine cross-checks the two endpoints. Absolute numbers
// differ from the paper (their network is ~144x144, ours 32x32); the
// *shape* — linear time/energy in activity, inverse rate — is the claim
// under reproduction, and the paper's own anchors are printed alongside.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "gesture_network.h"
#include "common/table.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/golden.h"
#include "ecnn/quantized.h"
#include "ecnn/runner.h"
#include "energy/energy_model.h"

namespace {

/// Total spatio-temporal volume (neuron-steps) of all layer *inputs*.
std::size_t s_volume_of_network(const sne::ecnn::QuantizedNetwork& net,
                                std::uint16_t timesteps) {
  std::size_t v = 0;
  for (const auto& l : net.layers) v += l.in_flat() * timesteps;
  return v;
}

}  // namespace

int main() {
  using namespace sne;
  bench::print_header(
      "Section IV-B", "Energy proportionality over the activity band",
      "Fig. 6 topology (32x32-scaled); paper anchors: 1.2% -> 7.1 ms / 80 uJ "
      "/ 141 inf/s, 4.9% -> 23.12 ms / 261 uJ / 43 inf/s");

  const ecnn::QuantizedNetwork net = bench::calibrated_gesture_network();
  core::SneConfig hw = core::SneConfig::paper_design_point(8);
  energy::EnergyModel model(hw);
  const double power_mw = model.dense_power_mw();

  AsciiTable table({"Input act.", "Events (all layers)", "t_inf [ms]",
                    "Rate [inf/s]", "E = P*t [uJ/inf]", "E (activity model) [uJ]"});
  std::vector<double> acts = {0.012, 0.02, 0.03, 0.04, 0.049};
  std::vector<double> times_ms, events_n;
  // The activity sweep is point-wise independent: batch the golden runs over
  // the worker pool (BatchRunner::run_golden, bitwise identical to the
  // former serial loop) and reduce in sweep order.
  std::vector<event::EventStream> sweep_inputs;
  for (double act : acts)
    sweep_inputs.push_back(data::random_stream({2, 32, 32, 50}, act, 20240));
  ecnn::BatchRunner batch(hw, net);
  const auto sweep_traces = batch.run_golden(sweep_inputs);
  for (std::size_t ai = 0; ai < acts.size(); ++ai) {
    const double act = acts[ai];
    const auto& traces = sweep_traces[ai];
    std::size_t total_events = 0;
    std::uint64_t total_updates = 0;
    for (const auto& tr : traces) {
      total_events += tr.input_events;
      total_updates += tr.updates;
    }
    const double t_ms = static_cast<double>(total_events) *
                        hw.update_sweep_cycles * hw.cycle_ns() * 1e-6;
    const double rate = 1000.0 / t_ms;
    const double e_pt = power_mw * 1e-3 * t_ms * 1e-3 * 1e6;  // uJ
    // Activity-proportional model: every SOP at the calibrated energy.
    const double e_act =
        static_cast<double>(total_updates) * model.dense_pj_per_sop() * 1e-6;
    times_ms.push_back(t_ms);
    events_n.push_back(static_cast<double>(total_events));
    table.add_row({AsciiTable::num(act * 100.0, 1) + "%",
                   std::to_string(total_events), AsciiTable::num(t_ms, 3),
                   AsciiTable::num(rate, 0), AsciiTable::num(e_pt, 2),
                   AsciiTable::num(e_act, 2)});
  }
  table.print(std::cout);

  // Shape checks: linearity of time vs events (R^2) and proportional span.
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  const double n = static_cast<double>(acts.size());
  for (std::size_t i = 0; i < acts.size(); ++i) {
    sx += acts[i];
    sy += times_ms[i];
    sxx += acts[i] * acts[i];
    sxy += acts[i] * times_ms[i];
    syy += times_ms[i] * times_ms[i];
  }
  const double r = (n * sxy - sx * sy) /
                   std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  std::cout << "\nShape checks:\n";
  std::cout << "  - inference time vs input activity: r = "
            << AsciiTable::num(r, 4) << " (paper claim: proportional; PASS if > 0.99) "
            << (r > 0.99 ? "PASS" : "FAIL") << "\n";
  const double span = times_ms.back() / times_ms.front();
  std::cout << "  - worst/best time ratio: " << AsciiTable::num(span, 2)
            << "x over a " << AsciiTable::num(acts.back() / acts.front(), 2)
            << "x activity span (paper: 3.26x over 4.08x)\n";
  std::cout << "  - paper identity check: 11.29 mW x 7.1 ms = "
            << AsciiTable::num(11.29e-3 * 7.1e-3 * 1e6, 1)
            << " uJ (paper reports 80 uJ); x 23.12 ms = "
            << AsciiTable::num(11.29e-3 * 23.12e-3 * 1e6, 1)
            << " uJ (paper reports 261 uJ)\n";

  // The paper's own best/worst-case method: assume every layer of the
  // network sits at the same activity (1.2% best, 4.9% worst) and charge
  // 48 cycles per event. This isolates the architecture's proportionality
  // from the network's activity-amplification response.
  {
    std::size_t total_volume = s_volume_of_network(net, 50);
    std::cout << "\nPaper-method band (uniform per-layer activity, our "
                 "network volume of "
              << total_volume << " neuron-steps):\n";
    for (double act : {0.012, 0.049}) {
      const double events = static_cast<double>(total_volume) * act;
      const double t_ms =
          events * hw.update_sweep_cycles * hw.cycle_ns() * 1e-6;
      std::cout << "  " << AsciiTable::num(act * 100.0, 1) << "%: "
                << AsciiTable::num(events, 0) << " events, t = "
                << AsciiTable::num(t_ms, 3) << " ms, E = "
                << AsciiTable::num(power_mw * 1e-3 * t_ms * 1e-3 * 1e6, 1)
                << " uJ, rate = " << AsciiTable::num(1000.0 / t_ms, 0)
                << " inf/s\n";
    }
    std::cout << "  -> band ratio exactly 4.08x (the paper reports 3.26x "
                 "because its best/worst per-layer activities are measured, "
                 "not uniform)\n";
  }

  // Cycle-accurate cross-check at the endpoints, both endpoints simulated
  // in parallel on the batch runner (one fresh engine per sample).
  std::cout << "\nCycle-accurate cross-check (time-multiplexed execution, "
               "8 slices):\n";
  const std::vector<event::EventStream> endpoints = {sweep_inputs.front(),
                                                     sweep_inputs.back()};
  const auto endpoint_stats = batch.run(endpoints);
  for (std::size_t k = 0; k < endpoints.size(); ++k) {
    const double act = k == 0 ? acts.front() : acts.back();
    const auto& stats = endpoint_stats[k];
    const auto rep = model.evaluate(stats.total);
    std::cout << "  activity " << AsciiTable::num(act * 100.0, 1)
              << "%: " << stats.total_input_events() << " events, "
              << stats.cycles << " cycles ("
              << AsciiTable::num(static_cast<double>(stats.cycles) * hw.cycle_ns() * 1e-6, 3)
              << " ms wall), energy " << AsciiTable::num(rep.total_uj(), 2)
              << " uJ, paper-method t "
              << AsciiTable::num(
                     stats.paper_method_time_ms(hw.cycle_ns(), hw.update_sweep_cycles), 3)
              << " ms\n";
  }
  std::cout << "\nNote: absolute values scale with network size; the paper's "
               "144x144-class network has ~20x our event volume. Energy is "
               "proportional to events by construction of the architecture — "
               "that proportionality is what this bench verifies.\n";
  return 0;
}
