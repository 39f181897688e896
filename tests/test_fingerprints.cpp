// Committed engine bit fingerprints.
//
// Each hash folds (FNV-1a, 64 bit) one inference of the calibrated Fig. 6
// gesture network (bench/gesture_network.h): every layer's cycles, every
// ActivityCounters field and the exact output event order. The golden
// values below were computed before the UPDATE-span kernel existed, so a
// perf or refactor change to the engine must leave every one unchanged; a
// change to the modelled hardware updates them and says why in CHANGES.md.
//
// Grid: slices 1/2/4/8 x output DMAs 1/2/4 at 1.2% and 4.9% input activity,
// each on the fast-forward and the fast-forward + drain-batching paths, plus
// one pipe-routed config on all three paths. The per-cycle reference runs
// only where it is affordable (8 slices, one output DMA); the three paths'
// mutual equivalence elsewhere is test_fastforward's job. A stall tier pins
// the content-keyed memory-contention streams on the 8-slice 1.2% config:
// cold host-load, cold WLOAD-streamed and warm WLOAD runs.
//
// The RunProfile mode split is deliberately not hashed: it records which
// engine machine retired each cycle, and kernels move cycles between modes
// on purpose while every simulated bit stays put.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>

#include "../bench/gesture_network.h"
#include "common/fnv.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/runner.h"

namespace sne {
namespace {

using core::SneConfig;
using core::SneEngine;

std::uint64_t fold_counters(std::uint64_t h, const hwsim::ActivityCounters& c) {
  for (const std::uint64_t v :
       {c.cycles, c.idle_cycles, c.slice_busy_cycles, c.neuron_updates,
        c.leak_applications, c.fire_checks, c.fire_scans, c.neuron_resets,
        c.gated_cluster_cycles, c.active_cluster_cycles, c.state_reads,
        c.state_writes, c.timesteps_skipped, c.events_consumed,
        c.output_events, c.fifo_pushes, c.fifo_pops, c.fifo_stall_cycles,
        c.xbar_beats, c.xbar_broadcast_beats, c.dma_read_beats,
        c.dma_write_beats, c.weight_load_beats})
    h = fnv64_step(h, v);
  return h;
}

std::uint64_t fold_events(std::uint64_t h, const event::EventStream& s) {
  h = fnv64_step(h, s.size());
  for (const event::Event& e : s.events()) h = fnv64_step(h, event::pack(e));
  return h;
}

std::uint64_t fingerprint(const ecnn::NetworkRunStats& s) {
  std::uint64_t h = fnv64_step(kFnv64Basis, s.layers.size());
  for (const auto& l : s.layers) {
    h = fnv64_step(h, l.cycles);
    h = fold_counters(h, l.counters);
    h = fold_events(h, l.output);
  }
  return h;
}

const ecnn::QuantizedNetwork& gesture_net() {
  static const ecnn::QuantizedNetwork net = bench::calibrated_gesture_network();
  return net;
}

constexpr std::array<double, 2> kActivity = {0.012, 0.049};
constexpr std::array<std::uint32_t, 4> kSlices = {1, 2, 4, 8};
constexpr std::array<std::uint32_t, 3> kDmas = {1, 2, 4};

const event::EventStream& gesture_input(std::size_t a) {
  static const std::array<event::EventStream, 2> in = {
      data::random_stream({2, 32, 32, 50}, kActivity[0], 20240),
      data::random_stream({2, 32, 32, 50}, kActivity[1], 20240)};
  return in[a];
}

// golden[activity][slices][dmas], in kActivity / kSlices / kDmas order.
constexpr std::uint64_t kGolden[2][4][3] = {
    {{0x771834d91038d424ull, 0x771834d91038d424ull, 0x771834d91038d424ull},
     {0x4efaf34ff4e720c8ull, 0x8bd92845f8461daaull, 0x8bd92845f8461daaull},
     {0x140864b085a3ff96ull, 0x19d46cf6bcc67632ull, 0x99d6e65c88d3eda4ull},
     {0x0b5a2e2f02e2ea20ull, 0x56dbed512bdcc038ull, 0x5fb9c36d14b49ebcull}},
    {{0x90cef9ad556babd7ull, 0x69a66f8ee5b4d1d8ull, 0x69a66f8ee5b4d1d8ull},
     {0xb39fe7a92acbeb37ull, 0x2107cf165d65a3f0ull, 0x0eafec3b8cf501b4ull},
     {0xe4e19e92420546b4ull, 0xf894186c6f77d664ull, 0xa591c41f704abfffull},
     {0xc46fb05d7771ef9dull, 0x0c4b156bed5a46d5ull, 0x71f13ef809c29158ull}},
};

// The pipe-routed config, at kActivity[0] and kActivity[1].
constexpr std::uint64_t kGoldenPipe[2] = {0x12234fb2a7a75931ull,
                                          0xef69d1148f048d8dull};

std::uint64_t run_gesture(std::uint32_t slices, std::uint32_t dmas, bool fast,
                          bool drain, std::size_t a) {
  SneConfig hw = SneConfig::paper_design_point(slices);
  hw.num_output_dmas = dmas;
  hw.fast_forward = fast;
  hw.drain_batching = drain;
  SneEngine engine(hw, 1u << 20);
  ecnn::NetworkRunner runner(engine, /*use_wload_stream=*/false);
  return fingerprint(runner.run(gesture_net(), gesture_input(a)));
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(EngineFingerprints, GestureNetworkFastPathsAcrossTheGrid) {
  for (std::size_t a = 0; a < kActivity.size(); ++a)
    for (std::size_t si = 0; si < kSlices.size(); ++si)
      for (std::size_t di = 0; di < kDmas.size(); ++di) {
        const std::uint64_t want = kGolden[a][si][di];
        for (const bool drain : {false, true}) {
          const std::uint64_t got =
              run_gesture(kSlices[si], kDmas[di], true, drain, a);
          EXPECT_EQ(hex(got), hex(want))
              << "activity " << kActivity[a] << ", " << kSlices[si]
              << " slices, " << kDmas[di] << " output DMAs, drain " << drain;
        }
      }
}

TEST(EngineFingerprints, GestureNetworkPerCycleReference) {
  for (std::size_t a = 0; a < kActivity.size(); ++a)
    EXPECT_EQ(hex(run_gesture(8, 1, false, false, a)), hex(kGolden[a][3][0]))
        << "activity " << kActivity[a];
}

// The stall tier at kActivity[0], 8 slices, one output DMA: a cold host-load
// run, a cold WLOAD-streamed run and a warm WLOAD run (resident programming
// skipped after reset_machine_state), in that order.
constexpr std::uint64_t kGoldenStall[3] = {
    0xfd29071a58041758ull, 0x93f102d6e648dd08ull, 0x52e3b7b5d16b2db2ull};

// Cold host-load, cold WLOAD-streamed and warm WLOAD runs of the 8-slice
// gesture network under `timing`.
std::array<ecnn::NetworkRunStats, 3> stall_tier_runs(
    bool drain, const hwsim::MemoryTiming& timing) {
  SneConfig hw = SneConfig::paper_design_point(8);
  hw.drain_batching = drain;
  const event::EventStream& in = gesture_input(0);
  const std::uint64_t fp = ecnn::model_fingerprint(gesture_net());
  std::array<ecnn::NetworkRunStats, 3> r;
  SneEngine host(hw, 1u << 20, timing);
  r[0] = ecnn::NetworkRunner(host, /*use_wload_stream=*/false)
             .run(gesture_net(), in);
  SneEngine wload(hw, 1u << 20, timing);
  ecnn::NetworkRunner runner(wload, /*use_wload_stream=*/true);
  r[1] = runner.run(gesture_net(), in, event::FirePolicy::kActiveStepsOnly, fp);
  wload.reset_machine_state();
  r[2] = runner.run(gesture_net(), in, event::FirePolicy::kActiveStepsOnly, fp);
  return r;
}

TEST(EngineFingerprints, GestureNetworkUnderMemoryStalls) {
  // Stalls long enough that the input DMA FIFO cannot hide them (at 64
  // cycles this sparse input still absorbs every one), so every run's
  // cycles move.
  hwsim::MemoryTiming stalled;
  stalled.stall_probability = 0.1;
  stalled.stall_cycles = 256;
  const char* const kRun[3] = {"cold host-load", "cold WLOAD", "warm WLOAD"};
  for (const bool drain : {false, true}) {
    const auto got = stall_tier_runs(drain, stalled);
    const auto quiet = stall_tier_runs(drain, {});
    EXPECT_GT(got[1].programming.weight_load_beats, 0u);
    EXPECT_EQ(got[1].passes_warm, 0u);
    EXPECT_GT(got[2].passes_warm, 0u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_GT(got[i].cycles, quiet[i].cycles) << kRun[i];
      EXPECT_EQ(hex(fingerprint(got[i])), hex(kGoldenStall[i]))
          << kRun[i] << ", drain " << drain;
    }
  }
}

ecnn::QuantizedLayerSpec pipe_conv(std::uint16_t in_ch, std::uint16_t out_ch,
                                   std::int32_t v_th, std::uint64_t seed) {
  ecnn::QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kConv;
  l.name = "pconv";
  l.in_ch = in_ch;
  l.in_w = 16;
  l.in_h = 16;
  l.out_ch = out_ch;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(static_cast<std::size_t>(out_ch) * in_ch * 9);
  Rng rng(seed);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
  l.lif.v_th = v_th;
  l.lif.leak = 1;
  return l;
}

TEST(EngineFingerprints, PipeRoutedConvChainOnAllPaths) {
  // conv -> conv chained through the C-XBAR on two slices: slice-to-slice
  // hops, never the time-multiplexed broadcast.
  ecnn::QuantizedNetwork net;
  net.layers.push_back(pipe_conv(2, 2, 4, 3));
  net.layers.push_back(pipe_conv(2, 2, 5, 4));
  for (std::size_t a = 0; a < kActivity.size(); ++a) {
    const auto in = data::random_stream({2, 16, 16, 50}, kActivity[a], 13);
    for (int mode = 0; mode < 3; ++mode) {
      SneConfig hw = SneConfig::paper_design_point(2);
      hw.fast_forward = mode > 0;
      hw.drain_batching = mode > 1;
      SneEngine engine(hw, 1u << 20);
      core::RunOptions opts;
      opts.out_geometry =
          ecnn::build_pipeline(engine, net, in.geometry().timesteps);
      const auto r = engine.run(in, opts);
      EXPECT_GT(r.counters.output_events, 0u);
      std::uint64_t h = fnv64_step(kFnv64Basis, r.cycles);
      h = fold_counters(h, r.counters);
      h = fold_events(h, r.output);
      EXPECT_EQ(hex(h), hex(kGoldenPipe[a]))
          << "activity " << kActivity[a] << ", mode " << mode;
    }
  }
}

}  // namespace
}  // namespace sne
