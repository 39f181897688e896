// Fast-forward equivalence regression suite.
//
// SneConfig::fast_forward compresses provably-inactive cycle spans and
// stall-free TDM sweeps into bulk host operations. The contract is strict:
// cycle counts, every ActivityCounters field, and the output event stream
// (exact sequence, not just the spike set) must be bit-identical to the
// per-cycle reference path across every scenario the engine models. This
// suite runs each scenario twice — fast_forward on and off — and compares.
//
// Also covered: BatchRunner determinism (results independent of the worker
// count and identical to serial simulation).
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/golden.h"
#include "ecnn/mapper.h"
#include "ecnn/runner.h"
#include "test_util.h"

namespace sne {
namespace {

using core::SneConfig;
using core::SneEngine;
using ecnn::NetworkRunner;
using ecnn::NetworkRunStats;
using ecnn::QuantizedLayerSpec;
using ecnn::QuantizedNetwork;

QuantizedLayerSpec conv_layer(std::uint16_t in_ch, std::uint16_t size,
                              std::uint16_t out_ch, std::int32_t v_th,
                              std::uint64_t seed) {
  QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kConv;
  l.name = "conv";
  l.in_ch = in_ch;
  l.in_w = size;
  l.in_h = size;
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

QuantizedLayerSpec fc_layer(std::uint16_t in_ch, std::uint16_t size,
                            std::uint16_t outputs, std::uint64_t seed) {
  QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kFc;
  l.name = "fc";
  l.in_ch = in_ch;
  l.in_w = size;
  l.in_h = size;
  l.out_ch = outputs;
  l.weights.resize(static_cast<std::size_t>(outputs) * l.in_flat());
  Rng rng(seed);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-7, 7));
  l.lif.v_th = 9;
  l.lif.leak = 1;
  return l;
}

/// Runs `net` on `input` through NetworkRunner with the given fast_forward
/// setting, on a fresh engine.
NetworkRunStats run_network(SneConfig hw, bool fast, const QuantizedNetwork& net,
                            const event::EventStream& input) {
  hw.fast_forward = fast;
  SneEngine engine(hw, 1u << 20);
  NetworkRunner runner(engine, /*use_wload_stream=*/false);
  return runner.run(net, input);
}

void expect_equivalent(const NetworkRunStats& ref, const NetworkRunStats& fast) {
  EXPECT_EQ(ref.cycles, fast.cycles);
  EXPECT_TRUE(ref.total == fast.total) << "counters diverge:\nref:  " << ref.total
                                       << "\nfast: " << fast.total;
  ASSERT_EQ(ref.layers.size(), fast.layers.size());
  for (std::size_t i = 0; i < ref.layers.size(); ++i) {
    EXPECT_EQ(ref.layers[i].cycles, fast.layers[i].cycles) << "layer " << i;
    EXPECT_TRUE(ref.layers[i].counters == fast.layers[i].counters)
        << "layer " << i;
    // Exact event sequence, not just the canonical spike set.
    EXPECT_TRUE(ref.layers[i].output == fast.layers[i].output) << "layer " << i;
  }
  EXPECT_TRUE(ref.final_output == fast.final_output);
}

/// Runs `net` on `input` with an explicit full hardware config (fast_forward
/// and drain_batching as given), on a fresh engine.
NetworkRunStats run_network_cfg(const SneConfig& hw, const QuantizedNetwork& net,
                                const event::EventStream& input,
                                std::size_t memory_words = 1u << 20) {
  SneEngine engine(hw, memory_words);
  NetworkRunner runner(engine, /*use_wload_stream=*/false);
  return runner.run(net, input);
}

/// Three-way equivalence: per-cycle reference vs fast-forward vs
/// fast-forward + batched drain engine, all bit-identical. Returns the
/// drain-batched run.
NetworkRunStats expect_drain_equivalent(SneConfig hw,
                                        const QuantizedNetwork& net,
                                        const event::EventStream& input,
                                        std::size_t memory_words = 1u << 20) {
  hw.fast_forward = false;
  hw.drain_batching = false;
  const auto ref = run_network_cfg(hw, net, input, memory_words);
  hw.fast_forward = true;
  const auto fast = run_network_cfg(hw, net, input, memory_words);
  hw.drain_batching = true;
  const auto drain = run_network_cfg(hw, net, input, memory_words);
  expect_equivalent(ref, fast);
  expect_equivalent(ref, drain);
  return drain;
}

TEST(FastForwardEquivalence, ConvLayerTimeMultiplexed) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 32, 4, 6, 5));
  const auto in = data::random_stream({2, 32, 32, 20}, 0.03, 99);
  const SneConfig hw = SneConfig::paper_design_point(4);
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  ASSERT_GT(fast.total.output_events, 0u);  // scenario actually spikes
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, ConvSilentNetwork) {
  // High threshold: FIRE scans are spike-free end to end, exercising the
  // batched no-spike scan and the marker-elision drain path.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 32, 4, 120, 5));
  const auto in = data::random_stream({2, 32, 32, 10}, 0.05, 7);
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  EXPECT_EQ(fast.total.output_events, 0u);
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, StreamedFcLayer) {
  // An FC layer too large for the filter buffer streams its weights from
  // the second DMA (fc_weights_streamed), stretching event occupancy.
  QuantizedNetwork net;
  net.layers.push_back(fc_layer(2, 16, 48, 11));
  const auto in = data::random_stream({2, 16, 16, 12}, 0.06, 21);
  const SneConfig hw = SneConfig::paper_design_point(4);
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  ASSERT_GT(ref.total.weight_load_beats, 0u);  // streaming path exercised
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, MultiSlicePipeline) {
  // Pipeline operating mode: conv -> conv chained through the C-XBAR, all
  // stages concurrently active (slice-to-slice hops + per-cycle FIRE).
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 4, 3));
  auto l2 = conv_layer(2, 16, 2, 5, 4);
  l2.name = "conv2";
  net.layers.push_back(l2);
  const auto in = data::random_stream({1, 16, 16, 12}, 0.08, 13);

  event::EventStream outputs[2];
  hwsim::ActivityCounters counters[2];
  std::uint64_t cycles[2];
  int k = 0;
  for (bool fast : {false, true}) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = fast;
    SneEngine engine(hw, 1u << 20);
    const auto geom = ecnn::build_pipeline(engine, net, in.geometry().timesteps);
    core::RunOptions opts;
    opts.out_geometry = geom;
    const auto r = engine.run(in, opts);
    outputs[k] = r.output;
    counters[k] = r.counters;
    cycles[k] = r.cycles;
    ++k;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
  EXPECT_TRUE(counters[0] == counters[1]);
  EXPECT_TRUE(outputs[0] == outputs[1]);
  EXPECT_GT(counters[0].output_events, 0u);
}

TEST(FastForwardEquivalence, FifoStallScenario) {
  // Tiny FIFOs + near-zero threshold: FIRE sweeps stall on full cluster
  // FIFOs, the hardest interleaving for the batched paths to respect.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 0, 17));
  const auto in = data::random_stream({1, 16, 16, 10}, 0.15, 41);
  SneConfig hw = SneConfig::paper_design_point(1);
  hw.cluster_fifo_depth = 1;
  hw.slice_out_fifo_depth = 2;
  hw.dma_fifo_depth = 2;
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  ASSERT_GT(ref.total.fifo_stall_cycles, 0u);  // stalls actually happen
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, SingleBufferedState) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 16, 2, 6, 23));
  const auto in = data::random_stream({2, 16, 16, 10}, 0.05, 3);
  SneConfig hw = SneConfig::paper_design_point(2);
  hw.double_buffered_state = false;  // 2-cycle updates
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, AdaptiveSequencer) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 16, 2, 6, 29));
  const auto in = data::random_stream({2, 16, 16, 10}, 0.05, 3);
  SneConfig hw = SneConfig::paper_design_point(2);
  hw.adaptive_sequencer = true;
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, ClockGatingOffAndNegativeThreshold) {
  // Negative thresholds disable the armed-slot acceleration (toward-zero
  // leak can cross a negative threshold upward); gating off flips the
  // cluster-cycle accounting. Both must stay bit-identical.
  QuantizedLayerSpec l = conv_layer(1, 16, 2, -3, 31);
  l.lif.leak = 2;
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.05, 19);
  SneConfig hw = SneConfig::paper_design_point(1);
  hw.clock_gating = false;
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, RandomMemoryStalls) {
  // Randomized DMA contention stalls (seeded): the input streamer's latency
  // countdown is skipped in bulk and must consume the RNG identically.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 16, 2, 6, 37));
  const auto in = data::random_stream({2, 16, 16, 10}, 0.05, 11);
  hwsim::MemoryTiming timing;
  timing.latency_cycles = 6;
  timing.stall_probability = 0.2;
  timing.stall_cycles = 11;

  NetworkRunStats stats[2];
  int k = 0;
  for (bool fast : {false, true}) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = fast;
    SneEngine engine(hw, 1u << 20, timing);
    NetworkRunner runner(engine, /*use_wload_stream=*/false);
    stats[k++] = runner.run(net, in);
  }
  expect_equivalent(stats[0], stats[1]);
}

TEST(FastForwardEquivalence, EngineReuseAcrossRuns) {
  // A reused engine carries membrane state into the next run's configure;
  // the armed-slot masks must stay conservative (configure arms everything).
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 2, 43));
  const auto in_a = data::random_stream({1, 16, 16, 8}, 0.08, 51);
  const auto in_b = data::random_stream({1, 16, 16, 8}, 0.08, 52);

  NetworkRunStats a[2], b[2];
  int k = 0;
  for (bool fast : {false, true}) {
    SneConfig hw = SneConfig::paper_design_point(1);
    hw.fast_forward = fast;
    SneEngine engine(hw, 1u << 20);
    NetworkRunner runner(engine, /*use_wload_stream=*/false);
    a[k] = runner.run(net, in_a);
    b[k] = runner.run(net, in_b);  // same engine, second dataset
    ++k;
  }
  expect_equivalent(a[0], a[1]);
  expect_equivalent(b[0], b[1]);
}

TEST(FastForwardEquivalence, WloadStreamProgramming) {
  // Weight programming through the C-XBAR WLOAD path (per-cycle payload
  // consumption) interleaved with simulation.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 6, 47));
  const auto in = data::random_stream({1, 16, 16, 8}, 0.06, 61);

  NetworkRunStats stats[2];
  int k = 0;
  for (bool fast : {false, true}) {
    SneConfig hw = SneConfig::paper_design_point(1);
    hw.fast_forward = fast;
    SneEngine engine(hw, 1u << 20);
    NetworkRunner runner(engine, /*use_wload_stream=*/true);
    stats[k++] = runner.run(net, in);
  }
  ASSERT_GT(stats[0].total.weight_load_beats, 0u);
  expect_equivalent(stats[0], stats[1]);
}

// --- batched drain engine ----------------------------------------------------

TEST(DrainEquivalence, DenseSpikingFire) {
  // Zero threshold and non-negative weights: every mapped neuron fires at
  // every scan, the worst case for the collector/DMA chain — exactly the
  // interleaving the batched drain engine compresses.
  QuantizedLayerSpec l = conv_layer(2, 16, 4, 0, 53);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({2, 16, 16, 6}, 0.25, 77);
  SneConfig hw = SneConfig::paper_design_point(2);
  expect_drain_equivalent(hw, net, in);
}

TEST(DrainEquivalence, MultiOutputDmas) {
  // The collector issues one beat per output DMA per cycle; the drain
  // replay must reproduce the per-DMA interleaving for every configured
  // width (paper IV-A.3's bandwidth-scaling knob).
  QuantizedLayerSpec l = conv_layer(2, 16, 4, 0, 59);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({2, 16, 16, 6}, 0.2, 79);
  for (std::uint32_t dmas : {1u, 2u, 4u}) {
    SneConfig hw = SneConfig::paper_design_point(4);
    hw.num_output_dmas = dmas;
    expect_drain_equivalent(hw, net, in);
  }
}

TEST(DrainEquivalence, MultiDmaWideSteadyRotation) {
  // 8 slices of dense output against D ∈ {2, 4} output DMAs: long steady
  // spans where D grants per cycle rotate across the request mask. The
  // D-wide closed form must land exactly where the per-cycle rotation
  // would — cursor position, per-DMA write interleaving, refill timing and
  // every counter, across block boundaries where D does not divide the
  // member count (M = 8 participants is exercised alongside smaller tails
  // as slices finish draining).
  QuantizedLayerSpec l = conv_layer(1, 16, 32, 0, 101);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.2, 103);
  for (std::uint32_t dmas : {2u, 4u}) {
    SneConfig hw = SneConfig::paper_design_point(8);
    hw.num_output_dmas = dmas;
    expect_drain_equivalent(hw, net, in);
  }
}

TEST(DrainEquivalence, ShallowFifosDenseDrain) {
  // Minimal buffering everywhere: stalls and backpressure at every hop of
  // the drain chain, including repeated full slice-output FIFOs.
  QuantizedLayerSpec l = conv_layer(1, 16, 2, 0, 61);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.3, 83);
  SneConfig hw = SneConfig::paper_design_point(1);
  hw.cluster_fifo_depth = 1;
  hw.slice_out_fifo_depth = 1;
  hw.dma_fifo_depth = 2;
  expect_drain_equivalent(hw, net, in);
}

TEST(DrainEquivalence, PipelineBackpressureDuringDrain) {
  // Pipeline operating mode with a spike-dense first stage and shallow
  // inter-slice FIFOs: the downstream slice backpressures the upstream
  // drain through the C-XBAR while both stages emit concurrently.
  QuantizedLayerSpec l1 = conv_layer(1, 16, 2, 0, 67);
  for (auto& w : l1.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  auto l2 = conv_layer(2, 16, 2, 1, 71);
  l2.name = "conv2";
  QuantizedNetwork net;
  net.layers.push_back(l1);
  net.layers.push_back(l2);
  const auto in = data::random_stream({1, 16, 16, 6}, 0.2, 87);

  event::EventStream outputs[3];
  hwsim::ActivityCounters counters[3];
  std::uint64_t cycles[3];
  int k = 0;
  for (int mode = 0; mode < 3; ++mode) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = mode > 0;
    hw.drain_batching = mode > 1;
    hw.slice_in_fifo_depth = 1;
    hw.slice_out_fifo_depth = 2;
    SneEngine engine(hw, 1u << 20);
    const auto geom = ecnn::build_pipeline(engine, net, in.geometry().timesteps);
    core::RunOptions opts;
    opts.out_geometry = geom;
    const auto r = engine.run(in, opts);
    outputs[k] = r.output;
    counters[k] = r.counters;
    cycles[k] = r.cycles;
    ++k;
  }
  ASSERT_GT(counters[0].output_events, 0u);
  for (int m = 1; m < 3; ++m) {
    EXPECT_EQ(cycles[0], cycles[m]) << "mode " << m;
    EXPECT_TRUE(counters[0] == counters[m]) << "mode " << m
        << " counters diverge:\nref:  " << counters[0] << "\nfast: " << counters[m];
    EXPECT_TRUE(outputs[0] == outputs[m]) << "mode " << m;
  }
}

TEST(DrainEquivalence, PipeRoutedBulkDrainHostsDecodeBoundaries) {
  // Pipeline operating mode at default FIFO depths: the downstream slice
  // decodes a fresh event every few cycles, so the batched drain kernel
  // cannot exit at every decode boundary — it hosts the boundary slice via
  // the full tick() dispatch inside the kernel cycle while the rest of the
  // chain replays on the specialized path. Three-way bit-exact: cycles,
  // every counter field, exact output event order.
  QuantizedLayerSpec l1 = conv_layer(1, 16, 2, 0, 107);
  for (auto& w : l1.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  auto l2 = conv_layer(2, 16, 2, 5, 109);
  l2.name = "conv2";
  QuantizedNetwork net;
  net.layers.push_back(l1);
  net.layers.push_back(l2);
  const auto in = data::random_stream({1, 16, 16, 10}, 0.25, 113);

  event::EventStream outputs[3];
  hwsim::ActivityCounters counters[3];
  std::uint64_t cycles[3];
  int k = 0;
  for (int mode = 0; mode < 3; ++mode) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = mode > 0;
    hw.drain_batching = mode > 1;
    SneEngine engine(hw, 1u << 20);
    const auto geom = ecnn::build_pipeline(engine, net, in.geometry().timesteps);
    core::RunOptions opts;
    opts.out_geometry = geom;
    const auto r = engine.run(in, opts);
    outputs[k] = r.output;
    counters[k] = r.counters;
    cycles[k] = r.cycles;
    ++k;
  }
  ASSERT_GT(counters[0].output_events, 0u);
  for (int m = 1; m < 3; ++m) {
    EXPECT_EQ(cycles[0], cycles[m]) << "mode " << m;
    EXPECT_TRUE(counters[0] == counters[m]) << "mode " << m
        << " counters diverge:\nref:  " << counters[0] << "\nfast: " << counters[m];
    EXPECT_TRUE(outputs[0] == outputs[m]) << "mode " << m;
  }
}

TEST(DrainEquivalence, FullOutputRegion) {
  // Output region sized down until the dense run overflows it: the drain
  // replay must stop one word short and let the per-cycle path raise the
  // same overflow, and near-full runs must stay bit-identical.
  QuantizedLayerSpec l = conv_layer(1, 16, 2, 0, 73);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({1, 16, 16, 4}, 0.3, 91);

  // 8192-word memory -> 4096-word output region: fits (~2k spikes + markers).
  SneConfig hw = SneConfig::paper_design_point(1);
  expect_drain_equivalent(hw, net, in, 8192);

  // 2048-word memory -> 1024-word region: overflows identically in every
  // engine mode.
  for (int mode = 0; mode < 3; ++mode) {
    SneConfig ov = hw;
    ov.fast_forward = mode > 0;
    ov.drain_batching = mode > 1;
    EXPECT_THROW(run_network_cfg(ov, net, in, 2048), ConfigError)
        << "mode " << mode;
  }
}

// --- per-event UPDATE fast path ----------------------------------------------
// The cluster-mask address filter, the slot-scan-free FC integrate and the
// live-slice engine loops, each compared three ways (per-cycle reference,
// fast-forward, fast-forward + drain batching) and against the golden
// executor.

/// The functional check the three-way tiers cannot make (every engine mode
/// shares the address filter): each layer's spikes equal the golden
/// executor's.
void expect_matches_golden(const NetworkRunStats& stats,
                           const QuantizedNetwork& net,
                           const event::EventStream& input) {
  ASSERT_EQ(stats.layers.size(), net.layers.size());
  std::vector<event::EventStream> gold;
  gold.reserve(net.layers.size());
  const event::EventStream* in = &input;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    gold.push_back(ecnn::GoldenExecutor::run_layer(net.layers[i], *in).output);
    EXPECT_EQ(testutil::canonical_spikes(stats.layers[i].output),
              testutil::canonical_spikes(gold.back()))
        << "layer " << i;
    in = &gold.back();
  }
}

QuantizedLayerSpec pool_layer(std::uint16_t channels, std::uint16_t size,
                              std::uint8_t window) {
  QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kPool;
  l.name = "pool";
  l.in_ch = channels;
  l.in_w = size;
  l.in_h = size;
  l.out_ch = channels;
  l.kernel = window;
  l.stride = window;
  l.pad = 0;
  l.lif.leak = 0;
  l.lif.v_th = 0;  // OR-pooling, as ecnn::quantize programs it
  return l;
}

TEST(UpdateFastPath, DepthwisePoolingSeveralChannelsPerSlice) {
  // 8 channels of 16x16 pooled 2x2 -> one 8x8 tile per channel, so all 8
  // channels share one slice: the depthwise channel mask must keep every
  // cluster deaf to the other channels' events.
  QuantizedNetwork net;
  net.layers.push_back(pool_layer(8, 16, 2));
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto plan = ecnn::Mapper(hw).plan(net.layers[0], 8);
  ASSERT_EQ(plan.rounds[0].passes.size(), 1u);
  ASSERT_EQ(plan.rounds[0].passes[0].cfg.oc_per_slice, 8);
  const auto in = data::random_stream({8, 16, 16, 8}, 0.08, 131);
  const auto stats = expect_drain_equivalent(hw, net, in);
  expect_matches_golden(stats, net, in);
  // One SOP per accepted event: only the event's own channel integrates.
  EXPECT_EQ(stats.total.neuron_updates, stats.total.events_consumed);
  EXPECT_GT(stats.total.gated_cluster_cycles, 0u);
  EXPECT_GT(stats.total.output_events, 0u);
}

TEST(UpdateFastPath, StrideTwoEdgeEventsWithEmptyReceptiveInterval) {
  // 3x3 stride-2 pad-0 on 16x16 -> 7x7 outputs: input column/row 15 feeds
  // no output, so those events have an empty receptive interval. Empty
  // columns are dropped by the filter; empty rows still burn the fixed
  // sweep (or none, with the adaptive sequencer).
  QuantizedLayerSpec l = conv_layer(2, 16, 4, 3, 137);
  l.stride = 2;
  l.pad = 0;
  QuantizedNetwork net;
  net.layers.push_back(l);
  auto in = data::random_stream({2, 16, 16, 8}, 0.06, 139);
  for (std::uint16_t t = 0; t < 8; ++t) {
    in.push_update(t, static_cast<std::uint16_t>(t % 2), 15,
                   static_cast<std::uint8_t>(t));
    in.push_update(t, static_cast<std::uint16_t>(t % 2),
                   static_cast<std::uint8_t>(2 * t), 15);
    in.push_update(t, 0, 15, 15);
  }
  in.normalize();
  std::uint64_t reachable = 0;  // events some output neuron listens to
  for (const auto& e : in.events())
    if (e.op == event::Op::kUpdate && e.x < 15 && e.y < 15) ++reachable;
  for (bool adaptive : {false, true}) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.adaptive_sequencer = adaptive;
    ASSERT_EQ(ecnn::Mapper(hw).plan(l, 8).rounds[0].passes.size(), 1u);
    const auto stats = expect_drain_equivalent(hw, net, in);
    expect_matches_golden(stats, net, in);
    // The filter drops every edge event at decode, whichever axis is empty.
    EXPECT_EQ(stats.total.events_consumed, reachable);
  }
}

TEST(UpdateFastPath, MultiClusterBufferResidentFc) {
  // 16 input positions fit the filter buffer (16 x 16 clusters = 256 sets);
  // 1096 outputs span two slices, the second with a partial last cluster.
  QuantizedNetwork net;
  net.layers.push_back(fc_layer(1, 4, 1096, 149));
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto plan = ecnn::Mapper(hw).plan(net.layers[0], 10);
  ASSERT_EQ(plan.rounds.size(), 1u);
  ASSERT_EQ(plan.rounds[0].passes.size(), 2u);
  ASSERT_FALSE(plan.rounds[0].passes[0].cfg.fc_weights_streamed);
  const auto in = data::random_stream({1, 4, 4, 10}, 0.15, 151);
  const auto stats = expect_drain_equivalent(hw, net, in);
  expect_matches_golden(stats, net, in);
  EXPECT_GT(stats.total.output_events, 0u);
}

TEST(UpdateFastPath, StreamedFcBeatsOutnumberTdmSlots) {
  // 700 outputs on one slice stream ceil(700 * 4 / 32) = 88 weight beats
  // per event, more than the 64 TDM slots: the event's occupancy is the
  // streaming time, not the sweep.
  QuantizedNetwork net;
  net.layers.push_back(fc_layer(2, 16, 700, 157));
  const SneConfig hw = SneConfig::paper_design_point(1);
  const auto plan = ecnn::Mapper(hw).plan(net.layers[0], 8);
  ASSERT_TRUE(plan.rounds[0].passes[0].cfg.fc_weights_streamed);
  const auto in = data::random_stream({2, 16, 16, 8}, 0.03, 163);
  const auto stats = expect_drain_equivalent(hw, net, in);
  expect_matches_golden(stats, net, in);
  EXPECT_EQ(stats.total.weight_load_beats, stats.total.events_consumed * 88);
  EXPECT_GT(stats.total.output_events, 0u);
}

TEST(UpdateFastPath, StaleSlicesOutsideTheLiveSet) {
  // One engine runs an 8-slice layer (one output channel per slice), then
  // 2-slice layers: slices 2..7 keep the first layer's configuration but
  // are no longer routed, so the fast paths' live set excludes them while
  // the per-cycle reference still ticks all eight.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 32, 8, 5, 167));
  net.layers.push_back(pool_layer(8, 32, 2));
  auto l3 = conv_layer(8, 16, 8, 6, 173);
  l3.name = "conv3";
  net.layers.push_back(l3);
  const SneConfig hw = SneConfig::paper_design_point(8);
  const ecnn::Mapper mapper(hw);
  ASSERT_EQ(mapper.plan(net.layers[0], 10).rounds[0].passes.size(), 8u);
  ASSERT_EQ(mapper.plan(net.layers[2], 10).rounds[0].passes.size(), 2u);
  const auto in = data::random_stream({2, 32, 32, 10}, 0.04, 179);
  expect_matches_golden(expect_drain_equivalent(hw, net, in), net, in);

  // Same engine, second input: every slice is stale-configured at start.
  NetworkRunStats runs[3][2];
  for (int mode = 0; mode < 3; ++mode) {
    SneConfig m = hw;
    m.fast_forward = mode > 0;
    m.drain_batching = mode > 1;
    SneEngine engine(m, 1u << 20);
    NetworkRunner runner(engine, /*use_wload_stream=*/false);
    runs[mode][0] = runner.run(net, in);
    runs[mode][1] =
        runner.run(net, data::random_stream({2, 32, 32, 10}, 0.04, 181));
  }
  ASSERT_GT(runs[0][1].layers[2].output_events, 0u);
  for (int mode = 1; mode < 3; ++mode)
    for (int k = 0; k < 2; ++k) expect_equivalent(runs[0][k], runs[mode][k]);
}

// --- config-space differential ----------------------------------------------

/// One random layer: conv (strided, padded, multi-round when the channels
/// outnumber the slices), depthwise pooling, or FC (buffer-resident when
/// its positions fit the filter buffer, weight-streamed otherwise).
QuantizedLayerSpec random_layer(Rng& rng) {
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return rng.uniform_int(lo, hi);
  };
  QuantizedLayerSpec l;
  switch (pick(0, 3)) {
    case 0:
    case 1: {
      const auto size = static_cast<std::uint16_t>(8 * pick(1, 2));
      l = conv_layer(static_cast<std::uint16_t>(pick(1, 3)), size,
                     static_cast<std::uint16_t>(pick(1, 12)),
                     static_cast<std::int32_t>(pick(0, 12)),
                     static_cast<std::uint64_t>(pick(1, 1 << 20)));
      l.stride = static_cast<std::uint16_t>(pick(1, 2));
      l.pad = static_cast<std::uint16_t>(pick(0, 1));
      break;
    }
    case 2:
      l = pool_layer(static_cast<std::uint16_t>(pick(1, 8)),
                     static_cast<std::uint16_t>(8 * pick(1, 2)), 2);
      break;
    default:
      // Output counts the mapper can shape into the event address space.
      l = pick(0, 1) == 0
              ? fc_layer(1, 4, std::array<std::uint16_t, 4>{10, 64, 200, 1096}[
                                   static_cast<std::size_t>(pick(0, 3))],
                         static_cast<std::uint64_t>(pick(1, 1 << 20)))
              : fc_layer(static_cast<std::uint16_t>(pick(1, 2)), 16,
                         std::array<std::uint16_t, 3>{11, 48, 700}[
                             static_cast<std::size_t>(pick(0, 2))],
                         static_cast<std::uint64_t>(pick(1, 1 << 20)));
      l.lif.v_th = static_cast<std::int32_t>(pick(0, 12));
  }
  if (l.type != ecnn::LayerSpec::Type::kPool) {
    l.lif.leak = static_cast<std::int32_t>(pick(0, 2));
    l.lif.leak_mode = pick(0, 1) == 0 ? neuron::LeakMode::kTowardZero
                                      : neuron::LeakMode::kSubtractive;
  }
  return l;
}

TEST(ConfigSpaceDifferential, RandomConfigsAgreeOnAllPaths) {
  // Seeded draws over the knobs the fast paths special-case — slice count,
  // every FIFO depth (slice input FIFO of 1 included), output DMAs,
  // single-buffered state, the adaptive sequencer, clock gating off,
  // randomized memory contention — and over layer shapes and input
  // activities. Each config's three engines (per-cycle reference,
  // fast-forward, fast-forward + drain batching) are reused across its
  // layer draws with reset() in between; every draw must agree bit for bit.
  Rng rng(20261019);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return rng.uniform_int(lo, hi);
  };
  constexpr int kConfigs = 48;
  constexpr int kDrawsPerConfig = 4;
  std::uint64_t draws_with_spikes = 0;
  for (int ci = 0; ci < kConfigs; ++ci) {
    SneConfig hw = SneConfig::paper_design_point(
        static_cast<std::uint32_t>(pick(1, 8)));
    hw.slice_in_fifo_depth =
        ci % 4 == 0 ? 1 : static_cast<std::uint32_t>(pick(1, 4));
    hw.slice_out_fifo_depth = static_cast<std::uint32_t>(pick(1, 4));
    hw.cluster_fifo_depth = static_cast<std::uint32_t>(pick(1, 4));
    hw.dma_fifo_depth = pick(0, 1) == 0 ? 16 : static_cast<std::uint32_t>(pick(1, 4));
    hw.num_output_dmas = static_cast<std::uint32_t>(pick(1, 4));
    hw.double_buffered_state = pick(0, 2) != 0;
    hw.adaptive_sequencer = pick(0, 1) == 0;
    hw.clock_gating = pick(0, 3) != 0;
    hwsim::MemoryTiming timing;
    timing.latency_cycles = static_cast<std::uint32_t>(pick(1, 6));
    if (ci % 2 == 1) {
      timing.stall_probability = rng.uniform(0.02, 0.3);
      // Up to longer than a full sweep: a shallow input DMA FIFO then
      // starves the slices mid-stream.
      timing.stall_cycles = static_cast<std::uint32_t>(pick(1, 64));
      (void)pick(0, 1);  // keeps the seeded draw sequence of later configs
    }
    const bool wload = pick(0, 1) == 0;
    std::vector<std::unique_ptr<SneEngine>> engines;
    for (int mode = 0; mode < 3; ++mode) {
      SneConfig m = hw;
      m.fast_forward = mode > 0;
      m.drain_batching = mode > 1;
      engines.push_back(std::make_unique<SneEngine>(m, 1u << 20, timing));
    }
    for (int di = 0; di < kDrawsPerConfig; ++di) {
      QuantizedNetwork net;
      net.layers.push_back(random_layer(rng));
      const auto& l = net.layers[0];
      const double activity = std::array{0.01, 0.04, 0.1, 0.25}[pick(0, 3)];
      const auto in = data::random_stream(
          {l.in_ch, static_cast<std::uint8_t>(l.in_w),
           static_cast<std::uint8_t>(l.in_h),
           static_cast<std::uint16_t>(pick(2, 8))},
          activity, static_cast<std::uint64_t>(pick(1, 1 << 20)));
      NetworkRunStats stats[3];
      for (int mode = 0; mode < 3; ++mode) {
        engines[mode]->reset();
        NetworkRunner runner(*engines[mode], wload);
        stats[mode] = runner.run(net, in);
      }
      SCOPED_TRACE(::testing::Message()
                   << "config " << ci << " draw " << di << ": "
                   << hw.num_slices << " slices, in-FIFO "
                   << hw.slice_in_fifo_depth << ", DMA FIFO "
                   << hw.dma_fifo_depth << ", " << hw.num_output_dmas
                   << " output DMAs, stall p " << timing.stall_probability
                   << ", layer type " << static_cast<int>(l.type));
      expect_equivalent(stats[0], stats[1]);
      expect_equivalent(stats[0], stats[2]);
      if (stats[0].total.output_events > 0) ++draws_with_spikes;
    }
  }
  EXPECT_GT(draws_with_spikes, static_cast<std::uint64_t>(kConfigs));
}

// --- BatchRunner ------------------------------------------------------------

TEST(BatchRunnerTest, DeterministicAcrossWorkerCounts) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 32, 4, 6, 5));

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 6; ++s)
    inputs.push_back(data::random_stream({2, 32, 32, 8}, 0.04, 100 + s));

  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::BatchOptions base;
  base.memory_words = 1u << 20;

  std::vector<std::vector<NetworkRunStats>> all;
  for (unsigned workers : {1u, 2u, 3u}) {
    ecnn::BatchOptions o = base;
    o.workers = workers;
    ecnn::BatchRunner runner(hw, net, o);
    all.push_back(runner.run(inputs));
  }
  for (std::size_t w = 1; w < all.size(); ++w) {
    ASSERT_EQ(all[0].size(), all[w].size());
    for (std::size_t i = 0; i < all[0].size(); ++i) {
      EXPECT_EQ(all[0][i].cycles, all[w][i].cycles) << "sample " << i;
      EXPECT_TRUE(all[0][i].total == all[w][i].total) << "sample " << i;
      EXPECT_TRUE(all[0][i].final_output == all[w][i].final_output)
          << "sample " << i;
    }
  }
}

TEST(BatchRunnerTest, MatchesSerialNetworkRunner) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 5, 71));

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 4; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 8}, 0.06, 200 + s));

  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::BatchOptions o;
  o.memory_words = 1u << 20;
  o.workers = 2;
  ecnn::BatchRunner batch(hw, net, o);
  const auto batched = batch.run(inputs);

  // Serial reference: one engine reused across samples, as dataset loops
  // have always done.
  SneEngine engine(hw, 1u << 20);
  NetworkRunner runner(engine, /*use_wload_stream=*/false);
  ASSERT_EQ(batched.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto serial = runner.run(net, inputs[i]);
    EXPECT_EQ(serial.cycles, batched[i].cycles) << "sample " << i;
    EXPECT_TRUE(serial.total == batched[i].total) << "sample " << i;
    EXPECT_TRUE(serial.final_output == batched[i].final_output)
        << "sample " << i;
  }
}

TEST(BatchRunnerTest, PropagatesTaskExceptions) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 5, 73));
  const SneConfig hw = SneConfig::paper_design_point(1);
  ecnn::BatchOptions o;
  o.memory_words = 1u << 20;
  o.workers = 2;
  ecnn::BatchRunner runner(hw, net, o);
  // An output map wider than the event address space makes Slice::configure
  // throw inside a worker; the exception must surface on the calling thread.
  QuantizedNetwork bad;
  bad.layers.push_back(conv_layer(1, 160, 1, 5, 73));
  ecnn::BatchRunner bad_runner(hw, bad, o);
  std::vector<event::EventStream> inputs;
  inputs.push_back(data::random_stream({1, 160, 160, 2}, 0.02, 3));
  EXPECT_ANY_THROW(bad_runner.run(inputs));
}

}  // namespace
}  // namespace sne
