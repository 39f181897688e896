// Trainer tests: the surrogate-gradient BPTT must learn a small separable
// task with both neuron models, and the quantized deployment must track the
// float model.
#include <gtest/gtest.h>

#include "common/contracts.h"
#include "data/synthetic.h"
#include "ecnn/golden.h"
#include "ecnn/quantized.h"
#include "train/trainer.h"

namespace sne::train {
namespace {

/// Tiny 2-class task: events concentrated left vs right half of the frame.
data::Dataset make_separable_task(std::uint16_t samples_per_class,
                                  std::uint64_t seed) {
  data::Dataset d;
  d.geometry = event::StreamGeometry{1, 8, 8, 10};
  d.classes = 2;
  Rng rng(seed);
  for (std::uint16_t label = 0; label < 2; ++label) {
    for (std::uint16_t k = 0; k < samples_per_class; ++k) {
      data::Sample s;
      s.label = label;
      s.stream = event::EventStream(d.geometry);
      for (std::uint16_t t = 0; t < 10; ++t)
        for (int e = 0; e < 3; ++e) {
          const std::uint8_t x = static_cast<std::uint8_t>(
              (label == 0 ? 0 : 4) + rng.uniform_int(0, 3));
          const std::uint8_t y = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
          s.stream.push_update(t, 0, x, y);
        }
      s.stream.normalize();
      d.samples.push_back(std::move(s));
    }
  }
  return d;
}

ecnn::Network tiny_net() {
  ecnn::Network n;
  ecnn::LayerSpec fc = ecnn::LayerSpec::fc("fc", 1, 8, 8, 2);
  n.layers = {fc};
  n.validate();
  return n;
}

TEST(TrainerTest, LearnsSeparableTaskWithSneLif) {
  const data::Dataset train = make_separable_task(12, 1);
  const data::Dataset test = make_separable_task(8, 2);
  TrainConfig cfg;
  cfg.model = NeuronModel::kSneLif;
  cfg.epochs = 12;
  cfg.lr = 5e-3;
  Trainer trainer(tiny_net(), cfg);
  const auto hist = trainer.fit(train);
  EXPECT_EQ(hist.size(), 12u);
  EXPECT_LT(hist.back().loss, hist.front().loss);
  EXPECT_GE(trainer.evaluate(test), 0.9);
}

TEST(TrainerTest, LearnsSeparableTaskWithSrm) {
  const data::Dataset train = make_separable_task(12, 3);
  const data::Dataset test = make_separable_task(8, 4);
  TrainConfig cfg;
  cfg.model = NeuronModel::kSrm;
  cfg.epochs = 12;
  cfg.lr = 5e-3;
  Trainer trainer(tiny_net(), cfg);
  trainer.fit(train);
  EXPECT_GE(trainer.evaluate(test), 0.9);
}

TEST(TrainerTest, QuantizedDeploymentTracksFloatModel) {
  // Train float SNE-LIF, quantize to 4 bits, evaluate with the *integer*
  // golden executor: accuracy must survive quantization on this easy task
  // (the Table I claim in miniature).
  const data::Dataset train = make_separable_task(12, 5);
  const data::Dataset test = make_separable_task(10, 6);
  TrainConfig cfg;
  cfg.model = NeuronModel::kSneLif;
  cfg.epochs = 15;
  cfg.lr = 5e-3;
  Trainer trainer(tiny_net(), cfg);
  trainer.fit(train);
  const double float_acc = trainer.evaluate(test);

  const ecnn::QuantizedNetwork qnet = ecnn::quantize(trainer.network());
  std::size_t correct = 0;
  for (const data::Sample& s : test.samples) {
    const auto traces = ecnn::GoldenExecutor::run_network(qnet, s.stream);
    const auto counts =
        ecnn::GoldenExecutor::class_spike_counts(traces.back().output, 2);
    const std::size_t pred = counts[1] > counts[0] ? 1u : 0u;
    if (pred == s.label) ++correct;
  }
  const double q_acc =
      static_cast<double>(correct) / static_cast<double>(test.samples.size());
  EXPECT_GE(float_acc, 0.9);
  EXPECT_GE(q_acc, float_acc - 0.15);
}

TEST(TrainerTest, DeterministicPerSeed) {
  const data::Dataset train = make_separable_task(6, 7);
  TrainConfig cfg;
  cfg.epochs = 3;
  Trainer a(tiny_net(), cfg), b(tiny_net(), cfg);
  const auto ha = a.fit(train);
  const auto hb = b.fit(train);
  for (std::size_t i = 0; i < ha.size(); ++i)
    EXPECT_DOUBLE_EQ(ha[i].loss, hb[i].loss);
}

TEST(TrainerTest, ForwardCountsShapeMatchesClasses) {
  TrainConfig cfg;
  Trainer t(tiny_net(), cfg);
  const auto task = make_separable_task(1, 9);
  const auto counts = t.forward_counts(task.samples[0].stream);
  EXPECT_EQ(counts.size(), 2u);
}

/// Replaces sample k's stream with one event in a stream of geometry g.
void reshape_sample(data::Dataset& d, std::size_t k,
                    event::StreamGeometry g) {
  event::EventStream s(g);
  s.push_update(static_cast<std::uint16_t>(g.timesteps - 1),
                static_cast<std::uint16_t>(g.channels - 1),
                static_cast<std::uint8_t>(g.width - 1),
                static_cast<std::uint8_t>(g.height - 1));
  d.samples[k].stream = std::move(s);
}

void expect_every_entry_point_rejects(const data::Dataset& d) {
  Trainer t(tiny_net(), TrainConfig{});
  EXPECT_THROW(t.fit(d), ConfigError);
  EXPECT_THROW(t.evaluate(d), ConfigError);
  EXPECT_THROW(t.calibrate_thresholds(d), ConfigError);
}

TEST(TrainerTest, RejectsSampleWithMoreTimestepsThanTheDataset) {
  // fit() sizes its per-sample records from the dataset's 10 timesteps, so
  // a 16-step sample would overrun them.
  data::Dataset d = make_separable_task(2, 11);
  event::StreamGeometry g = d.geometry;
  g.timesteps = 16;
  reshape_sample(d, 1, g);
  expect_every_entry_point_rejects(d);
}

TEST(TrainerTest, RejectsStreamsThatDoNotFitTheNetworkInput) {
  // A dataset of 2x8x8 frames for a 1x8x8 input: every row over-reads.
  data::Dataset wide = make_separable_task(2, 12);
  wide.geometry.channels = 2;
  for (std::size_t k = 0; k < wide.samples.size(); ++k)
    reshape_sample(wide, k, wide.geometry);
  expect_every_entry_point_rejects(wide);
  Trainer t(tiny_net(), TrainConfig{});
  EXPECT_THROW(t.forward_counts(wide.samples[0].stream), ConfigError);

  // Same flat size, other channel/width split: rejected as a sample whose
  // geometry differs from the dataset's.
  data::Dataset mixed = make_separable_task(2, 13);
  reshape_sample(mixed, 0, event::StreamGeometry{2, 4, 8, 10});
  expect_every_entry_point_rejects(mixed);
}

}  // namespace
}  // namespace sne::train
