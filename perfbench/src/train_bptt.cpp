// train-bptt: closed-loop BPTT epochs of the Fig. 6-style topology on the
// synthetic gesture dataset, through train::Trainer::fit with a fixed
// minibatch on at most nproc lanes. The only workload that reaches the
// trainer (forward plus the dense input-gradient backward); it touches no
// engine or serving code.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>

#include "data/synthetic.h"
#include "ecnn/layer.h"
#include "harness.h"
#include "train/trainer.h"

namespace perfbench {

using namespace sne;

namespace {

constexpr std::uint32_t kMinibatch = 8;
constexpr std::size_t kEpochsPerRep = 3;

train::Trainer make_trainer(const data::Dataset& ds, std::uint64_t seed,
                            unsigned workers) {
  train::TrainConfig cfg;
  cfg.epochs = 1;  // one fit() call == one timed epoch
  cfg.minibatch = kMinibatch;
  cfg.workers = workers;
  cfg.seed = seed;
  train::Trainer t(ecnn::Network::paper_topology(2, 32, 32, ds.classes, 8, 64), cfg);
  ScopedSpan span("train.calibrate");
  t.calibrate_thresholds(ds);
  return t;
}

bool bitwise_equal(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

}  // namespace

Result run_train_bptt(const Args& a) {
  const unsigned lanes = std::min(host_cpus(), 4u);
  data::Dataset ds;
  std::optional<train::Trainer> trainer;
  double gen_ms = 0.0;
  const auto make_dataset = [&] {
    data::GestureConfig gc;
    gc.timesteps = 24;
    gc.samples_per_class = 2;
    gc.seed = a.seed * 7919 + 3;
    return data::make_gesture_dataset(gc);
  };
  const double setup_s = median_setup_s([&] {
    const auto t0 = Clock::now();
    ds = make_dataset();
    gen_ms = ms_since(t0);
    trainer.emplace(make_trainer(ds, a.seed, lanes));
  });
  const double samples = static_cast<double>(ds.samples.size());

  // One-lane reference trajectory: per-epoch losses every repeat must equal
  // bit for bit (worker count never changes trained bits).
  std::vector<double> ref_loss;
  std::vector<double> one_lane_ms;
  {
    train::Trainer t = make_trainer(ds, a.seed, 1);
    for (std::size_t e = 0; e < kEpochsPerRep; ++e) {
      const auto t0 = Clock::now();
      ref_loss.push_back(t.fit(ds).front().loss);
      one_lane_ms.push_back(ms_since(t0));
    }
  }

  Result r;
  // Closed loop of repeats: a fresh trainer (same seed), kEpochsPerRep
  // timed epochs, its loss trajectory checked against the reference. The
  // setup-built trainer serves as the first repeat's, which doubles as the
  // untimed warm-up of the lane pool and scratch arenas.
  {
    std::vector<double> loss;
    for (std::size_t e = 0; e < kEpochsPerRep; ++e) loss.push_back(trainer->fit(ds).front().loss);
    if (!bitwise_equal(loss, ref_loss)) r.correct = false;
  }
  const auto loop = [&](double seconds) {
    std::vector<double> epoch_ms;
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    do {
      train::Trainer t = make_trainer(ds, a.seed, lanes);
      std::vector<double> loss;
      for (std::size_t e = 0; e < kEpochsPerRep; ++e) {
        const auto t0 = Clock::now();
        {
          ScopedSpan span("train.fit", e);
          loss.push_back(t.fit(ds).front().loss);
        }
        epoch_ms.push_back(ms_since(t0));
      }
      r.check(bitwise_equal(loss, ref_loss));
    } while (Clock::now() < end);
    return epoch_ms;
  };
  // Throughput of the median epoch: robust to bursts of host interference.
  const auto per_s = [&](const std::vector<double>& epoch_ms) {
    return samples * 1e3 / median(epoch_ms);
  };

  Values v;
  v["setup_s"] = setup_s;
  v["data.gesture_gen_ms"] = gen_ms;
  if (!a.trace) {
    const auto epoch_ms = loop(a.seconds);
    const Tail tail = tail_of(epoch_ms);
    v["ops_per_s"] = per_s(epoch_ms);
    v["op_p50_ms"] = median(epoch_ms);
    v["op_tail_ms"] = tail.value;
    std::cout << "train-bptt: " << v["ops_per_s"] << " samples/s on " << lanes
              << " lanes (minibatch " << kMinibatch << ", " << samples
              << " samples/epoch); epoch p50 " << v["op_p50_ms"] << " ms, "
              << tail.label() << " " << tail.value << " ms\n";
  } else {
    const double untraced = per_s(loop(a.seconds * 0.45));
    SpanLog::enable();
    const double traced = per_s(loop(a.seconds * 0.45));
    {
      const auto end = Clock::now() + std::chrono::duration<double>(a.seconds * 0.1);
      do {
        ScopedSpan span("train.eval");
        (void)trainer->evaluate(ds);
      } while (Clock::now() < end);
    }
    SpanLog::disable();
    v["obs.trace_overhead_frac"] = untraced / traced - 1.0;
    v["train.fit_ms_per_epoch"] = median(SpanLog::durations_ms("train.fit"));
    v["train.eval_ms"] = median(SpanLog::durations_ms("train.eval"));
    v["train.calibrate_ms"] = median(SpanLog::durations_ms("train.calibrate"));
    v["train.lane_efficiency"] =
        untraced / (static_cast<double>(lanes) * samples * 1e3 / median(one_lane_ms));
    std::cout << "train-bptt traced: " << untraced << " samples/s untraced, "
              << traced << " traced; one lane " << median(one_lane_ms)
              << " ms/epoch\n";
  }
  v["ok_frac"] = r.attempted ? 1.0 - static_cast<double>(r.failed) / r.attempted : 0.0;
  v["peak_rss_mb"] = peak_rss_mb();
  emit(r, v, a.trace);
  return r;
}

}  // namespace perfbench
