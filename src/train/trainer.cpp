#include "train/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/contracts.h"
#include "common/frame_seq.h"
#include "common/rng.h"
#include "train/kernels.h"

// Implementation note on bit-exactness: every layout change in this file
// (flat FrameSeq records, reusable scratch slots, split backward kernels,
// sparsity skips) preserves the exact sequence of floating-point operations
// applied to each individual element, so minibatch = 1 reproduces the
// original nested-vector serial trajectory bit for bit, and no result
// depends on the worker count. The load-bearing arguments:
//  * skipping a `acc += w * s` term when s == 0.0f is exact: accumulators
//    start at +0.0, nonzero spike values are >= 1.0f (no underflow), and in
//    round-to-nearest a sum of nonzero terms can only produce +0.0, so the
//    skipped term would have added +/-0.0 to a non-negative-zero value — a
//    bitwise no-op;
//  * the split backward kernels partition outputs by weight row and inputs
//    by input channel/index: each element is owned by exactly one task and
//    receives its contributions in the same order as the fused serial loop;
//  * the conv input gradient is a gather (src/train/kernels.h) that visits,
//    for each input element, the same (oc, oy, ox ascending) contributions
//    the scatter did — kx descending in gather form — in that order. It
//    reads a zero-padded copy of the gradient and adds the product masked
//    to +0 wherever the gradient is +/-0, instead of skipping it. That is
//    exact: the accumulator starts at +0 and in round-to-nearest can never
//    become -0, so adding +0 is a bitwise no-op; and masking the product
//    (rather than multiplying by the zero) keeps an infinite or NaN weight
//    behind a zero gradient from contributing NaN, exactly as the skip did.
//    Pooling adds its +/-0 gradients unmasked for the same reason (there is
//    no product);
//  * the neuron rows compute both arms of every branch and select per lane:
//    the value each element keeps comes from the same IEEE operations on
//    the same operands as the branchy loop, and the discarded arm has no
//    effect.
namespace sne::train {

namespace {

using ecnn::LayerSpec;
using namespace detail;

/// Rasterizes an event stream into a dense time-major spike buffer
/// (duplicate events accumulate, matching per-event integration downstream).
void rasterize(const event::EventStream& s, FrameSeq& dense) {
  const auto& g = s.geometry();
  dense.reshape(g.timesteps,
                static_cast<std::size_t>(g.channels) * g.width * g.height);
  dense.zero();
  for (const event::Event& e : s.events()) {
    if (e.op != event::Op::kUpdate) continue;
    dense.row(e.t)[flat_index(e.ch, e.y, e.x, g.height, g.width)] += 1.0f;
  }
}

/// Rejects a stream the network cannot take: its flat (channels x width x
/// height) size must be the first layer's input size, or the forward
/// kernels would index past the rasterized rows.
void expect_stream_fits(const event::StreamGeometry& g,
                        const ecnn::Network& net) {
  const std::size_t n_in = net.layers.front().in_flat();
  if (g.sites() != n_in)
    throw ConfigError("trainer: stream of " + std::to_string(g.sites()) +
                      " sites does not fit the network input of " +
                      std::to_string(n_in));
}

/// Rejects a dataset that does not fit the network, or whose samples do not
/// all share its geometry: fit() sizes every per-sample record from the
/// dataset geometry.
void expect_dataset_fits(const data::Dataset& ds, const ecnn::Network& net) {
  expect_stream_fits(ds.geometry, net);
  const event::StreamGeometry& want = ds.geometry;
  for (std::size_t k = 0; k < ds.samples.size(); ++k) {
    const event::StreamGeometry& g = ds.samples[k].stream.geometry();
    if (g.channels != want.channels || g.width != want.width ||
        g.height != want.height || g.timesteps != want.timesteps)
      throw ConfigError("trainer: sample " + std::to_string(k) +
                        " geometry differs from the dataset's");
  }
}

/// Reusable neuron-state scratch for the non-recording forward.
struct DenseScratch {
  std::vector<double> v, syn, refr;
  std::vector<float> drive;
  OpScratch op;

  void prepare(std::size_t n) {
    v.assign(n, 0.0);
    syn.assign(n, 0.0);
    refr.assign(n, 0.0);
    if (drive.size() < n) drive.resize(n);
  }
};

/// Pure dense forward of one layer (no recording): shared by inference,
/// evaluation and threshold calibration. `threshold_override` < 0 uses the
/// layer's own threshold.
void forward_layer_dense(const LayerSpec& l, NeuronModel model,
                         const NeuronConsts& nc, const FrameSeq& in,
                         FrameSeq& out, DenseScratch& sc,
                         double threshold_override = -1.0) {
  const std::size_t T = in.steps();
  const std::size_t n = l.out_flat();
  const double th = threshold_override >= 0.0
                        ? threshold_override
                        : static_cast<double>(l.threshold);
  out.reshape(T, n);
  sc.prepare(n);
  for (std::size_t t = 0; t < T; ++t) {
    gather_nonzeros(in.row(t), l.in_flat(), sc.op.nz);
    forward_op(l, in.row(t), sc.op.nz.data(), sc.op.nz.size(), sc.op,
               sc.drive.data());
    if (l.type == LayerSpec::Type::kPool) {
      or_pool_row(sc.drive.data(), n, out.row(t));
    } else {
      step_neuron_row<false>(model, nc, th, sc.drive.data(), n, sc.v.data(),
                             sc.syn.data(), sc.refr.data(), out.row(t),
                             nullptr);
    }
  }
}

double spike_rate(const FrameSeq& spikes) {
  if (spikes.size() == 0) return 0.0;
  double acc = 0.0;
  const float* p = spikes.data();
  for (std::size_t i = 0; i < spikes.size(); ++i) acc += p[i];
  return acc / static_cast<double>(spikes.size());
}

/// Per-thread inference scratch (rasterized input + layer ping-pong +
/// neuron state), reused across samples so parallel evaluate/calibrate
/// sweeps allocate nothing after warm-up. Every buffer is fully rewritten
/// per sample, so reuse cannot leak state between samples.
struct EvalScratch {
  FrameSeq a, b;
  DenseScratch ds;
  std::vector<double> counts;
};

EvalScratch& eval_scratch() {
  static thread_local EvalScratch sc;
  return sc;
}

/// Dense forward of the whole network into per-class output spike counts.
void forward_network_counts(const ecnn::Network& net, NeuronModel model,
                            const NeuronConsts& nc,
                            const event::EventStream& stream, double* counts,
                            std::size_t classes, EvalScratch& sc) {
  rasterize(stream, sc.a);
  FrameSeq* cur = &sc.a;
  FrameSeq* nxt = &sc.b;
  for (const LayerSpec& l : net.layers) {
    forward_layer_dense(l, model, nc, *cur, *nxt, sc.ds);
    std::swap(cur, nxt);
  }
  std::fill_n(counts, classes, 0.0);
  for (std::size_t t = 0; t < cur->steps(); ++t)
    for (std::size_t k = 0; k < classes; ++k) counts[k] += cur->row(t)[k];
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-minibatch-sample scratch arena: all forward records, boundary
// gradients and per-sample weight gradients for one sample, flat and
// reusable. One slot per minibatch position; a slot is touched by exactly
// one pool task per minibatch, and the reductions over slots run serially
// in slot (== sample) order afterwards.
struct Trainer::FitSlot {
  struct LayerRec {
    std::size_t n_in = 0, n_out = 0;
    bool is_pool = false;
    const FrameSeq* in = nullptr;  ///< producer's spikes (or the raster input)
    FrameSeq v_pre;                ///< membrane before spike/reset (non-pool)
    FrameSeq spikes;               ///< binary outputs
    FrameSeq g_in;                 ///< dL/d(input spikes) of this layer
    std::vector<float> g_w;        ///< per-sample weight gradient (non-pool)
    // CSR cache of the input rows' nonzero positions, built once during the
    // forward pass and re-walked by the input-driven weight-gradient pass.
    std::vector<std::uint32_t> nz;
    std::vector<std::size_t> nz_off;  ///< T + 1 offsets into nz
  };

  FrameSeq input;                ///< rasterized sample
  std::vector<LayerRec> layers;
  FrameSeq g_top;                ///< dL/d(output spikes) of the last layer
  OpScratch op;
  // Row-sized scratch (width = max layer fan-out).
  std::vector<float> drive, g_drive;
  std::vector<double> v, syn, refr, g_v_post, g_syn;
  // Loss scratch and per-sample results, reduced in slot order.
  std::vector<double> counts, p;
  std::vector<float> g_count;
  double loss = 0.0;
  bool correct = false;

  void prepare(const ecnn::Network& net, std::size_t T, std::size_t classes) {
    layers.resize(net.layers.size());
    std::size_t max_out = 0;
    for (std::size_t li = 0; li < net.layers.size(); ++li) {
      const LayerSpec& l = net.layers[li];
      LayerRec& r = layers[li];
      r.n_in = l.in_flat();
      r.n_out = l.out_flat();
      r.is_pool = l.type == LayerSpec::Type::kPool;
      r.spikes.reshape(T, r.n_out);
      r.g_in.reshape(T, r.n_in);
      if (!r.is_pool) {
        r.v_pre.reshape(T, r.n_out);
        r.g_w.resize(l.weights.size());
      }
      max_out = std::max(max_out, r.n_out);
    }
    // Producer links (re-established every prepare: resize may relocate).
    for (std::size_t li = 0; li < layers.size(); ++li)
      layers[li].in = li == 0 ? &input : &layers[li - 1].spikes;
    g_top.reshape(T, classes);
    if (drive.size() < max_out) drive.resize(max_out);
    if (g_drive.size() < max_out) g_drive.resize(max_out);
    if (v.size() < max_out) {
      v.resize(max_out);
      syn.resize(max_out);
      refr.resize(max_out);
      g_v_post.resize(max_out);
      g_syn.resize(max_out);
    }
    counts.resize(classes);
    p.resize(classes);
    g_count.resize(classes);
  }

  /// Forward + loss + backward for one sample. Weights are read-only here;
  /// the optimizer step happens after the whole minibatch reduces.
  void process(const ecnn::Network& net, const TrainConfig& cfg,
               const NeuronConsts& nc, std::size_t classes,
               const data::Sample& sample) {
    rasterize(sample.stream, input);
    const std::size_t T = input.steps();

    // ---------------- forward, recording everything ----------------
    for (std::size_t li = 0; li < net.layers.size(); ++li) {
      const LayerSpec& l = net.layers[li];
      LayerRec& r = layers[li];
      // Input nonzeros, cached for the backward weight-gradient pass.
      r.nz.clear();
      r.nz_off.resize(T + 1);
      r.nz_off[0] = 0;
      for (std::size_t t = 0; t < T; ++t) {
        const float* row = r.in->row(t);
        for (std::size_t i = 0; i < r.n_in; ++i)
          if (row[i] != 0.0f) r.nz.push_back(static_cast<std::uint32_t>(i));
        r.nz_off[t + 1] = r.nz.size();
      }
      if (r.is_pool) {
        for (std::size_t t = 0; t < T; ++t) {
          forward_op(l, r.in->row(t), r.nz.data() + r.nz_off[t],
                     r.nz_off[t + 1] - r.nz_off[t], op, drive.data());
          or_pool_row(drive.data(), r.n_out, r.spikes.row(t));
        }
        continue;
      }
      std::fill_n(v.data(), r.n_out, 0.0);
      std::fill_n(syn.data(), r.n_out, 0.0);
      std::fill_n(refr.data(), r.n_out, 0.0);
      const double th = static_cast<double>(l.threshold);
      for (std::size_t t = 0; t < T; ++t) {
        forward_op(l, r.in->row(t), r.nz.data() + r.nz_off[t],
                   r.nz_off[t + 1] - r.nz_off[t], op, drive.data());
        step_neuron_row<true>(cfg.model, nc, th, drive.data(), r.n_out,
                              v.data(), syn.data(), refr.data(),
                              r.spikes.row(t), r.v_pre.row(t));
      }
    }

    // ---------------- loss on output spike counts ----------------
    const FrameSeq& out_spikes = layers.back().spikes;
    const double count_scale = cfg.logit_scale;
    std::fill(counts.begin(), counts.end(), 0.0);
    for (std::size_t t = 0; t < T; ++t)
      for (std::size_t k = 0; k < classes; ++k)
        counts[k] += out_spikes.row(t)[k];
    const double max_logit =
        *std::max_element(counts.begin(), counts.end()) * count_scale;
    double z = 0.0;
    for (std::size_t k = 0; k < classes; ++k) {
      p[k] = std::exp(counts[k] * count_scale - max_logit);
      z += p[k];
    }
    for (auto& pk : p) pk /= z;
    loss = -std::log(std::max(p[sample.label], 1e-12));
    const std::size_t pred = static_cast<std::size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    correct = pred == sample.label;

    // dL/dS_out[k][t] is constant over t.
    for (std::size_t k = 0; k < classes; ++k)
      g_count[k] = static_cast<float>(
          (p[k] - (k == sample.label ? 1.0 : 0.0)) * count_scale);
    for (std::size_t t = 0; t < T; ++t)
      std::copy(g_count.begin(), g_count.end(), g_top.row(t));

    // ---------------- backward through layers and time ----------------
    for (std::size_t li = net.layers.size(); li-- > 0;) {
      const LayerSpec& l = net.layers[li];
      LayerRec& r = layers[li];
      // dL/d(output spike) of this layer: consumer's input gradient.
      const FrameSeq& g_out =
          li + 1 < layers.size() ? layers[li + 1].g_in : g_top;
      // The first layer's input gradient has no consumer; skip the gather.
      const bool need_gin = li > 0;

      if (r.is_pool) {
        if (need_gin)
          for (std::size_t t = 0; t < T; ++t)
            backward_op_gin(l, g_out.row(t), op, r.g_in.row(t));
        continue;
      }

      std::fill(r.g_w.begin(), r.g_w.end(), 0.0f);
      std::fill_n(g_v_post.data(), r.n_out, 0.0);  // dL/dV[t] (post-reset)
      std::fill_n(g_syn.data(), r.n_out, 0.0);     // SRM: dL/di[t]
      const double th = static_cast<double>(l.threshold);

      for (std::size_t t = T; t-- > 0;) {
        const float* vpre = r.v_pre.row(t);
        const float* spk = r.spikes.row(t);
        const float* go = g_out.row(t);
        if (cfg.model == NeuronModel::kSneLif)
          backward_lif_row(nc, th, vpre, spk, go, r.n_out, g_v_post.data(),
                           g_drive.data());
        else
          backward_srm_row(nc, th, vpre, spk, go, r.n_out, g_v_post.data(),
                           g_syn.data(), g_drive.data());
        backward_op_gw(l, r.in->row(t), r.nz.data() + r.nz_off[t],
                       r.nz_off[t + 1] - r.nz_off[t], op, g_drive.data(),
                       r.g_w.data());
        if (need_gin) backward_op_gin(l, g_drive.data(), op, r.g_in.row(t));
      }
    }
  }
};

Trainer::Trainer(ecnn::Network net, TrainConfig cfg)
    : net_(std::move(net)), cfg_(cfg) {
  net_.validate();
  SNE_EXPECTS(cfg_.epochs >= 1 && cfg_.lr > 0.0 && cfg_.minibatch >= 1);
  if (cfg_.workers >= 2)
    pool_ = std::make_unique<ThreadPool>(cfg_.workers - 1);
  Rng rng(cfg_.seed);
  adam_m_.resize(net_.layers.size());
  adam_v_.resize(net_.layers.size());
  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    LayerSpec& l = net_.layers[li];
    l.threshold = static_cast<float>(cfg_.threshold);
    l.leak = static_cast<float>(cfg_.leak);
    if (l.type == LayerSpec::Type::kPool) continue;
    const double fan_in =
        l.type == LayerSpec::Type::kFc
            ? static_cast<double>(l.in_flat())
            : static_cast<double>(l.in_ch) * l.kernel * l.kernel;
    const double bound = cfg_.weight_init_gain / std::sqrt(fan_in);
    for (float& w : l.weights)
      w = static_cast<float>(rng.uniform(-bound, bound));
    adam_m_[li].assign(l.weights.size(), 0.0f);
    adam_v_[li].assign(l.weights.size(), 0.0f);
  }
}

Trainer::~Trainer() = default;
Trainer::Trainer(Trainer&&) noexcept = default;
Trainer& Trainer::operator=(Trainer&&) noexcept = default;

void Trainer::calibrate_thresholds(const data::Dataset& calib,
                                   double target_gain,
                                   std::size_t max_samples) {
  SNE_EXPECTS(!calib.samples.empty() && target_gain > 0.0);
  expect_dataset_fits(calib, net_);
  const std::size_t n =
      std::min<std::size_t>(max_samples, calib.samples.size());
  const NeuronConsts nc(cfg_);
  std::vector<FrameSeq> cur(n), nxt(n);
  for (std::size_t i = 0; i < n; ++i)
    rasterize(calib.samples[i].stream, cur[i]);
  std::vector<double> rates(n);

  const double kRateFloor = cfg_.rate_floor;  // no layer starts dead
  for (LayerSpec& l : net_.layers) {
    if (l.type == LayerSpec::Type::kPool) {
      parallel_samples(n, [&](std::size_t k) {
        forward_layer_dense(l, cfg_.model, nc, cur[k], nxt[k],
                            eval_scratch().ds);
      });
      std::swap(cur, nxt);
      continue;
    }
    parallel_samples(n, [&](std::size_t k) { rates[k] = spike_rate(cur[k]); });
    double in_rate = 0.0;
    for (std::size_t k = 0; k < n; ++k) in_rate += rates[k];
    in_rate /= static_cast<double>(n);
    const double target = std::max(in_rate * target_gain, kRateFloor);

    double lo = 1e-3, hi = 30.0;
    for (int iter = 0; iter < 22; ++iter) {
      const double mid = 0.5 * (lo + hi);
      // Per-sample sweeps fan out over the pool; the mean reduces in
      // sample order (bitwise equal to the serial sweep).
      parallel_samples(n, [&](std::size_t k) {
        forward_layer_dense(l, cfg_.model, nc, cur[k], nxt[k],
                            eval_scratch().ds, mid);
        rates[k] = spike_rate(nxt[k]);
      });
      double out_rate = 0.0;
      for (std::size_t k = 0; k < n; ++k) out_rate += rates[k];
      out_rate /= static_cast<double>(n);
      if (out_rate > target)
        lo = mid;  // too active -> raise threshold
      else
        hi = mid;
    }
    l.threshold = static_cast<float>(0.5 * (lo + hi));
    parallel_samples(n, [&](std::size_t k) {
      forward_layer_dense(l, cfg_.model, nc, cur[k], nxt[k],
                          eval_scratch().ds);
    });
    std::swap(cur, nxt);
  }
}

std::vector<double> Trainer::forward_counts(
    const event::EventStream& stream) const {
  expect_stream_fits(stream.geometry(), net_);
  const NeuronConsts nc(cfg_);
  std::vector<double> counts(net_.layers.back().out_ch, 0.0);
  forward_network_counts(net_, cfg_.model, nc, stream, counts.data(),
                         counts.size(), eval_scratch());
  return counts;
}

double Trainer::evaluate(const data::Dataset& ds) const {
  if (ds.samples.empty()) return 0.0;
  expect_dataset_fits(ds, net_);
  const NeuronConsts nc(cfg_);
  const std::size_t classes = net_.layers.back().out_ch;
  std::vector<std::uint8_t> hit(ds.samples.size(), 0);
  parallel_samples(ds.samples.size(), [&](std::size_t k) {
    const data::Sample& s = ds.samples[k];
    EvalScratch& sc = eval_scratch();
    sc.counts.assign(classes, 0.0);
    forward_network_counts(net_, cfg_.model, nc, s.stream, sc.counts.data(),
                           classes, sc);
    const std::size_t pred = static_cast<std::size_t>(
        std::max_element(sc.counts.begin(), sc.counts.end()) -
        sc.counts.begin());
    hit[k] = pred == s.label ? 1 : 0;
  });
  std::size_t correct = 0;
  for (std::size_t k = 0; k < hit.size(); ++k) correct += hit[k];
  return static_cast<double>(correct) /
         static_cast<double>(ds.samples.size());
}

std::vector<EpochStats> Trainer::fit(const data::Dataset& train) {
  SNE_EXPECTS(!train.samples.empty());
  expect_dataset_fits(train, net_);
  const std::uint16_t T = train.geometry.timesteps;
  const std::size_t classes = net_.layers.back().out_ch;
  const NeuronConsts nc(cfg_);
  const std::size_t B =
      std::min<std::size_t>(cfg_.minibatch, train.samples.size());

  while (slots_.size() < B) slots_.push_back(std::make_unique<FitSlot>());
  for (std::size_t k = 0; k < B; ++k) slots_[k]->prepare(net_, T, classes);
  grad_acc_.resize(net_.layers.size());
  for (std::size_t li = 0; li < net_.layers.size(); ++li)
    grad_acc_[li].resize(net_.layers[li].weights.size());

  std::vector<EpochStats> history;
  Rng shuffle_rng(cfg_.seed ^ 0xABCDEF);

  std::vector<std::size_t> order(train.samples.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::uint32_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(shuffle_rng.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    double loss_acc = 0.0;
    std::size_t correct = 0;

    for (std::size_t mb = 0; mb < order.size(); mb += B) {
      const std::size_t b_cur = std::min(B, order.size() - mb);

      // Forward + backward of the minibatch, one slot per sample. Weights
      // are frozen for the span of the minibatch, so slots are fully
      // independent; with B = 1 this is the original per-sample schedule.
      parallel_samples(b_cur, [&](std::size_t k) {
        slots_[k]->process(net_, cfg_, nc, classes,
                           train.samples[order[mb + k]]);
      });

      // Fixed-order gradient reduction (slot order == sample order) and one
      // Adam step per layer, in the same reverse-layer order as the
      // original serial trajectory. Worker count never enters here.
      const double inv_b = 1.0 / static_cast<double>(b_cur);
      const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
      for (std::size_t li = net_.layers.size(); li-- > 0;) {
        LayerSpec& lw = net_.layers[li];
        if (lw.type == LayerSpec::Type::kPool) continue;
        std::vector<double>& acc = grad_acc_[li];
        const std::vector<float>& g0 = slots_[0]->layers[li].g_w;
        for (std::size_t w = 0; w < acc.size(); ++w)
          acc[w] = static_cast<double>(g0[w]);
        for (std::size_t k = 1; k < b_cur; ++k) {
          const std::vector<float>& gk = slots_[k]->layers[li].g_w;
          for (std::size_t w = 0; w < acc.size(); ++w)
            acc[w] += static_cast<double>(gk[w]);
        }

        adam_t_++;
        const double bc1 = 1.0 - std::pow(b1, static_cast<double>(adam_t_));
        const double bc2 = 1.0 - std::pow(b2, static_cast<double>(adam_t_));
        for (std::size_t w = 0; w < lw.weights.size(); ++w) {
          const double g = acc[w] * inv_b;
          adam_m_[li][w] =
              static_cast<float>(b1 * adam_m_[li][w] + (1 - b1) * g);
          adam_v_[li][w] =
              static_cast<float>(b2 * adam_v_[li][w] + (1 - b2) * g * g);
          const double mhat = adam_m_[li][w] / bc1;
          const double vhat = adam_v_[li][w] / bc2;
          lw.weights[w] -=
              static_cast<float>(cfg_.lr * mhat / (std::sqrt(vhat) + eps));
        }
      }

      for (std::size_t k = 0; k < b_cur; ++k) {
        loss_acc += slots_[k]->loss;
        if (slots_[k]->correct) ++correct;
      }
    }

    EpochStats es;
    es.loss = loss_acc / static_cast<double>(order.size());
    es.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(order.size());
    history.push_back(es);
  }
  return history;
}

}  // namespace sne::train
