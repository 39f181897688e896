// Differential test of the trainer's hot kernels (src/train/kernels.h): the
// gather-form input gradients and the branch-free neuron rows must match,
// bit for bit, the scalar scatter and branchy kernels they replaced. Those
// are kept below verbatim as references. Shapes come from a seeded
// generator (kernel 1/3/5, stride 1/2, pad 0/1/2, widths 1-19, 1-9
// channels); rows mix +0, -0, subnormals and huge values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ecnn/layer.h"
#include "train/kernels.h"

namespace sne::train::detail {
namespace {

// ---------------------------------------------------------------------------
// References: the scalar kernels the trainer used before the gather form and
// the branch-free rows.
namespace ref {

double surrogate(double v, double threshold, double width) {
  const double z = 1.0 + std::abs(v - threshold) / width;
  return 1.0 / (z * z);
}

double leak_toward_zero(double v, double leak) {
  if (v > leak) return v - leak;
  if (v < -leak) return v + leak;
  return 0.0;
}

double leak_gradient(double v, double leak) {
  return std::abs(v) > leak ? 1.0 : 0.0;
}

template <bool kRecord>
void step_neuron_row(NeuronModel model, const NeuronConsts& nc, double th,
                     const float* drive, std::size_t n, double* v, double* syn,
                     double* refr, float* out, float* v_pre) {
  if (model == NeuronModel::kSneLif) {
    for (std::size_t i = 0; i < n; ++i) {
      const double vp = leak_toward_zero(v[i], nc.leak) + drive[i];
      if constexpr (kRecord) v_pre[i] = static_cast<float>(vp);
      const bool spike = vp > th;
      out[i] = spike ? 1.0f : 0.0f;
      v[i] = spike ? 0.0 : vp;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      syn[i] = nc.a_s * syn[i] + drive[i];
      const double vp = nc.a_m * v[i] + syn[i] - refr[i];
      refr[i] *= nc.refr_decay;
      if constexpr (kRecord) v_pre[i] = static_cast<float>(vp);
      const bool spike = vp > th;
      out[i] = spike ? 1.0f : 0.0f;
      if (spike) refr[i] += 2.0 * th;
      v[i] = spike ? 0.0 : vp;
    }
  }
}

void backward_lif_row(const NeuronConsts& nc, double th, double width,
                      const float* vpre, const float* spk, const float* go,
                      std::size_t n, double* g_v_post, float* g_drive) {
  for (std::size_t i = 0; i < n; ++i) {
    const double vp = vpre[i];
    const double g_vp =
        static_cast<double>(go[i]) * surrogate(vp, th, width) +
        (spk[i] > 0.5f ? 0.0 : g_v_post[i]);
    g_drive[i] = static_cast<float>(g_vp);
    g_v_post[i] = g_vp * leak_gradient(vp, nc.leak);
  }
}

void backward_srm_row(const NeuronConsts& nc, double th, double width,
                      const float* vpre, const float* spk, const float* go,
                      std::size_t n, double* g_v_post, double* g_syn,
                      float* g_drive) {
  for (std::size_t i = 0; i < n; ++i) {
    const double vp = vpre[i];
    const double g_vp =
        static_cast<double>(go[i]) * surrogate(vp, th, width) +
        (spk[i] > 0.5f ? 0.0 : g_v_post[i]);
    const double gi = g_vp + g_syn[i];
    g_drive[i] = static_cast<float>(gi);
    g_syn[i] = gi * nc.a_s;
    g_v_post[i] = g_vp * nc.a_m;
  }
}

/// Scatter form; g_in must be zeroed by the caller.
void backward_op_gin(const LayerSpec& l, const float* g_drive, float* g_in) {
  switch (l.type) {
    case LayerSpec::Type::kFc: {
      const std::size_t n_in = l.in_flat();
      for (std::size_t i = 0; i < n_in; ++i) {
        float gi = g_in[i];
        const float* w = l.weights.data();
        for (std::size_t o = 0; o < l.out_ch; ++o) {
          const float g = g_drive[o];
          if (g == 0.0f) continue;
          gi += g * w[o * n_in + i];
        }
        g_in[i] = gi;
      }
      return;
    }
    case LayerSpec::Type::kPool: {
      const std::uint16_t ow = l.out_w(), oh = l.out_h();
      for (std::uint16_t c = 0; c < l.in_ch; ++c) {
        for (std::uint16_t oy = 0; oy < oh; ++oy)
          for (std::uint16_t ox = 0; ox < ow; ++ox) {
            const float g = g_drive[flat_index(c, oy, ox, oh, ow)];
            if (g == 0.0f) continue;
            for (std::uint16_t ky = 0; ky < l.kernel; ++ky)
              for (std::uint16_t kx = 0; kx < l.kernel; ++kx) {
                const std::uint16_t iy = oy * l.stride + ky;
                const std::uint16_t ix = ox * l.stride + kx;
                if (iy >= l.in_h || ix >= l.in_w) continue;
                g_in[flat_index(c, iy, ix, l.in_h, l.in_w)] += g;
              }
          }
      }
      return;
    }
    case LayerSpec::Type::kConv: {
      const std::uint16_t ow = l.out_w(), oh = l.out_h();
      const std::size_t ksq = static_cast<std::size_t>(l.kernel) * l.kernel;
      for (std::size_t task = 0;
           task < static_cast<std::size_t>(l.in_ch) * l.in_h; ++task) {
        const std::uint16_t ic = static_cast<std::uint16_t>(task / l.in_h);
        const std::uint16_t iy = static_cast<std::uint16_t>(task % l.in_h);
        float* gin_row = g_in + flat_index(ic, iy, 0, l.in_h, l.in_w);
        for (std::uint16_t oc = 0; oc < l.out_ch; ++oc) {
          const float* g_oc =
              g_drive + static_cast<std::size_t>(oc) * ow * oh;
          const float* w_base =
              l.weights.data() + (static_cast<std::size_t>(oc) * l.in_ch + ic) * ksq;
          for (std::uint16_t oy = 0; oy < oh; ++oy) {
            const int ky = static_cast<int>(iy) + l.pad -
                           static_cast<int>(oy) * l.stride;
            if (ky < 0 || ky >= l.kernel) continue;
            const float* g_row = g_oc + static_cast<std::size_t>(oy) * ow;
            const float* w_row = w_base + static_cast<std::size_t>(ky) * l.kernel;
            for (std::uint16_t ox = 0; ox < ow; ++ox) {
              const float g = g_row[ox];
              if (g == 0.0f) continue;
              for (std::uint16_t kx = 0; kx < l.kernel; ++kx) {
                const int ix = static_cast<int>(ox) * l.stride - l.pad + kx;
                if (ix < 0 || ix >= l.in_w) continue;
                gin_row[ix] += g * w_row[kx];
              }
            }
          }
        }
      }
      return;
    }
  }
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Generators and comparison.

/// A value from the palette the kernels must survive: signed zeros,
/// subnormals, huge magnitudes (sums overflow to inf) and ordinary values.
float draw(Rng& rng) {
  const float sign = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  switch (rng.uniform_int(0, 7)) {
    case 0:
      return 0.0f;
    case 1:
      return -0.0f;
    case 2:
      return sign * std::numeric_limits<float>::denorm_min() *
             static_cast<float>(rng.uniform_int(1, 1 << 20));
    case 3:
      return sign * static_cast<float>(rng.uniform(1e30, 3e38));
    default:
      return static_cast<float>(rng.uniform(-2.0, 2.0));
  }
}

std::vector<float> draw_row(Rng& rng, std::size_t n) {
  std::vector<float> row(n);
  for (float& x : row) x = draw(rng);
  return row;
}

template <typename T>
void expect_bits_equal(const std::vector<T>& want, const std::vector<T>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(0, std::memcmp(&want[i], &got[i], sizeof(T)))
        << what << ": element " << i << " want " << want[i] << " got "
        << got[i];
}

/// Reference scatter into a zeroed buffer vs the gather into a buffer
/// poisoned with NaN (the gather must write every element exactly once).
void expect_gin_matches(const LayerSpec& l, const std::vector<float>& g_drive,
                        const std::string& what) {
  std::vector<float> want(l.in_flat(), 0.0f);
  ref::backward_op_gin(l, g_drive.data(), want.data());
  std::vector<float> got(l.in_flat(), std::numeric_limits<float>::quiet_NaN());
  OpScratch sc;
  backward_op_gin(l, g_drive.data(), sc, got.data());
  expect_bits_equal(want, got, what);
}

std::string describe(const LayerSpec& l) {
  return "in " + std::to_string(l.in_ch) + "x" + std::to_string(l.in_h) + "x" +
         std::to_string(l.in_w) + " out_ch " + std::to_string(l.out_ch) +
         " k" + std::to_string(l.kernel) + " s" + std::to_string(l.stride) +
         " p" + std::to_string(l.pad);
}

// ---------------------------------------------------------------------------
// Input-gradient gathers.

TEST(TrainKernelsTest, ConvInputGradientGatherMatchesScatter) {
  Rng rng(20261017);
  const std::uint8_t kernels[] = {1, 3, 5};
  int cases = 0;
  while (cases < 300) {
    const std::uint8_t k = kernels[rng.uniform_int(0, 2)];
    const std::uint8_t stride = static_cast<std::uint8_t>(rng.uniform_int(1, 2));
    const std::uint8_t pad = static_cast<std::uint8_t>(rng.uniform_int(0, 2));
    const auto w = static_cast<std::uint16_t>(rng.uniform_int(1, 19));
    const auto h = static_cast<std::uint16_t>(rng.uniform_int(1, 19));
    if (w + 2 * pad < k || h + 2 * pad < k) continue;
    LayerSpec l = LayerSpec::conv(
        "c", static_cast<std::uint16_t>(rng.uniform_int(1, 9)), w, h,
        static_cast<std::uint16_t>(rng.uniform_int(1, 9)), k, stride, pad);
    l.validate();
    for (float& x : l.weights) x = static_cast<float>(rng.uniform(-1.5, 1.5));
    expect_gin_matches(l, draw_row(rng, l.out_flat()), describe(l));
    if (HasFatalFailure()) return;
    ++cases;
  }
}

TEST(TrainKernelsTest, ConvInputGradientCoversEveryBlockWidth) {
  // Every width 1..35 on the trainer's k3/s1/p1 shape: partial, exact and
  // multiple register blocks.
  Rng rng(7);
  for (std::uint16_t w = 1; w <= 35; ++w) {
    LayerSpec l = LayerSpec::conv("c", 2, w, 3, 3, 3, 1, 1);
    for (float& x : l.weights) x = draw(rng);
    expect_gin_matches(l, draw_row(rng, l.out_flat()), describe(l));
    if (HasFatalFailure()) return;
  }
}

TEST(TrainKernelsTest, InfiniteWeightUnderZeroGradientStaysFinite) {
  // The reference skips a zero gradient, so an infinite (or NaN) weight
  // behind it contributes nothing; an unmasked g * w would add NaN.
  Rng rng(11);
  for (std::uint8_t stride : {1, 2}) {
    LayerSpec l = LayerSpec::conv("c", 2, 9, 7, 2, 3, stride, 1);
    for (float& x : l.weights) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    // Output channel 0 sees only signed zeros; its weights are non-finite.
    for (std::size_t i = 0; i < 2 * 9; ++i)
      l.weights[i] = i % 2 ? std::numeric_limits<float>::infinity()
                           : std::numeric_limits<float>::quiet_NaN();
    std::vector<float> g(l.out_flat());
    for (float& x : g) x = static_cast<float>(rng.uniform(-2.0, 2.0));
    const std::size_t plane = static_cast<std::size_t>(l.out_w()) * l.out_h();
    for (std::size_t i = 0; i < plane; ++i) g[i] = i % 2 ? -0.0f : 0.0f;
    expect_gin_matches(l, g, describe(l));
    std::vector<float> got(l.in_flat());
    OpScratch sc;
    backward_op_gin(l, g.data(), sc, got.data());
    for (float x : got) ASSERT_TRUE(std::isfinite(x));
  }
}

TEST(TrainKernelsTest, PoolInputGradientGatherMatchesScatter) {
  // Includes overlapping windows (stride < kernel) and gaps (stride >
  // kernel), which the factory's stride == kernel pools never build.
  Rng rng(99);
  int cases = 0;
  while (cases < 200) {
    const auto k = static_cast<std::uint8_t>(rng.uniform_int(1, 4));
    const auto w = static_cast<std::uint16_t>(rng.uniform_int(1, 19));
    const auto h = static_cast<std::uint16_t>(rng.uniform_int(1, 19));
    if (w < k || h < k) continue;
    LayerSpec l = LayerSpec::pool(
        "p", static_cast<std::uint16_t>(rng.uniform_int(1, 9)), w, h, k);
    l.stride = static_cast<std::uint8_t>(rng.uniform_int(1, 4));
    l.validate();
    expect_gin_matches(l, draw_row(rng, l.out_flat()), describe(l));
    if (HasFatalFailure()) return;
    ++cases;
  }
}

TEST(TrainKernelsTest, FcInputGradientMatchesScatter) {
  Rng rng(5);
  for (int rep = 0; rep < 50; ++rep) {
    LayerSpec l = LayerSpec::fc(
        "f", static_cast<std::uint16_t>(rng.uniform_int(1, 9)),
        static_cast<std::uint16_t>(rng.uniform_int(1, 19)),
        static_cast<std::uint16_t>(rng.uniform_int(1, 5)),
        static_cast<std::uint16_t>(rng.uniform_int(1, 40)));
    for (float& x : l.weights) x = draw(rng);
    expect_gin_matches(l, draw_row(rng, l.out_ch), describe(l));
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Neuron rows.

struct RowCase {
  NeuronModel model;
  TrainConfig cfg;
  double th;
  std::size_t n;
};

/// Threshold and leak are float values, so float membranes can sit exactly
/// on them.
RowCase draw_row_case(Rng& rng, NeuronModel model) {
  RowCase rc{model, TrainConfig{},
             static_cast<float>(rng.uniform(0.05, 2.0)),
             static_cast<std::size_t>(rng.uniform_int(1, 19))};
  rc.cfg.leak = static_cast<float>(rng.uniform(0.0, 0.3));
  rc.cfg.tau_s = rng.uniform(1.0, 4.0);
  rc.cfg.tau_m = rng.uniform(2.0, 12.0);
  rc.cfg.surrogate_width = rng.uniform(0.2, 1.0);
  return rc;
}

template <bool kRecord>
void check_forward_rows(NeuronModel model, std::uint64_t seed) {
  Rng rng(seed);
  for (int rep = 0; rep < 200; ++rep) {
    const RowCase rc = draw_row_case(rng, model);
    const NeuronConsts nc(rc.cfg);
    const std::size_t n = rc.n;
    std::vector<double> v(n), syn(n), refr(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = draw(rng);
      syn[i] = draw(rng);
      refr[i] = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 3.0);
    }
    std::vector<double> v2 = v, syn2 = syn, refr2 = refr;
    // Several timesteps, so spikes and resets feed back into the state.
    for (int t = 0; t < 6; ++t) {
      const std::vector<float> drive = draw_row(rng, n);
      std::vector<float> out(n), out2(n), vp(n), vp2(n);
      ref::step_neuron_row<kRecord>(model, nc, rc.th, drive.data(), n,
                                    v.data(), syn.data(), refr.data(),
                                    out.data(), vp.data());
      step_neuron_row<kRecord>(model, nc, rc.th, drive.data(), n, v2.data(),
                               syn2.data(), refr2.data(), out2.data(),
                               vp2.data());
      const std::string what = "n=" + std::to_string(n) + " t=" +
                               std::to_string(t) + " rep " +
                               std::to_string(rep);
      expect_bits_equal(out, out2, "out " + what);
      if (kRecord) expect_bits_equal(vp, vp2, "v_pre " + what);
      expect_bits_equal(v, v2, "v " + what);
      if (model == NeuronModel::kSrm) {
        expect_bits_equal(syn, syn2, "syn " + what);
        expect_bits_equal(refr, refr2, "refr " + what);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TrainKernelsTest, LifForwardRowMatchesBranchyReference) {
  check_forward_rows<true>(NeuronModel::kSneLif, 1);
  check_forward_rows<false>(NeuronModel::kSneLif, 2);
}

TEST(TrainKernelsTest, SrmForwardRowMatchesBranchyReference) {
  check_forward_rows<true>(NeuronModel::kSrm, 3);
  check_forward_rows<false>(NeuronModel::kSrm, 4);
}

void check_backward_rows(NeuronModel model, std::uint64_t seed) {
  Rng rng(seed);
  for (int rep = 0; rep < 200; ++rep) {
    const RowCase rc = draw_row_case(rng, model);
    const NeuronConsts nc(rc.cfg);
    const std::size_t n = rc.n;
    std::vector<double> g_v_post(n), g_syn(n);
    for (std::size_t i = 0; i < n; ++i) {
      g_v_post[i] = draw(rng);
      g_syn[i] = draw(rng);
    }
    std::vector<double> g_v_post2 = g_v_post, g_syn2 = g_syn;
    for (int t = 0; t < 6; ++t) {
      std::vector<float> vpre = draw_row(rng, n), spk(n);
      // Membranes right at +/- leak and at the threshold hit the compares'
      // edges.
      if (n > 2) {
        vpre[0] = static_cast<float>(rc.cfg.leak);
        vpre[1] = static_cast<float>(-rc.cfg.leak);
        vpre[2] = static_cast<float>(rc.th);
      }
      for (float& s : spk) s = rng.bernoulli(0.3) ? 1.0f : 0.0f;
      const std::vector<float> go = draw_row(rng, n);
      std::vector<float> g_drive(n), g_drive2(n);
      if (model == NeuronModel::kSneLif) {
        ref::backward_lif_row(nc, rc.th, rc.cfg.surrogate_width, vpre.data(),
                              spk.data(), go.data(), n, g_v_post.data(),
                              g_drive.data());
        backward_lif_row(nc, rc.th, vpre.data(), spk.data(), go.data(), n,
                         g_v_post2.data(), g_drive2.data());
      } else {
        ref::backward_srm_row(nc, rc.th, rc.cfg.surrogate_width, vpre.data(),
                              spk.data(), go.data(), n, g_v_post.data(),
                              g_syn.data(), g_drive.data());
        backward_srm_row(nc, rc.th, vpre.data(), spk.data(), go.data(), n,
                         g_v_post2.data(), g_syn2.data(), g_drive2.data());
      }
      const std::string what = "n=" + std::to_string(n) + " t=" +
                               std::to_string(t) + " rep " +
                               std::to_string(rep);
      expect_bits_equal(g_drive, g_drive2, "g_drive " + what);
      expect_bits_equal(g_v_post, g_v_post2, "g_v_post " + what);
      if (model == NeuronModel::kSrm)
        expect_bits_equal(g_syn, g_syn2, "g_syn " + what);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TrainKernelsTest, LifBackwardRowMatchesBranchyReference) {
  check_backward_rows(NeuronModel::kSneLif, 5);
}

TEST(TrainKernelsTest, SrmBackwardRowMatchesBranchyReference) {
  check_backward_rows(NeuronModel::kSrm, 6);
}

}  // namespace
}  // namespace sne::train::detail
