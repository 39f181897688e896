// Hot kernels of the BPTT trainer (internal to src/train; the kernel
// differential test includes it too): the event-driven linear operators,
// the input-gradient gathers and the LIF/SRM neuron rows.
//
// Every kernel here produces each output element bit for bit as the
// original scalar loops did (tests/test_train_kernels.cpp keeps those loops
// as references); the bit-exactness note at the top of trainer.cpp gives
// the arguments.
//
// Vectorization uses GCC/Clang vector extensions on 16-byte vectors (the
// SSE2/NEON baseline), so no compiler flag changes: each lane performs the
// scalar operation, and a vector compare yields a lane mask directly, so
// the rows compute both arms and select without relying on the compiler to
// if-convert branches (which GCC refuses for floating-point compares under
// the default -ftrapping-math).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/parallel.h"
#include "ecnn/layer.h"
#include "train/trainer.h"

namespace sne::train::detail {

using ecnn::LayerSpec;

inline std::size_t flat_index(std::uint16_t ch, std::uint16_t y,
                              std::uint16_t x, std::uint16_t h,
                              std::uint16_t w) {
  return (static_cast<std::size_t>(ch) * h + y) * w + x;
}

// ---------------------------------------------------------------------------
// Lane types and helpers.

using f32x2 = float __attribute__((vector_size(8)));
using f32x4 = float __attribute__((vector_size(16)));
using u32x4 = std::uint32_t __attribute__((vector_size(16)));
using f64x2 = double __attribute__((vector_size(16)));
using i64x2 = std::int64_t __attribute__((vector_size(16)));

inline f64x2 splat(double x) { return f64x2{x, x}; }
inline f32x4 splat4(float x) { return f32x4{x, x, x, x}; }

/// |x| lane-wise: clears the sign bit, as std::abs(double) does.
inline f64x2 abs2(f64x2 x) {
  const i64x2 magnitude = {INT64_MAX, INT64_MAX};
  return (f64x2)((i64x2)x & magnitude);
}

/// All ones when g is nonzero, else 0: tested on g's bits ((bits << 1) == 0
/// only for +0 and -0), an integer test rather than an FP compare.
inline std::uint32_t nonzero_mask(float g) {
  std::uint32_t bits;
  std::memcpy(&bits, &g, sizeof bits);
  return (bits << 1) != 0 ? ~0u : 0u;
}

/// Loads/stores of the first M (1 or 2) lanes; the rest read as zero. The
/// float forms widen/narrow exactly as static_cast<double>/<float> does.
template <std::size_t M>
f64x2 load_d(const double* p) {
  f64x2 r{};
  std::memcpy(&r, p, M * sizeof(double));
  return r;
}
template <std::size_t M>
f64x2 load_f(const float* p) {
  f32x2 r{};
  std::memcpy(&r, p, M * sizeof(float));
  return __builtin_convertvector(r, f64x2);
}
template <std::size_t M>
void store_d(double* p, f64x2 v) {
  std::memcpy(p, &v, M * sizeof(double));
}
template <std::size_t M>
void store_f(float* p, f64x2 v) {
  const f32x2 r = __builtin_convertvector(v, f32x2);
  std::memcpy(p, &r, M * sizeof(float));
}

/// Calls step(i, lanes) over a row of n elements two lanes at a time, then
/// once with one lane for an odd tail; `lanes` is a std::integral_constant.
/// Forced inline, with steps that capture by value: the memcpy stores alias
/// any memory, so a closure left in memory would be reloaded every step.
template <typename Step>
[[gnu::always_inline]] inline void for_lanes(std::size_t n, Step step) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) step(i, std::integral_constant<std::size_t, 2>{});
  if (i < n) step(i, std::integral_constant<std::size_t, 1>{});
}

// ---------------------------------------------------------------------------
// Neuron rows.

/// Neuron-model constants hoisted out of every per-neuron inner loop and
/// shared between the recording (fit) and non-recording (inference/
/// calibration) forward paths.
struct NeuronConsts {
  double a_s;         ///< SRM synaptic filter exp(-1/tau_s)
  double a_m;         ///< SRM membrane filter exp(-1/tau_m)
  double refr_decay;  ///< SRM refractory decay exp(-0.5), constant
  double leak;        ///< LIF linear leak per step
  double surrogate_width;  ///< SuperSpike sharpness

  explicit NeuronConsts(const TrainConfig& cfg)
      : a_s(std::exp(-1.0 / cfg.tau_s)),
        a_m(std::exp(-1.0 / cfg.tau_m)),
        refr_decay(std::exp(-0.5)),
        leak(cfg.leak),
        surrogate_width(cfg.surrogate_width) {}
};

/// One timestep of the shared LIF/SRM neuron update over a row of n
/// neurons: the single stepping body behind both the recording forward in
/// fit() and the inference forward, so the two cannot drift. kRecord stores
/// the pre-reset membrane for the backward pass.
///   LIF: Vp = leak_toward_zero(V) + I (linear decay toward zero, the float
///        twin of neuron::leaked with kTowardZero);
///   SRM: i = a_s i + I; Vp = a_m V + i - r; r *= decay (+ 2 th on a spike).
/// Both: spike = Vp > th; V = spike ? 0 : Vp.
template <bool kRecord>
void step_neuron_row(NeuronModel model, const NeuronConsts& nc, double th,
                     const float* drive, std::size_t n, double* v, double* syn,
                     double* refr, float* out, float* v_pre) {
  const f64x2 zero{}, one = splat(1.0), thv = splat(th);
  if (model == NeuronModel::kSneLif) {
    const f64x2 leak = splat(nc.leak);
    for_lanes(n, [=](std::size_t i, auto lanes) [[gnu::always_inline]] {
      constexpr std::size_t M = decltype(lanes)::value;
      const f64x2 v0 = load_d<M>(v + i);
      const f64x2 leaked = v0 > leak    ? v0 - leak
                           : v0 < -leak ? v0 + leak
                                        : zero;
      const f64x2 vp = leaked + load_f<M>(drive + i);
      if constexpr (kRecord) store_f<M>(v_pre + i, vp);
      const auto spike = vp > thv;
      store_f<M>(out + i, spike ? one : zero);
      store_d<M>(v + i, spike ? zero : vp);
    });
  } else {
    const f64x2 a_s = splat(nc.a_s), a_m = splat(nc.a_m),
                decay = splat(nc.refr_decay), reset = splat(2.0 * th);
    for_lanes(n, [=](std::size_t i, auto lanes) [[gnu::always_inline]] {
      constexpr std::size_t M = decltype(lanes)::value;
      const f64x2 s = a_s * load_d<M>(syn + i) + load_f<M>(drive + i);
      store_d<M>(syn + i, s);
      const f64x2 r = load_d<M>(refr + i);
      const f64x2 vp = a_m * load_d<M>(v + i) + s - r;
      const f64x2 r_decayed = r * decay;
      if constexpr (kRecord) store_f<M>(v_pre + i, vp);
      const auto spike = vp > thv;
      store_f<M>(out + i, spike ? one : zero);
      store_d<M>(refr + i, spike ? r_decayed + reset : r_decayed);
      store_d<M>(v + i, spike ? zero : vp);
    });
  }
}

/// dL/dVp[t] of a row: the SuperSpike surrogate path
///   go * 1 / (1 + |Vp - th| / w)^2
/// plus the state path from t+1 (reset detached: nothing flows through a
/// spiking neuron's reset).
template <std::size_t M>
f64x2 grad_vp(f64x2 vp, double th, double width, const float* spk,
              const float* go, const double* g_v_post) {
  const f64x2 one = splat(1.0);
  const f64x2 z = one + abs2(vp - splat(th)) / splat(width);
  const f64x2 carry =
      load_f<M>(spk) > splat(0.5) ? f64x2{} : load_d<M>(g_v_post);
  return load_f<M>(go) * (one / (z * z)) + carry;
}

/// Backward of one LIF timestep over a row: writes g_drive (dL/dI[t]) and
/// carries dL/dV[t-1] in g_v_post (V[t-1] feeds Vp[t] through the leak,
/// whose derivative is taken as |Vp| > leak ? 1 : 0).
inline void backward_lif_row(const NeuronConsts& nc, double th,
                             const float* vpre, const float* spk,
                             const float* go, std::size_t n, double* g_v_post,
                             float* g_drive) {
  const f64x2 leak = splat(nc.leak), one = splat(1.0), zero{};
  for_lanes(n, [=](std::size_t i, auto lanes) [[gnu::always_inline]] {
    constexpr std::size_t M = decltype(lanes)::value;
    const f64x2 vp = load_f<M>(vpre + i);
    const f64x2 g_vp =
        grad_vp<M>(vp, th, nc.surrogate_width, spk + i, go + i, g_v_post + i);
    store_f<M>(g_drive + i, g_vp);
    store_d<M>(g_v_post + i, g_vp * (abs2(vp) > leak ? one : zero));
  });
}

/// Backward of one SRM timestep over a row: Vp[t] = a_m V[t-1] + i[t] - r,
/// i[t] = a_s i[t-1] + I[t]; g_syn carries dL/di[t].
inline void backward_srm_row(const NeuronConsts& nc, double th,
                             const float* vpre, const float* spk,
                             const float* go, std::size_t n, double* g_v_post,
                             double* g_syn, float* g_drive) {
  const f64x2 a_s = splat(nc.a_s), a_m = splat(nc.a_m);
  for_lanes(n, [=](std::size_t i, auto lanes) [[gnu::always_inline]] {
    constexpr std::size_t M = decltype(lanes)::value;
    const f64x2 vp = load_f<M>(vpre + i);
    const f64x2 g_vp =
        grad_vp<M>(vp, th, nc.surrogate_width, spk + i, go + i, g_v_post + i);
    const f64x2 gi = g_vp + load_d<M>(g_syn + i);
    store_f<M>(g_drive + i, gi);
    store_d<M>(g_syn + i, gi * a_s);
    store_d<M>(g_v_post + i, g_vp * a_m);
  });
}

/// OR-pooling activation: a spike anywhere in the window (drive > 0) fires.
inline void or_pool_row(const float* drive, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = drive[i] > 0.0f ? 1.0f : 0.0f;
}

// ---------------------------------------------------------------------------
// Linear operators.

/// Ascending nonzero positions of one timestep row (the event-driven
/// kernels below iterate these instead of scanning dense windows).
inline void gather_nonzeros(const float* row, std::size_t n,
                            std::vector<std::uint32_t>& out) {
  out.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (row[i] != 0.0f) out.push_back(static_cast<std::uint32_t>(i));
}

/// Reusable scratch for the linear operators: the double accumulator image,
/// a transient nonzero list, the decomposed (channel, row, column)
/// coordinates of the current nonzero set, and the conv input-gradient
/// gather's padded gradient image.
struct OpScratch {
  std::vector<double> acc;
  std::vector<std::uint32_t> nz;
  std::vector<std::uint16_t> dec_ic, dec_iy, dec_ix;
  std::vector<float> g_pad;
  std::vector<std::uint32_t> g_keep;

  void ensure(std::size_t max_out, std::size_t max_in) {
    if (acc.size() < max_out) acc.resize(max_out);
    if (dec_ic.size() < max_in) {
      dec_ic.resize(max_in);
      dec_iy.resize(max_in);
      dec_ix.resize(max_in);
    }
  }

  /// Splits flat input indices into (ic, iy, ix) once per row, so the
  /// per-output-channel scatter loops do no division.
  void decompose(const std::uint32_t* idx, std::size_t nnz, std::uint16_t in_w,
                 std::uint16_t in_h) {
    const std::uint32_t plane = static_cast<std::uint32_t>(in_w) * in_h;
    for (std::size_t j = 0; j < nnz; ++j) {
      const std::uint32_t i = idx[j];
      dec_ic[j] = static_cast<std::uint16_t>(i / plane);
      const std::uint32_t rem = i % plane;
      dec_iy[j] = static_cast<std::uint16_t>(rem / in_w);
      dec_ix[j] = static_cast<std::uint16_t>(rem % in_w);
    }
  }
};

/// Applies a layer's linear operator to one timestep of input spikes,
/// driven by the nonzero input list (idx/nnz, ascending).
///
/// Bit-exactness: for any fixed output element, its contributions arrive in
/// ascending input order, which is exactly the order the original dense
/// window gather accumulated them in (the window loops walk (ic, iy, ix)
/// lexicographically), and the skipped zero terms are bitwise no-ops (see
/// trainer.cpp). Conv/pool scatter into a zeroed double image and cast
/// once at the end — same double accumulator, same final float rounding.
inline void forward_op(const LayerSpec& l, const float* s_in,
                       const std::uint32_t* idx, std::size_t nnz,
                       OpScratch& sc, float* drive) {
  const std::size_t n_out = l.out_flat();
  switch (l.type) {
    case LayerSpec::Type::kFc: {
      const std::size_t n_in = l.in_flat();
      parallel_for(0, l.out_ch, [&](std::size_t o) {
        double acc = 0.0;
        const float* w = l.weights.data() + o * n_in;
        for (std::size_t j = 0; j < nnz; ++j) {
          const std::uint32_t i = idx[j];
          acc += w[i] * s_in[i];
        }
        drive[o] = static_cast<float>(acc);
      });
      return;
    }
    case LayerSpec::Type::kPool: {
      const std::uint16_t ow = l.out_w(), oh = l.out_h();
      sc.ensure(n_out, nnz);
      double* acc = sc.acc.data();
      std::fill_n(acc, n_out, 0.0);
      sc.decompose(idx, nnz, l.in_w, l.in_h);
      for (std::size_t j = 0; j < nnz; ++j) {
        const std::uint16_t c = sc.dec_ic[j], iy = sc.dec_iy[j],
                            ix = sc.dec_ix[j];
        const float s = s_in[idx[j]];
        for (std::uint16_t ky = 0; ky < l.kernel; ++ky) {
          const int ny = static_cast<int>(iy) - ky;
          if (ny < 0 || ny % l.stride != 0) continue;
          const int oy = ny / l.stride;
          if (oy >= oh) continue;
          for (std::uint16_t kx = 0; kx < l.kernel; ++kx) {
            const int nx = static_cast<int>(ix) - kx;
            if (nx < 0 || nx % l.stride != 0) continue;
            const int ox = nx / l.stride;
            if (ox >= ow) continue;
            acc[flat_index(c, static_cast<std::uint16_t>(oy),
                           static_cast<std::uint16_t>(ox), oh, ow)] += s;
          }
        }
      }
      for (std::size_t o = 0; o < n_out; ++o)
        drive[o] = static_cast<float>(acc[o]);
      return;
    }
    case LayerSpec::Type::kConv: {
      const std::uint16_t ow = l.out_w(), oh = l.out_h();
      sc.ensure(n_out, nnz);
      double* acc = sc.acc.data();
      std::fill_n(acc, n_out, 0.0);
      sc.decompose(idx, nnz, l.in_w, l.in_h);
      const std::size_t plane = static_cast<std::size_t>(ow) * oh;
      const std::size_t ksq = static_cast<std::size_t>(l.kernel) * l.kernel;
      parallel_for(0, l.out_ch, [&](std::size_t oc) {
        double* acc_oc = acc + oc * plane;
        for (std::size_t j = 0; j < nnz; ++j) {
          const std::uint16_t ic = sc.dec_ic[j], iy = sc.dec_iy[j],
                              ix = sc.dec_ix[j];
          const float s = s_in[idx[j]];
          const float* w = l.weights.data() + (oc * l.in_ch + ic) * ksq;
          for (std::uint16_t ky = 0; ky < l.kernel; ++ky) {
            const int ny = static_cast<int>(iy) + l.pad - ky;
            if (ny < 0 || ny % l.stride != 0) continue;
            const int oy = ny / l.stride;
            if (oy >= oh) continue;
            for (std::uint16_t kx = 0; kx < l.kernel; ++kx) {
              const int nx = static_cast<int>(ix) + l.pad - kx;
              if (nx < 0 || nx % l.stride != 0) continue;
              const int ox = nx / l.stride;
              if (ox >= ow) continue;
              acc_oc[static_cast<std::size_t>(oy) * ow + ox] +=
                  w[ky * l.kernel + kx] * s;
            }
          }
        }
      });
      for (std::size_t o = 0; o < n_out; ++o)
        drive[o] = static_cast<float>(acc[o]);
      return;
    }
  }
}

/// Weight-gradient half of the backward operator, input-driven: for every
/// nonzero input spike, walk the (few) outputs its weight taps touch.
/// Accumulation is disjoint per output row/channel (parallel-safe) and, for
/// any fixed weight, contributions arrive in ascending (oy, ox) order —
/// the order of the original output-stationary loop.
inline void backward_op_gw(const LayerSpec& l, const float* s_in,
                           const std::uint32_t* idx, std::size_t nnz,
                           OpScratch& sc, const float* g_drive, float* g_w) {
  switch (l.type) {
    case LayerSpec::Type::kFc: {
      const std::size_t n_in = l.in_flat();
      parallel_for(0, l.out_ch, [&](std::size_t o) {
        const float g = g_drive[o];
        if (g == 0.0f) return;
        float* gw = g_w + o * n_in;
        for (std::size_t j = 0; j < nnz; ++j) {
          const std::uint32_t i = idx[j];
          gw[i] += g * s_in[i];
        }
      });
      return;
    }
    case LayerSpec::Type::kConv: {
      const std::uint16_t ow = l.out_w(), oh = l.out_h();
      sc.ensure(0, nnz);
      sc.decompose(idx, nnz, l.in_w, l.in_h);
      const std::size_t ksq = static_cast<std::size_t>(l.kernel) * l.kernel;
      parallel_for(0, l.out_ch, [&](std::size_t oc) {
        const float* g_oc =
            g_drive + oc * static_cast<std::size_t>(ow) * oh;
        float* gw_oc = g_w + oc * l.in_ch * ksq;
        for (std::size_t j = 0; j < nnz; ++j) {
          const std::uint16_t ic = sc.dec_ic[j], iy = sc.dec_iy[j],
                              ix = sc.dec_ix[j];
          const float s = s_in[idx[j]];
          float* gw = gw_oc + ic * ksq;
          for (std::uint16_t ky = 0; ky < l.kernel; ++ky) {
            const int ny = static_cast<int>(iy) + l.pad - ky;
            if (ny < 0 || ny % l.stride != 0) continue;
            const int oy = ny / l.stride;
            if (oy >= oh) continue;
            for (std::uint16_t kx = 0; kx < l.kernel; ++kx) {
              const int nx = static_cast<int>(ix) + l.pad - kx;
              if (nx < 0 || nx % l.stride != 0) continue;
              const int ox = nx / l.stride;
              if (ox >= ow) continue;
              const float g = g_oc[static_cast<std::size_t>(oy) * ow + ox];
              if (g == 0.0f) continue;
              gw[ky * l.kernel + kx] += g * s;
            }
          }
        }
      });
      return;
    }
    case LayerSpec::Type::kPool:
      return;  // no weights
  }
}

/// Input columns per register block of the conv input-gradient gather
/// (four f32x4 accumulators).
inline constexpr std::size_t kGinBlock = 16;

/// Input-gradient half of the backward operator (dense: the surrogate makes
/// g_drive dense, so there is no sparsity to ride), in gather form: every
/// g_in element is owned by exactly one task (fc: by input index; conv: by
/// (input channel, input row); pool: by input channel), which starts it at
/// +0 itself, so the caller zeroes nothing. Each element receives its
/// contributions in the order of the original scatter loops (the references
/// in tests/test_train_kernels.cpp), so the result is bitwise identical to
/// them and to itself for any worker count.
inline void backward_op_gin(const LayerSpec& l, const float* g_drive,
                            OpScratch& sc, float* g_in) {
  switch (l.type) {
    case LayerSpec::Type::kFc: {
      const std::size_t n_in = l.in_flat();
      parallel_for(0, n_in, [&](std::size_t i) {
        float gi = 0.0f;
        const float* w = l.weights.data();
        for (std::size_t o = 0; o < l.out_ch; ++o) {
          const float g = g_drive[o];
          if (g == 0.0f) continue;
          gi += g * w[o * n_in + i];
        }
        g_in[i] = gi;
      });
      return;
    }
    case LayerSpec::Type::kPool: {
      // Each task owns an input channel and builds its rows one at a time:
      // the row starts at +0 and takes every window covering it, in the
      // reference's (oy, ox) order. No zero test: an accumulator that starts
      // at +0 never becomes -0, so adding a +/-0 gradient is a bitwise no-op
      // exactly like the reference's skip (and there is no product to mask).
      // Windows never cross the input edge (no padding), so no bounds test.
      const std::size_t k = l.kernel, stride = l.stride, in_w = l.in_w,
                        in_h = l.in_h, ow = l.out_w(), oh = l.out_h();
      parallel_for(0, l.in_ch, [&](std::size_t c) {
        const float* g_c = g_drive + c * oh * ow;
        for (std::size_t iy = 0; iy < in_h; ++iy) {
          float* gin_row = g_in + (c * in_h + iy) * in_w;
          std::fill_n(gin_row, in_w, 0.0f);
          // Output rows whose window covers iy: oy * stride <= iy < oy *
          // stride + k.
          const std::size_t oy_end = std::min(iy / stride + 1, oh);
          for (std::size_t oy = iy < k ? 0 : (iy - k) / stride + 1;
               oy < oy_end; ++oy) {
            const float* g_row = g_c + oy * ow;
            // kx descending == ox ascending for every column; within one
            // kx the columns are distinct, so the inner loop carries no
            // dependency.
            for (std::size_t kx = k; kx-- > 0;)
              for (std::size_t ox = 0; ox < ow; ++ox)
                gin_row[ox * stride + kx] += g_row[ox];
          }
        }
      });
      return;
    }
    case LayerSpec::Type::kConv: {
      const std::uint16_t ow = l.out_w(), oh = l.out_h();
      const std::size_t k = l.kernel, stride = l.stride, pad = l.pad;
      const std::size_t ksq = k * k;
      const std::size_t blocks = (l.in_w + kGinBlock - 1) / kGinBlock;
      // Zero-padded, zero-inserted image of g_drive: row (oc, oy) holds
      // g(oc, oy, ox) at column lead + ox * stride and +0 elsewhere, so
      // input column ix reads tap kx at column lead + pad + ix - kx with no
      // bounds or stride test (lead keeps that >= 0; the width covers the
      // last register block).
      const std::size_t lead = k - 1 > pad ? k - 1 - pad : 0;
      const std::size_t pw =
          lead + std::max(pad + blocks * kGinBlock,
                          (static_cast<std::size_t>(ow) - 1) * stride + 1);
      const std::size_t rows = static_cast<std::size_t>(l.out_ch) * oh;
      sc.g_pad.assign(rows * pw, 0.0f);
      sc.g_keep.assign(rows * pw, 0u);
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = g_drive[r * ow + ox];
          sc.g_pad[r * pw + lead + ox * stride] = g;
          sc.g_keep[r * pw + lead + ox * stride] = nonzero_mask(g);
        }
      const float* g_pad = sc.g_pad.data();
      const std::uint32_t* g_keep = sc.g_keep.data();
      // One task per (input channel, input row): fine enough to engage the
      // pool on realistic conv shapes while keeping per-element ownership.
      parallel_for(0, static_cast<std::size_t>(l.in_ch) * l.in_h,
                   [&](std::size_t task) {
        const std::uint16_t ic = static_cast<std::uint16_t>(task / l.in_h);
        const std::uint16_t iy = static_cast<std::uint16_t>(task % l.in_h);
        float* gin_row = g_in + flat_index(ic, iy, 0, l.in_h, l.in_w);
        // Output rows whose kernel row ky = iy + pad - oy * stride is in
        // [0, k).
        const std::size_t top = iy + pad;
        const std::size_t oy_lo = top < k ? 0 : (top - k) / stride + 1;
        const std::size_t oy_end = std::min<std::size_t>(top / stride + 1, oh);
        for (std::size_t b = 0; b < blocks; ++b) {
          const std::size_t x0 = b * kGinBlock;
          f32x4 acc[kGinBlock / 4] = {};
          for (std::size_t oc = 0; oc < l.out_ch; ++oc) {
            const float* w_base = l.weights.data() + (oc * l.in_ch + ic) * ksq;
            for (std::size_t oy = oy_lo; oy < oy_end; ++oy) {
              const std::size_t ky = iy + pad - oy * stride;
              const std::size_t row = (oc * oh + oy) * pw + lead + pad + x0;
              const float* w_row = w_base + ky * k;
              // kx descending == ox ascending for every column: the
              // reference's (oc, oy, ox) contribution order.
              for (std::size_t kx = k; kx-- > 0;) {
                const f32x4 w = splat4(w_row[kx]);
                const float* g_src = g_pad + row - kx;
                const std::uint32_t* keep_src = g_keep + row - kx;
                for (std::size_t j = 0; j < kGinBlock / 4; ++j) {
                  f32x4 g;
                  u32x4 keep;
                  std::memcpy(&g, g_src + 4 * j, sizeof g);
                  std::memcpy(&keep, keep_src + 4 * j, sizeof keep);
                  // Masked product, not a skip: adding +0 is a no-op, and
                  // a non-finite weight behind a zero gradient adds +0
                  // rather than NaN, as the reference's skip does.
                  acc[j] += (f32x4)((u32x4)(g * w) & keep);
                }
              }
            }
          }
          std::memcpy(gin_row + x0, acc,
                      std::min(kGinBlock, l.in_w - x0) * sizeof(float));
        }
      });
      return;
    }
  }
}

}  // namespace sne::train::detail
