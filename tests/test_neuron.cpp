// Neuron-model tests: LIF semantics, TLU lazy/eager equivalence, SRM
// dynamics, quantization properties.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "neuron/lif.h"
#include "neuron/quantize.h"
#include "neuron/srm.h"

namespace sne::neuron {
namespace {

TEST(Lif, MembraneUpdateFormula) {
  // V[t+1] = V[t] - L + sum(W*S) with fire at V > V_th (paper III-B).
  LifParams p;
  p.leak = 2;
  p.v_th = 10;
  LifNeuron n;
  n.integrate(0, 8, p);
  EXPECT_EQ(n.membrane(), 8);
  EXPECT_FALSE(n.fire(0, p));  // 8 <= 10
  n.integrate(1, 8, p);        // leak 2 applied first: 8-2+8 = 14
  EXPECT_EQ(n.membrane(), 14);
  EXPECT_TRUE(n.fire(1, p));   // 14 > 10
  EXPECT_EQ(n.membrane(), 0);  // reset to zero
}

TEST(Lif, ThresholdIsStrict) {
  LifParams p;
  p.leak = 0;
  p.v_th = 5;
  LifNeuron n;
  n.integrate(0, 5, p);
  EXPECT_FALSE(n.fire(0, p));  // V == V_th does not fire
  n.integrate(1, 1, p);
  EXPECT_TRUE(n.fire(1, p));
}

TEST(Lif, SubtractThresholdReset) {
  LifParams p;
  p.leak = 0;
  p.v_th = 5;
  p.reset_mode = ResetMode::kSubtractThreshold;
  LifNeuron n;
  n.integrate(0, 12, p);
  EXPECT_TRUE(n.fire(0, p));
  EXPECT_EQ(n.membrane(), 7);
}

TEST(Lif, SaturatingState) {
  LifParams p;
  p.leak = 0;
  p.v_th = 127;
  LifNeuron n;
  for (int i = 0; i < 100; ++i) n.integrate(0, 7, p);
  EXPECT_EQ(n.membrane(), 127);  // saturates, never wraps
  for (int i = 0; i < 100; ++i) n.integrate(0, -8, p);
  EXPECT_EQ(n.membrane(), -128);
}

TEST(Lif, LeakTowardZeroClampsAtRest) {
  EXPECT_EQ(leaked(10, 3, 2, LeakMode::kTowardZero), 4);
  EXPECT_EQ(leaked(10, 3, 4, LeakMode::kTowardZero), 0);
  EXPECT_EQ(leaked(10, 3, 100, LeakMode::kTowardZero), 0);
  EXPECT_EQ(leaked(-10, 3, 2, LeakMode::kTowardZero), -4);
  EXPECT_EQ(leaked(-10, 3, 100, LeakMode::kTowardZero), 0);
  EXPECT_EQ(leaked(0, 3, 5, LeakMode::kTowardZero), 0);
}

TEST(Lif, SubtractiveLeakSaturates) {
  EXPECT_EQ(leaked(10, 3, 2, LeakMode::kSubtractive), 4);
  EXPECT_EQ(leaked(10, 3, 100, LeakMode::kSubtractive), kStateRange.lo);
}

/// The TLU theorem: one-shot lazy leak over dt steps equals dt eager
/// single-step applications, for both leak modes, any state value.
TEST(Lif, LazyLeakEqualsEagerLeak) {
  for (const LeakMode mode : {LeakMode::kTowardZero, LeakMode::kSubtractive}) {
    for (std::int32_t v0 = kStateRange.lo; v0 <= kStateRange.hi; ++v0) {
      for (std::int32_t leak : {0, 1, 2, 5, 9}) {
        for (std::uint32_t dt : {1u, 2u, 3u, 7u, 50u}) {
          std::int32_t eager = v0;
          for (std::uint32_t k = 0; k < dt; ++k) eager = leaked(eager, leak, 1, mode);
          const std::int32_t lazy = leaked(v0, leak, dt, mode);
          ASSERT_EQ(lazy, eager) << "v0=" << v0 << " leak=" << leak
                                 << " dt=" << dt << " mode=" << static_cast<int>(mode);
        }
      }
    }
  }
}

/// Property: a LIF neuron with non-negative threshold cannot spike on a
/// timestep without input — the soundness condition for skipping silent
/// steps (FirePolicy::kActiveStepsOnly).
TEST(Lif, SelectFormLeakEqualsBranchyLeakExhaustively) {
  // The engine's UPDATE batch integrates through leaked_select; the golden
  // model and the FIRE scans keep leaked(). Every 8-bit membrane, every
  // leak the parameters allow and every step gap up to 255, both modes.
  for (const LeakMode mode : {LeakMode::kTowardZero, LeakMode::kSubtractive})
    for (std::int32_t v = kStateRange.lo; v <= kStateRange.hi; ++v)
      for (std::int32_t leak = 0; leak <= kStateRange.hi; ++leak)
        for (std::uint32_t dt = 0; dt <= 255; ++dt)
          if (leaked_select(v, leak, dt, mode) != leaked(v, leak, dt, mode)) {
            FAIL() << "v " << v << " leak " << leak << " dt " << dt
                   << " subtractive " << (mode == LeakMode::kSubtractive);
          }
}

TEST(Lif, IntegrateSelectMatchesIntegrate) {
  Rng rng(5);
  for (const LeakMode mode : {LeakMode::kTowardZero, LeakMode::kSubtractive}) {
    LifParams p;
    p.leak = 3;
    p.leak_mode = mode;
    LifNeuron a, b;
    std::uint32_t t = 0;
    for (int i = 0; i < 2000; ++i) {
      t += static_cast<std::uint32_t>(rng.uniform_int(0, 4));
      const auto w = static_cast<std::int32_t>(rng.uniform_int(-8, 7)) * 9;
      a.integrate(t, w, p);
      b.integrate_select(t, w, p);
      ASSERT_EQ(a.membrane(), b.membrane());
      ASSERT_EQ(a.last_update(), b.last_update());
    }
    EXPECT_THROW(b.integrate_select(t - 1, 1, p), ContractViolation);
  }
}

TEST(Lif, NoSpikeWithoutInputWhenThresholdNonNegative) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    LifParams p;
    p.leak = static_cast<std::int32_t>(rng.uniform_int(0, 10));
    p.v_th = static_cast<std::int32_t>(rng.uniform_int(0, 60));
    LifNeuron n;
    // Drive below threshold, then check silent evolution never fires.
    n.integrate(0, static_cast<std::int32_t>(rng.uniform_int(-50, p.v_th)), p);
    ASSERT_FALSE(n.fire(0, p));
    for (std::uint32_t t = 1; t < 30; ++t) ASSERT_FALSE(n.fire(t, p));
  }
}

TEST(Lif, ResetClearsStateAndTlu) {
  LifParams p;
  p.leak = 1;
  p.v_th = 100;
  LifNeuron n;
  n.integrate(5, 50, p);
  n.reset();
  EXPECT_EQ(n.membrane(), 0);
  EXPECT_EQ(n.last_update(), 0u);
}

TEST(LifParamsTest, Validation) {
  LifParams p;
  p.leak = -1;
  EXPECT_THROW(p.validate(), ConfigError);
  p.leak = 0;
  p.v_th = 400;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(Srm, FiresWithSustainedDrive) {
  SrmParams p;
  SrmNeuron n;
  bool fired = false;
  for (int t = 0; t < 20 && !fired; ++t) fired = n.step(0.4, p);
  EXPECT_TRUE(fired);
  EXPECT_EQ(n.membrane(), 0.0);  // reset on fire
}

TEST(Srm, RefractorySuppressesImmediateRefire) {
  SrmParams p;
  SrmNeuron n;
  int fires = 0;
  int gap_min = 100, last = -100;
  for (int t = 0; t < 60; ++t) {
    if (n.step(0.8, p)) {
      if (last >= 0) gap_min = std::min(gap_min, t - last);
      last = t;
      ++fires;
    }
  }
  EXPECT_GE(fires, 2);
  EXPECT_GE(gap_min, 2);  // refractory enforces a gap under constant drive
}

TEST(Srm, DecaysWithoutInput) {
  SrmParams p;
  SrmNeuron n;
  n.step(0.9, p);
  const double u1 = n.membrane();
  for (int t = 0; t < 50; ++t) n.step(0.0, p);
  EXPECT_LT(std::abs(n.membrane()), std::abs(u1) * 0.1 + 1e-9);
}

TEST(SrmParamsTest, Validation) {
  SrmParams p;
  p.tau_m = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(Quantize, WeightGridRoundTrip) {
  for (std::int32_t code = -8; code <= 7; ++code) {
    const double w = dequantize_weight(code, 0.25);
    EXPECT_EQ(quantize_weight(w, 0.25), code);
  }
}

TEST(Quantize, LayerScaleMapsMaxWeightToGridEdge) {
  std::vector<float> w = {0.1f, -0.7f, 0.35f, 0.02f};
  const QuantizedLayer q = quantize_layer(w, 0.5, 0.05);
  EXPECT_EQ(q.weights.size(), w.size());
  // max |w| = 0.7 maps near the grid edge.
  EXPECT_EQ(q.weights[1], -7);
  EXPECT_GE(q.v_th, 1);
  EXPECT_GE(q.leak, 0);
}

TEST(Quantize, ScaleInvarianceOfDynamics) {
  // Scaling weights+threshold+leak by the same factor yields identical
  // codes (the invariance the quantizer relies on).
  std::vector<float> w = {0.2f, -0.4f, 0.7f};
  const QuantizedLayer a = quantize_layer(w, 0.9, 0.1);
  std::vector<float> w2;
  for (float x : w) w2.push_back(x * 3.0f);
  const QuantizedLayer b = quantize_layer(w2, 0.9 * 3.0, 0.1 * 3.0);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.v_th, b.v_th);
  EXPECT_EQ(a.leak, b.leak);
}

TEST(Quantize, ThresholdNeverZero) {
  std::vector<float> w = {1.0f};
  const QuantizedLayer q = quantize_layer(w, 1e-6, 0.0);
  EXPECT_GE(q.v_th, 1);
}

TEST(Quantize, RmsErrorBounded) {
  Rng rng(3);
  std::vector<float> w(256);
  double max_abs = 0.0;
  for (auto& x : w) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
    max_abs = std::max(max_abs, std::abs(static_cast<double>(x)));
  }
  const QuantizedLayer q = quantize_layer(w, 1.0, 0.0);
  // RMS error of uniform quantization is at most ~step/2.
  EXPECT_LE(weight_rms_error(w, q), (max_abs / 7.0) * 0.6);
}

}  // namespace
}  // namespace sne::neuron
