// SNE neuron model (paper section III-B).
//
// SNE implements a leaky integrate-and-fire (LIF) neuron whose exponential
// membrane decay is linearly approximated as an iterative linear decay:
//
//     V[t+1] = V[t] - leak + sum_j W_ij * S_j[t]
//     S[t]   = Heaviside(V[t] - V_th)
//
// with 4-bit synaptic weights and an 8-bit saturating membrane state.
//
// Two details the paper leaves implicit are made explicit and configurable:
//
//  * LeakMode — kTowardZero (default) clamps the linear decay at the resting
//    potential (a linear *approximation of exponential decay* cannot
//    overshoot past rest); kSubtractive applies the formula literally.
//    Both modes commute with the TLU lazy-evaluation optimisation (see
//    apply_leak), which the property tests verify.
//  * ResetMode — membrane behaviour after an output spike: reset to zero
//    (default) or subtract the threshold.
//
// The time-of-last-update (TLU) optimisation (section III-D.4): the hardware
// stores one TLU per cluster and "skips the state update in the absence of
// input activity between two successive timesteps" — leak for the skipped
// interval is applied in one shot when the neuron is next touched. For a
// linear, saturating, sign-preserving decay this is exactly equivalent to
// eager per-step application, so the optimisation is functionally invisible.
#pragma once

#include <cstdint>

#include "common/contracts.h"
#include "common/fixed_point.h"

namespace sne::neuron {

/// How the linear leak treats the resting potential.
enum class LeakMode : std::uint8_t {
  kTowardZero,   ///< decay magnitude toward 0, clamped at 0 (default)
  kSubtractive,  ///< literal V -= leak every step (can drift negative)
};

/// Membrane behaviour after an output spike.
enum class ResetMode : std::uint8_t {
  kToZero,             ///< V := 0 (default)
  kSubtractThreshold,  ///< V := V - V_th
};

/// Programmable per-slice neuron parameters (paper: "re-programmable leakage
/// quantity" and "programmable firing threshold").
struct LifParams {
  std::int32_t leak = 1;       ///< linear decay per timestep, >= 0
  std::int32_t v_th = 32;      ///< firing threshold, within the state range
  LeakMode leak_mode = LeakMode::kTowardZero;
  ResetMode reset_mode = ResetMode::kToZero;

  void validate() const {
    if (leak < 0 || leak > kStateRange.hi)
      throw ConfigError("LIF leak out of range");
    if (!fits(v_th, kStateRange))
      throw ConfigError("LIF threshold out of range");
  }
};

/// Applies `dt` timesteps of linear leak to membrane value v (pure function;
/// shared by the golden model and the cycle-accurate cluster datapath).
constexpr std::int32_t leaked(std::int32_t v, std::int32_t leak,
                              std::uint32_t dt, LeakMode mode) {
  if (leak == 0 || dt == 0) return v;
  const std::int64_t total = static_cast<std::int64_t>(leak) * dt;
  if (mode == LeakMode::kTowardZero) {
    if (v > 0) return static_cast<std::int32_t>(v > total ? v - total : 0);
    if (v < 0) return static_cast<std::int32_t>(-v > total ? v + total : 0);
    return 0;
  }
  // Subtractive mode: saturating subtraction (monotone, so one-shot
  // application over dt steps equals dt single-step applications).
  const std::int64_t next = static_cast<std::int64_t>(v) - total;
  if (next < kStateRange.lo) return kStateRange.lo;
  return static_cast<std::int32_t>(next);
}

/// leaked() in select form, for the engine's UPDATE batch loop: the
/// toward-zero decay as sign(v) * max(|v| - leak * dt, 0), the subtractive
/// one as a clamp at the state floor. No data-dependent branch; equal to
/// leaked() for every membrane in the state range (test_neuron checks the
/// whole 8-bit range against every leak and step count it can see).
constexpr std::int32_t leaked_select(std::int32_t v, std::int32_t leak,
                                     std::uint32_t dt, LeakMode mode) {
  const std::int64_t total = static_cast<std::int64_t>(leak) * dt;
  const std::int64_t mag = v < 0 ? -static_cast<std::int64_t>(v) : v;
  const std::int64_t rest = mag > total ? mag - total : 0;
  const std::int64_t toward = v < 0 ? -rest : rest;
  const std::int64_t sub = v - total < kStateRange.lo ? kStateRange.lo : v - total;
  return static_cast<std::int32_t>(mode == LeakMode::kTowardZero ? toward
                                                                  : sub);
}

/// One LIF neuron: 8-bit saturating membrane + last-update timestep.
/// This is the *functional golden model*; the hardware path in sne::core
/// reproduces exactly these semantics cycle by cycle.
class LifNeuron {
 public:
  LifNeuron() = default;

  std::int32_t membrane() const { return v_; }
  std::uint32_t last_update() const { return tlu_; }

  /// RST_OP semantics: membrane and TLU cleared.
  void reset() {
    v_ = 0;
    tlu_ = 0;
  }

  /// Brings the neuron's leak up to date with timestep `t` (TLU lazy leak),
  /// then integrates the synaptic contribution `w` with saturation.
  void integrate(std::uint32_t t, std::int32_t w, const LifParams& p) {
    catch_up(t, p);
    v_ = sat_add(v_, w, kStateRange);
  }

  /// integrate() with the leak in select form (leaked_select): the same
  /// state transition without data-dependent branches, for the engine's
  /// batched UPDATE sweeps.
  void integrate_select(std::uint32_t t, std::int32_t w, const LifParams& p) {
    SNE_EXPECTS(t >= tlu_);
    v_ = sat_add(leaked_select(v_, p.leak, t - tlu_, p.leak_mode), w,
                 kStateRange);
    tlu_ = t;
  }

  /// FIRE_OP semantics at timestep `t`: brings leak up to date, then fires
  /// iff V > V_th, applying the configured reset. Returns true on spike.
  bool fire(std::uint32_t t, const LifParams& p) {
    catch_up(t, p);
    if (v_ <= p.v_th) return false;
    v_ = p.reset_mode == ResetMode::kToZero
             ? 0
             : saturate(v_ - p.v_th, kStateRange);
    return true;
  }

  /// fire() with the caught-up membrane `v` supplied by the caller (the
  /// slice's FIRE scan evaluates leaked() once for the stall check and
  /// reuses it here; `v` must equal leaked(membrane(), p.leak, t - tlu,
  /// p.leak_mode)). State transition and result are identical to fire(t, p).
  bool commit_fire(std::int32_t v, std::uint32_t t, const LifParams& p) {
    SNE_EXPECTS(t >= tlu_);
    tlu_ = t;
    if (v <= p.v_th) {
      v_ = v;
      return false;
    }
    v_ = p.reset_mode == ResetMode::kToZero ? 0 : saturate(v - p.v_th, kStateRange);
    return true;
  }

  /// Eagerly advances the leak to timestep t without input (used by tests to
  /// prove lazy == eager; the hardware never calls this per-step).
  void catch_up(std::uint32_t t, const LifParams& p) {
    SNE_EXPECTS(t >= tlu_);
    v_ = leaked(v_, p.leak, t - tlu_, p.leak_mode);
    tlu_ = t;
  }

 private:
  std::int32_t v_ = 0;
  std::uint32_t tlu_ = 0;
};

}  // namespace sne::neuron
