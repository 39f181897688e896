// Replay profiling: where do an engine run's cycles actually go?
//
// The engine retires cycles through distinct machines — fast-forward
// jumps over dead spans, jumps spanning a batched TDM sweep, the generic
// per-cycle tick() fallback, the specialized drain-burst kernel, the bulk
// drain replay and its closed-form steady state, and the UPDATE span that
// streams broadcast input one beat at a time — and ROADMAP item 5's
// cache-conscious work needs measured evidence of that split before any
// layout change is justified. RunProfile attributes every retired cycle to exactly one mode
// (the mode cycles always sum to the run's total), histograms bulk drain
// span lengths, tracks warm-vs-cold pass counts at the runner level, and
// records per-slice busy occupancy.
//
// Contract (same as fault_injection.h): default-off; SneEngine::run pays
// one relaxed atomic load per call when disarmed and fills
// RunResult::profile when armed. Profiling only *observes* — it reads the
// same state the engine already scans and writes only into the profile —
// so results are bitwise identical with profiling on or off (every
// equivalence tier holds; tests/test_obs.cpp pins spot checks).
//
// Occupancy semantics: slice_busy[i] counts cycles slice i reported busy()
// under the same post-step convention the engine's idle accounting uses
// (bulk spans charge participants from their replay state and inert busy
// slices for the whole span). mode cycles are exact; occupancy is an
// attribution, summed per engine mode.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

namespace sne::obs {

struct RunProfile {
  // --- cycles retired per engine mode (sum == total cycles of the run) ----
  std::uint64_t dead_jump_cycles = 0;   ///< fast-forward jump, all slices idle
  std::uint64_t sweep_jump_cycles = 0;  ///< jump spanning a TDM sweep countdown
  std::uint64_t percycle_cycles = 0;    ///< generic tick() fallback
  std::uint64_t burst_cycles = 0;       ///< drain-burst specialized kernel
  std::uint64_t bulk_replay_cycles = 0; ///< bulk span, per-replayed-cycle part
  std::uint64_t steady_cycles = 0;      ///< bulk span, closed-form blocks
  std::uint64_t update_stream_cycles = 0;  ///< UPDATE span, one step per beat

  std::uint64_t mode_cycles_total() const {
    return dead_jump_cycles + sweep_jump_cycles + percycle_cycles +
           burst_cycles + bulk_replay_cycles + steady_cycles +
           update_stream_cycles;
  }

  // --- bulk drain spans ---------------------------------------------------
  /// Log2 span-length buckets: bucket k counts spans in [2^k, 2^(k+1)),
  /// the last bucket catching everything longer.
  static constexpr std::size_t kSpanBuckets = 16;
  std::uint64_t drain_spans = 0;
  std::array<std::uint64_t, kSpanBuckets> span_hist{};

  void note_span(std::uint64_t len) {
    ++drain_spans;
    std::size_t b = len == 0 ? 0 : static_cast<std::size_t>(
                                       63 - std::countl_zero(len));
    if (b >= kSpanBuckets) b = kSpanBuckets - 1;
    ++span_hist[b];
  }

  // --- runner-level context ----------------------------------------------
  std::uint64_t runs = 0;         ///< engine run() calls folded in
  std::uint64_t passes_total = 0; ///< slice passes (NetworkRunner level)
  std::uint64_t passes_warm = 0;  ///< of which warm-skipped reprogramming

  // --- per-slice busy occupancy (cycles; sized on first armed run) --------
  std::vector<std::uint64_t> slice_busy;

  bool empty() const { return runs == 0; }

  RunProfile& operator+=(const RunProfile& o) {
    dead_jump_cycles += o.dead_jump_cycles;
    sweep_jump_cycles += o.sweep_jump_cycles;
    percycle_cycles += o.percycle_cycles;
    burst_cycles += o.burst_cycles;
    bulk_replay_cycles += o.bulk_replay_cycles;
    steady_cycles += o.steady_cycles;
    update_stream_cycles += o.update_stream_cycles;
    drain_spans += o.drain_spans;
    for (std::size_t i = 0; i < kSpanBuckets; ++i)
      span_hist[i] += o.span_hist[i];
    runs += o.runs;
    passes_total += o.passes_total;
    passes_warm += o.passes_warm;
    if (slice_busy.size() < o.slice_busy.size())
      slice_busy.resize(o.slice_busy.size(), 0);
    for (std::size_t i = 0; i < o.slice_busy.size(); ++i)
      slice_busy[i] += o.slice_busy[i];
    return *this;
  }
};

/// The process-wide profiling gate (one instance across TUs).
inline std::atomic<bool>& profiling_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

/// The per-run fast-path check — one relaxed-ordering atomic load.
inline bool profiling_enabled() {
  return profiling_flag().load(std::memory_order_acquire);
}

inline void set_profiling(bool on) {
  profiling_flag().store(on, std::memory_order_release);
}

/// RAII arm/disarm for tests and benches.
class ScopedProfiling {
 public:
  ScopedProfiling() : prev_(profiling_enabled()) { set_profiling(true); }
  ~ScopedProfiling() { set_profiling(prev_); }
  ScopedProfiling(const ScopedProfiling&) = delete;
  ScopedProfiling& operator=(const ScopedProfiling&) = delete;

 private:
  bool prev_;
};

}  // namespace sne::obs
