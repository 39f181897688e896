#include "serve/scheduler.h"

#include "common/fnv.h"

namespace sne::serve {

void TenantConfig::validate() const {
  if (weight == 0)
    throw ConfigError("tenant weight must be >= 1 (a zero-weight tenant "
                      "would never be served)");
  if (max_queue == 0)
    throw ConfigError("tenant max_queue must be >= 1");
  if (breaker_probe_interval == 0)
    throw ConfigError("breaker_probe_interval must be >= 1");
}

namespace detail {

namespace {

std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = kFnv64Basis;
  for (const char c : name) h = fnv64_step(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

TenantCore::TenantCore(std::string name, TenantConfig cfg)
    : name_(std::move(name)), cfg_(cfg), latency_(1024, name_hash(name_)) {}

TenantCore::Gate TenantCore::admission_gate() {
  if (cfg_.breaker_failure_threshold == 0) return Gate::kAdmit;
  switch (breaker_) {
    case BreakerState::kClosed:
      return Gate::kAdmit;
    case BreakerState::kHalfOpen:
      // One probe in flight resolves the half-open state; everything else
      // keeps rejecting until its verdict lands.
      ++breaker_rejected_;
      return Gate::kReject;
    case BreakerState::kOpen:
      if (++open_attempts_ % cfg_.breaker_probe_interval == 0) {
        breaker_ = BreakerState::kHalfOpen;
        ++breaker_probes_;
        return Gate::kProbe;
      }
      ++breaker_rejected_;
      return Gate::kReject;
  }
  return Gate::kAdmit;  // unreachable
}

void TenantCore::note_breaker_outcome(Outcome o, bool probe) {
  if (cfg_.breaker_failure_threshold == 0) return;
  if (o == Outcome::kNeutral) {
    // A burned deadline says nothing about backend health; an unresolved
    // probe hands the half-open state back to open for the next cadence.
    if (probe && breaker_ == BreakerState::kHalfOpen) {
      breaker_ = BreakerState::kOpen;
      open_attempts_ = 0;
    }
    return;
  }
  if (o == Outcome::kSuccess) {
    // Any completed success closes the breaker — the backend demonstrably
    // serves this tenant again, whether the success was the probe or a
    // straggler admitted before the trip.
    consecutive_failures_ = 0;
    if (breaker_ != BreakerState::kClosed) {
      breaker_ = BreakerState::kClosed;
      open_attempts_ = 0;
    }
    return;
  }
  // Outcome::kFailure.
  ++consecutive_failures_;
  if (breaker_ == BreakerState::kHalfOpen) {
    breaker_ = BreakerState::kOpen;  // failed probe: reopen, next cadence
    open_attempts_ = 0;
  } else if (breaker_ == BreakerState::kClosed &&
             consecutive_failures_ >= cfg_.breaker_failure_threshold) {
    breaker_ = BreakerState::kOpen;
    open_attempts_ = 0;
    ++breaker_trips_;
  }
}

void TenantCore::note_completed(std::uint64_t cycles, double latency_ms) {
  ++completed_;
  total_sim_cycles_ += cycles;
  latency_.add(latency_ms);
}

void TenantCore::note_failed(bool expired, double latency_ms) {
  ++failed_;
  if (expired) ++expired_;
  latency_.add(latency_ms);
}

void TenantCore::note_chunk(bool success, std::uint64_t cycles) {
  if (success) {
    ++chunks_completed_;
    total_sim_cycles_ += cycles;
  } else {
    ++chunks_failed_;
  }
}

void TenantCore::snapshot(TenantStats& out) const {
  out.submitted = submitted_;
  out.completed = completed_;
  out.failed = failed_;
  out.rejected = rejected_;
  out.shed = shed_;
  out.expired = expired_;
  out.retried = retried_;
  out.evicted = evicted_;
  out.breaker_rejected = breaker_rejected_;
  out.breaker_trips = breaker_trips_;
  out.breaker_probes = breaker_probes_;
  out.breaker = breaker_;
  out.total_sim_cycles = total_sim_cycles_;
  out.sessions_opened = sessions_opened_;
  out.sessions_closed = sessions_closed_;
  out.chunks_completed = chunks_completed_;
  out.chunks_failed = chunks_failed_;
  const LatencySummary lat = latency_.summary();
  out.latency_ms_mean = lat.mean;
  out.latency_ms_p50 = lat.p50;
  out.latency_ms_p90 = lat.p90;
  out.latency_ms_p99 = lat.p99;
}

}  // namespace detail

}  // namespace sne::serve
