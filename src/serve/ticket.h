// Ticket: the future half of an async inference submission.
//
// submit() returns immediately with a Ticket; a dispatch worker (or a
// session's chunk worker) fulfills it when the sample finishes. wait()
// blocks and either returns the NetworkRunStats or rethrows the failure that
// the request hit on its worker — exceptions cross the thread boundary
// instead of killing the server.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

#include "common/contracts.h"
#include "ecnn/runner.h"

namespace sne::serve {

/// The fate of a request whose deadline passed before it could run: shed at
/// admission or expired in the queue, failed fast without simulating
/// anything. Distinct from ConfigError (caller mistakes) and FaultError
/// (injected chaos) so clients can branch on "retry with a longer budget".
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

namespace detail {

/// Wall time since `t0` in milliseconds (request-latency stamps).
inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct TicketState {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  ecnn::NetworkRunStats result;
  std::exception_ptr error;
  std::uint64_t id = 0;
  double latency_ms = 0.0;  ///< submit -> completion wall time

  void fulfill(ecnn::NetworkRunStats r, double lat_ms) {
    {
      std::lock_guard<std::mutex> lk(m);
      result = std::move(r);
      latency_ms = lat_ms;
      done = true;
    }
    cv.notify_all();
  }
  void fail(std::exception_ptr e, double lat_ms) {
    {
      std::lock_guard<std::mutex> lk(m);
      error = e;
      latency_ms = lat_ms;
      done = true;
    }
    cv.notify_all();
  }
};

}  // namespace detail

class Ticket {
 public:
  /// A default-constructed ticket is empty (valid() == false) until assigned
  /// from a submit(); accessors on an empty ticket fail the contract check
  /// loudly instead of dereferencing null.
  Ticket() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the request completes; rethrows its failure if it had one.
  const ecnn::NetworkRunStats& wait() const {
    SNE_EXPECTS(state_ != nullptr);
    detail::TicketState& s = *state_;
    std::unique_lock<std::mutex> lk(s.m);
    s.cv.wait(lk, [&s] { return s.done; });
    if (s.error) std::rethrow_exception(s.error);
    return s.result;
  }

  enum class WaitStatus { kReady, kTimeout };

  /// Timed wait: kReady once the request completed (wait() will not block
  /// and returns/rethrows immediately), kTimeout if it is still in flight
  /// when `timeout` elapses. The building block for client-side deadlines —
  /// unlike wait(), this never blocks forever behind an overloaded queue.
  WaitStatus wait_for(std::chrono::nanoseconds timeout) const {
    SNE_EXPECTS(state_ != nullptr);
    detail::TicketState& s = *state_;
    std::unique_lock<std::mutex> lk(s.m);
    return s.cv.wait_for(lk, timeout, [&s] { return s.done; })
               ? WaitStatus::kReady
               : WaitStatus::kTimeout;
  }

  bool done() const {
    SNE_EXPECTS(state_ != nullptr);
    std::lock_guard<std::mutex> lk(state_->m);
    return state_->done;
  }

  std::uint64_t id() const {
    SNE_EXPECTS(state_ != nullptr);
    return state_->id;
  }

  /// Submit -> completion wall time; valid once done.
  double latency_ms() const {
    SNE_EXPECTS(state_ != nullptr);
    std::lock_guard<std::mutex> lk(state_->m);
    return state_->latency_ms;
  }

 private:
  friend class InferenceServer;
  friend class StreamingSession;
  explicit Ticket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::TicketState> state_;
};

}  // namespace sne::serve
