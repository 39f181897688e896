// Event stream container: an ordered sequence of SNE events plus the
// transformations the toolchain needs (time-major sorting, windowing,
// activity statistics, channel/spatial remapping).
//
// The execution model (paper Listing 1) requires the outermost loop to span
// the time dimension, so streams handed to the engine must be sorted by
// timestep with per-timestep RST/UPDATE/FIRE ordering. EventStream maintains
// that normal form.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "event/event.h"

namespace sne::event {

/// Controls how FIRE_OP control events are scheduled when compiling a spike
/// stream into an engine-executable stream.
enum class FirePolicy : std::uint8_t {
  kActiveStepsOnly,  ///< FIRE only on timesteps with input activity (TLU path)
  kEveryStep,        ///< FIRE on every timestep (TLU-disabled ablation)
};

/// Geometry of the tensor an event stream addresses.
struct StreamGeometry {
  std::uint16_t channels = 1;
  std::uint8_t width = 1;
  std::uint8_t height = 1;
  std::uint16_t timesteps = 1;

  std::size_t sites() const {
    return static_cast<std::size_t>(channels) * width * height;
  }
  /// Total spatio-temporal volume (denominator of the activity metric).
  std::size_t volume() const { return sites() * timesteps; }
};

/// Ordered event sequence with geometry metadata.
class EventStream {
 public:
  EventStream() = default;
  explicit EventStream(StreamGeometry geom) : geom_(geom) {}

  const StreamGeometry& geometry() const { return geom_; }
  void set_geometry(StreamGeometry geom) { geom_ = geom; }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  void clear() { events_.clear(); }
  void reserve(std::size_t n) { events_.reserve(n); }

  /// Appends an event; geometry bounds are enforced for UPDATE events.
  void push(const Event& e) {
    if (e.op == Op::kUpdate) {
      SNE_EXPECTS(e.ch < geom_.channels);
      SNE_EXPECTS(e.x < geom_.width);
      SNE_EXPECTS(e.y < geom_.height);
    }
    SNE_EXPECTS(e.t < geom_.timesteps);
    events_.push_back(e);
  }

  void push_update(std::uint16_t t, std::uint16_t ch, std::uint8_t x,
                   std::uint8_t y) {
    push(Event::update(t, ch, x, y));
  }

  /// Number of UPDATE events (the paper's notion of "input activity" counts
  /// spikes, i.e. UPDATE events, not control events).
  std::size_t update_count() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [](const Event& e) { return e.op == Op::kUpdate; }));
  }

  /// Fraction of the spatio-temporal volume carrying a spike, in [0, 1].
  double activity() const {
    const std::size_t vol = geom_.volume();
    SNE_EXPECTS(vol > 0);
    return static_cast<double>(update_count()) / static_cast<double>(vol);
  }

  /// Spikes per timestep divided by sites, averaged only over timesteps that
  /// exist (same value as activity(); kept for clarity at call sites).
  double mean_activity_per_step() const { return activity(); }

  /// Stable-sorts events into time-major normal form. Within a timestep the
  /// order RST < UPDATE < FIRE < WLOAD is enforced so that a reset always
  /// precedes integration and firing concludes the step (paper section III-C).
  /// Streams that are already normalized (the common case: generators and
  /// the engine emit time-ordered events) are detected in one linear pass,
  /// skipping the sort and its temporary allocation.
  void normalize() {
    if (is_normalized()) return;
    std::stable_sort(events_.begin(), events_.end(),
                     [](const Event& a, const Event& b) {
                       if (a.t != b.t) return a.t < b.t;
                       return op_rank(a.op) < op_rank(b.op);
                     });
  }

  /// True if the stream is in time-major normal form.
  bool is_normalized() const {
    return std::is_sorted(events_.begin(), events_.end(),
                          [](const Event& a, const Event& b) {
                            if (a.t != b.t) return a.t < b.t;
                            return op_rank(a.op) < op_rank(b.op);
                          });
  }

  /// Returns the UPDATE events of timestep t.
  std::vector<Event> at_time(std::uint16_t t) const {
    std::vector<Event> out;
    for (const Event& e : events_)
      if (e.t == t && e.op == Op::kUpdate) out.push_back(e);
    return out;
  }

  /// Inserts one RST at t=0 and FIRE control events, producing the full
  /// control-flow-annotated stream the engine consumes (Listing 1 semantics:
  /// state resets at inference start; each timestep concludes with a
  /// threshold scan).
  ///
  /// With FirePolicy::kActiveStepsOnly, FIREs are emitted only for timesteps
  /// that carry at least one UPDATE event. This is sound whenever the firing
  /// threshold is non-negative: a LIF membrane without input can only decay,
  /// so a silent timestep can never create a spike. Together with the TLU
  /// one-shot leak catch-up this "compresses long intervals of sparse input
  /// activity into dense computational phases" (paper section II) and is the
  /// stream-level half of SNE's energy proportionality.
  ///
  /// `initial_reset = false` omits the leading RST: the continuation form
  /// for streaming sessions, where the engine's neuron state carries over
  /// from the previous chunk and must not be wiped at the chunk boundary
  /// (serve::StreamingSession resets only in its first chunk).
  EventStream with_control_events(
      FirePolicy policy = FirePolicy::kActiveStepsOnly,
      bool initial_reset = true) const {
    // One linear bucket pass, no sort: [RST], then per timestep its UPDATEs
    // in input order followed by its FIRE — exactly the stable (t, op)
    // normal form, for unsorted input too.
    const std::size_t steps = geom_.timesteps;
    std::vector<std::uint32_t> count(steps, 0);
    for (const Event& e : events_)
      if (e.op == Op::kUpdate) {
        SNE_EXPECTS(e.t < steps);
        ++count[e.t];
      }
    const auto fires = [&](std::size_t t) {
      return policy == FirePolicy::kEveryStep || count[t] > 0;
    };
    std::vector<std::uint32_t> slot(steps);  // next free slot of step t
    std::size_t n = initial_reset ? 1 : 0;
    for (std::size_t t = 0; t < steps; ++t) {
      slot[t] = static_cast<std::uint32_t>(n);
      n += count[t] + (fires(t) ? 1 : 0);
    }
    EventStream out(geom_);
    out.events_.resize(n);
    if (initial_reset) out.events_[0] = Event::reset(0);
    for (const Event& e : events_)
      if (e.op == Op::kUpdate) out.events_[slot[e.t]++] = e;
    for (std::size_t t = 0; t < steps; ++t)  // slot[t] follows its UPDATEs
      if (fires(t))
        out.events_[slot[t]] = Event::fire(static_cast<std::uint16_t>(t));
    return out;
  }

  /// Packs the stream into its linear 32-bit memory image (DMA layout).
  std::vector<Beat> to_beats() const {
    std::vector<Beat> beats;
    beats.reserve(events_.size());
    for (const Event& e : events_) beats.push_back(pack(e));
    return beats;
  }

  /// Parses a linear memory image back into a stream.
  static EventStream from_beats(const std::vector<Beat>& beats,
                                StreamGeometry geom) {
    EventStream s(geom);
    s.reserve(beats.size());
    for (Beat b : beats) s.events_.push_back(unpack(b));
    return s;
  }

  /// Merges two streams (e.g. outputs of parallel slices) and re-normalizes.
  static EventStream merge(const EventStream& a, const EventStream& b) {
    SNE_EXPECTS(a.geom_.timesteps == b.geom_.timesteps);
    EventStream out(a.geom_);
    out.geom_.channels = std::max(a.geom_.channels, b.geom_.channels);
    out.geom_.width = std::max(a.geom_.width, b.geom_.width);
    out.geom_.height = std::max(a.geom_.height, b.geom_.height);
    out.events_ = a.events_;
    out.events_.insert(out.events_.end(), b.events_.begin(), b.events_.end());
    out.normalize();
    return out;
  }

  bool operator==(const EventStream& other) const {
    return events_ == other.events_;
  }

 private:
  static int op_rank(Op op) {
    switch (op) {
      case Op::kReset: return 0;
      case Op::kWeight: return 1;
      case Op::kUpdate: return 2;
      case Op::kFire: return 3;
    }
    return 4;
  }

  StreamGeometry geom_;
  std::vector<Event> events_;
};

}  // namespace sne::event
