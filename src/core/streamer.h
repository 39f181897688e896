// Streamers: "DMAs autonomously transfer events and weights from the main
// memory to the SNE internal buffers and vice versa. ... they also operate
// the conversion between the event memory format and event stream format.
// The DMA contains a 16-words FIFO event memory to absorb memory latency
// cycles" (paper section III-D.2).
//
// Both directions implement a simple 1-D movement scheme over 32-bit words.
#pragma once

#include <cstdint>

#include "common/contracts.h"
#include "core/config.h"
#include "event/event.h"
#include "hwsim/counters.h"
#include "hwsim/fifo.h"
#include "hwsim/memory.h"

namespace sne::core {

/// Memory -> stream direction.
class InputStreamer {
 public:
  InputStreamer(hwsim::MemoryModel& mem, std::uint32_t fifo_depth)
      : mem_(&mem), fifo_(fifo_depth) {}

  /// Programs a 1-D transfer of `count` words starting at `base`.
  void start(std::size_t base, std::size_t count) {
    SNE_EXPECTS(base + count <= mem_->size());
    base_ = base;
    remaining_ = count;
    cursor_ = 0;
    wait_ = remaining_ > 0 ? mem_->next_word_delay(/*first_of_burst=*/true) : 0;
  }

  /// Restores the freshly-constructed state (engine reset path), including
  /// the FIFO occupancy statistics. A drained streamer's transfer state is
  /// already equivalent; this also covers aborted transfers.
  void reset() {
    fifo_.reset();
    base_ = 0;
    cursor_ = 0;
    remaining_ = 0;
    wait_ = 0;
  }

  bool transfer_done() const { return remaining_ == 0; }
  bool fully_drained() const { return transfer_done() && fifo_.empty(); }
  hwsim::Fifo<event::Beat>& fifo() { return fifo_; }
  const hwsim::Fifo<event::Beat>& fifo() const { return fifo_; }

  /// One clock cycle: fetches at most one word from memory into the FIFO,
  /// honouring access latency and backpressure.
  void tick(hwsim::ActivityCounters& c) {
    if (remaining_ == 0) return;
    if (wait_ > 1) {
      --wait_;
      return;
    }
    if (fifo_.full()) return;  // backpressure: hold the burst
    const bool ok = fifo_.try_push(mem_->read_word(base_ + cursor_));
    SNE_ASSERT(ok);
    retire_fetch(c);
  }

  /// The bookkeeping of one fetch: counters, cursor and the next word's
  /// latency draw. tick() calls it after pushing the word; the engine's
  /// UPDATE span calls it at each fetch it schedules and reconciles the
  /// FIFO in bulk. Returns the drawn latency (0 after the last word).
  std::uint32_t retire_fetch(hwsim::ActivityCounters& c) {
    SNE_EXPECTS(remaining_ > 0);
    c.fifo_pushes++;
    c.dma_read_beats++;
    ++cursor_;
    --remaining_;
    wait_ = remaining_ > 0 ? mem_->next_word_delay(/*first_of_burst=*/false) : 0;
    return wait_;
  }

  /// Cycles until this streamer's next self-timed observable action (a word
  /// entering the FIFO): the remaining latency countdown, or kNeverActive
  /// when the transfer is done / blocked on FIFO backpressure (the unblocking
  /// pop is another component's activity and bounds the jump instead).
  std::uint64_t next_activity_delta() const {
    if (remaining_ == 0) return kNeverActive;
    if (wait_ > 1) return wait_;
    return fifo_.full() ? kNeverActive : 1;
  }

  /// Fast-forward support: burns `cycles` latency-countdown ticks in bulk.
  /// Callers guarantee cycles < next_activity_delta(), so no transfer is
  /// skipped over; a blocked or drained streamer is unaffected (its tick is
  /// a no-op in those states).
  void skip_cycles(std::uint64_t cycles) {
    if (remaining_ == 0 || wait_ <= 1) return;
    SNE_ASSERT(cycles <= wait_ - 1);
    wait_ -= static_cast<std::uint32_t>(cycles);
  }

  // --- UPDATE span support (SneEngine::update_span) --------------------------
  std::size_t base() const { return base_; }
  /// Words fetched so far (the next fetch reads base() + cursor()).
  std::size_t cursor() const { return cursor_; }
  std::size_t remaining() const { return remaining_; }
  /// Latency countdown: the next fetch can land wait() - 1 cycles from now.
  std::uint32_t wait() const { return wait_; }

  /// Lets `cycles` ticks pass with no fetch: the latency countdown runs down
  /// to 1, where a fetch blocked on a full FIFO waits.
  void span_elapse(std::uint64_t cycles) {
    if (remaining_ == 0) return;
    wait_ = wait_ > cycles ? wait_ - static_cast<std::uint32_t>(cycles) : 1;
  }

 private:
  hwsim::MemoryModel* mem_;
  hwsim::Fifo<event::Beat> fifo_;
  std::size_t base_ = 0;
  std::size_t cursor_ = 0;
  std::size_t remaining_ = 0;
  std::uint32_t wait_ = 0;
};

/// Stream -> memory direction.
class OutputStreamer {
 public:
  OutputStreamer(hwsim::MemoryModel& mem, std::uint32_t fifo_depth)
      : mem_(&mem), fifo_(fifo_depth) {}

  /// Programs the linear destination region.
  void start(std::size_t base, std::size_t capacity) {
    SNE_EXPECTS(base + capacity <= mem_->size());
    base_ = base;
    capacity_ = capacity;
    written_ = 0;
  }

  hwsim::Fifo<event::Beat>& fifo() { return fifo_; }
  const hwsim::Fifo<event::Beat>& fifo() const { return fifo_; }
  std::size_t written() const { return written_; }
  bool drained() const { return fifo_.empty(); }

  /// Restores the freshly-constructed state (engine reset path), including
  /// the FIFO occupancy statistics.
  void reset() {
    fifo_.reset();
    base_ = 0;
    capacity_ = 0;
    written_ = 0;
  }

  /// One clock cycle: writes at most one word to memory (posted writes; the
  /// write latency is hidden behind the FIFO, as in the RTL).
  void tick(hwsim::ActivityCounters& c) {
    if (fifo_.empty()) return;
    if (written_ >= capacity_)
      throw ConfigError("output stream overflowed its memory region");
    mem_->write_word(base_ + written_, fifo_.pop());
    c.fifo_pops++;
    c.dma_write_beats++;
    ++written_;
  }

  /// Batched drain replay: commits `n` words the replay already popped from
  /// the FIFO model. Memory contents, write cursor and the dma beat charges
  /// are identical to n tick()s that popped these words; the FIFO-side pop
  /// statistics are reconciled separately by the replay, which also proved
  /// the words fit the region.
  void write_burst(const event::Beat* beats, std::size_t n,
                   hwsim::ActivityCounters& c) {
    SNE_EXPECTS(written_ + n <= capacity_);
    mem_->write_burst(base_ + written_, beats, n);
    c.dma_write_beats += n;
    written_ += n;
  }

  /// Words left in the output region (bounds a replayed span's writes).
  std::size_t region_space() const {
    return capacity_ > written_ ? capacity_ - written_ : 0;
  }

 private:
  hwsim::MemoryModel* mem_;
  hwsim::Fifo<event::Beat> fifo_;
  std::size_t base_ = 0;
  std::size_t capacity_ = 0;
  std::size_t written_ = 0;
};

}  // namespace sne::core
