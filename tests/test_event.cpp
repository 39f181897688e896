// Event format and stream container tests (paper Fig. 1 + section III-C).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "common/rng.h"
#include "event/event.h"
#include "event/event_io.h"
#include "event/event_stream.h"

namespace sne::event {
namespace {

TEST(EventFormat, FieldLayoutIs32Bits) {
  EXPECT_EQ(kOpShift + kOpBits, 32);
  EXPECT_EQ(kMaxX, 127u);
  EXPECT_EQ(kMaxY, 127u);
  EXPECT_EQ(kMaxCh, 255u);
  EXPECT_EQ(kMaxTime, 255u);
}

TEST(EventFormat, PackUnpackRoundTrip) {
  const Event e = Event::update(200, 255, 127, 127);
  EXPECT_EQ(unpack(pack(e)), e);
  const Event r = Event::reset(0);
  EXPECT_EQ(unpack(pack(r)), r);
  const Event f = Event::fire(99);
  EXPECT_EQ(unpack(pack(f)), f);
}

TEST(EventFormat, RandomizedRoundTrip) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    Event e;
    e.op = static_cast<Op>(rng.uniform_int(0, 3));
    e.t = static_cast<std::uint16_t>(rng.uniform_int(0, kMaxTime));
    e.ch = static_cast<std::uint16_t>(rng.uniform_int(0, kMaxCh));
    e.x = static_cast<std::uint8_t>(rng.uniform_int(0, kMaxX));
    e.y = static_cast<std::uint8_t>(rng.uniform_int(0, kMaxY));
    EXPECT_EQ(unpack(pack(e)), e);
  }
}

TEST(EventFormat, EveryBeatDecodes) {
  // Total decoder: no 32-bit pattern traps.
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Beat b = static_cast<Beat>(rng.next());
    const Event e = unpack(b);
    EXPECT_LE(e.t, kMaxTime);
    EXPECT_LE(static_cast<std::uint32_t>(e.x), kMaxX);
  }
}

TEST(EventFormat, PackRejectsOutOfRange) {
  Event e = Event::update(0, 0, 0, 0);
  e.t = 300;
  EXPECT_THROW(pack(e), ContractViolation);
}

TEST(EventFormat, WeightBeatRoundTrip) {
  const std::int8_t w[8] = {-8, -1, 0, 1, 7, -5, 3, -2};
  const Beat b = pack_weights(w);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(unpack_weight(b, i), w[i]);
}

TEST(EventFormat, WeightHeaderRoundTrip) {
  WeightHeader h{37, 5, 9};
  const WeightHeader r = unpack_weight_header(pack(h));
  EXPECT_EQ(r.set_index, h.set_index);
  EXPECT_EQ(r.group_offset, h.group_offset);
  EXPECT_EQ(r.payload_beats, h.payload_beats);
}

TEST(EventStreamTest, ActivityMetric) {
  EventStream s(StreamGeometry{2, 4, 4, 10});
  // volume = 2*4*4*10 = 320
  for (int i = 0; i < 32; ++i)
    s.push_update(static_cast<std::uint16_t>(i % 10), 0,
                  static_cast<std::uint8_t>(i % 4), 1);
  EXPECT_DOUBLE_EQ(s.activity(), 0.1);
  EXPECT_EQ(s.update_count(), 32u);
}

TEST(EventStreamTest, NormalizeOrdersTimeMajorWithOpRank) {
  EventStream s(StreamGeometry{1, 4, 4, 4});
  s.push(Event::fire(1));
  s.push(Event::update(1, 0, 2, 2));
  s.push(Event::update(0, 0, 1, 1));
  s.push(Event::reset(0));
  s.normalize();
  EXPECT_TRUE(s.is_normalized());
  EXPECT_EQ(s.events()[0].op, Op::kReset);
  EXPECT_EQ(s.events()[1].op, Op::kUpdate);
  EXPECT_EQ(s.events()[1].t, 0);
  EXPECT_EQ(s.events()[2].op, Op::kUpdate);
  EXPECT_EQ(s.events()[3].op, Op::kFire);
}

TEST(EventStreamTest, ControlEventsActiveStepsOnly) {
  EventStream s(StreamGeometry{1, 4, 4, 10});
  s.push_update(2, 0, 1, 1);
  s.push_update(7, 0, 2, 2);
  const EventStream c = s.with_control_events(FirePolicy::kActiveStepsOnly);
  std::size_t fires = 0, resets = 0;
  for (const Event& e : c.events()) {
    if (e.op == Op::kFire) ++fires;
    if (e.op == Op::kReset) ++resets;
  }
  EXPECT_EQ(fires, 2u);  // only steps 2 and 7
  EXPECT_EQ(resets, 1u);
}

TEST(EventStreamTest, ControlEventsEveryStep) {
  EventStream s(StreamGeometry{1, 4, 4, 10});
  s.push_update(2, 0, 1, 1);
  const EventStream c = s.with_control_events(FirePolicy::kEveryStep);
  std::size_t fires = 0;
  for (const Event& e : c.events())
    if (e.op == Op::kFire) ++fires;
  EXPECT_EQ(fires, 10u);
}

// The former construction: append RST, every UPDATE and the FIREs, then
// stable-sort into the (t, op) normal form.
EventStream control_events_by_sort(const EventStream& s, FirePolicy policy,
                                   bool initial_reset) {
  EventStream out(s.geometry());
  if (initial_reset) out.push(Event::reset(0));
  std::vector<bool> active(s.geometry().timesteps, false);
  for (const Event& e : s.events())
    if (e.op == Op::kUpdate) {
      out.push(e);
      active[e.t] = true;
    }
  for (std::uint16_t t = 0; t < s.geometry().timesteps; ++t)
    if (policy == FirePolicy::kEveryStep || active[t]) out.push(Event::fire(t));
  out.normalize();
  return out;
}

TEST(EventStreamTest, ControlEventsMatchTheSortBasedConstruction) {
  // Seeded streams, time-sorted and shuffled, with stray control events in
  // the input (dropped by both), sparse and dense, plus the empty stream.
  Rng rng(91);
  for (int trial = 0; trial < 60; ++trial) {
    const auto steps = static_cast<std::uint16_t>(rng.uniform_int(1, 12));
    EventStream s(StreamGeometry{3, 8, 8, steps});
    const auto n = rng.uniform_int(0, trial % 5 == 0 ? 0 : 80);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto t = static_cast<std::uint16_t>(rng.uniform_int(0, steps - 1));
      switch (rng.uniform_int(0, 9)) {
        case 0:
          s.push(Event::fire(t));
          break;
        case 1:
          s.push(Event::reset(t));
          break;
        default:
          s.push_update(t, static_cast<std::uint16_t>(rng.uniform_int(0, 2)),
                        static_cast<std::uint8_t>(rng.uniform_int(0, 7)),
                        static_cast<std::uint8_t>(rng.uniform_int(0, 7)));
      }
    }
    if (trial % 2 == 1) s.normalize();  // odd trials: time-sorted input
    for (const FirePolicy policy :
         {FirePolicy::kActiveStepsOnly, FirePolicy::kEveryStep})
      for (const bool reset : {true, false}) {
        const EventStream want = control_events_by_sort(s, policy, reset);
        const EventStream got = s.with_control_events(policy, reset);
        EXPECT_TRUE(got == want) << "trial " << trial << ", every step "
                                 << (policy == FirePolicy::kEveryStep)
                                 << ", initial reset " << reset;
        EXPECT_TRUE(got.is_normalized());
      }
  }
}

TEST(EventStreamTest, BeatsRoundTrip) {
  EventStream s(StreamGeometry{2, 8, 8, 4});
  s.push_update(0, 1, 3, 4);
  s.push_update(3, 0, 7, 7);
  const auto beats = s.to_beats();
  const EventStream r = EventStream::from_beats(beats, s.geometry());
  EXPECT_EQ(r, s);
}

TEST(EventStreamTest, PushEnforcesGeometry) {
  EventStream s(StreamGeometry{1, 4, 4, 4});
  EXPECT_THROW(s.push_update(0, 1, 0, 0), ContractViolation);  // ch out of range
  EXPECT_THROW(s.push_update(0, 0, 4, 0), ContractViolation);  // x out of range
  EXPECT_THROW(s.push_update(4, 0, 0, 0), ContractViolation);  // t out of range
}

TEST(EventStreamTest, MergePreservesEventsAndNormalizes) {
  EventStream a(StreamGeometry{1, 4, 4, 4});
  a.push_update(1, 0, 1, 1);
  EventStream b(StreamGeometry{1, 4, 4, 4});
  b.push_update(0, 0, 2, 2);
  const EventStream m = EventStream::merge(a, b);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.is_normalized());
  EXPECT_EQ(m.events()[0].t, 0);
}

TEST(EventIo, FileRoundTrip) {
  EventStream s(StreamGeometry{2, 16, 16, 8});
  Rng rng(5);
  for (int i = 0; i < 100; ++i)
    s.push_update(static_cast<std::uint16_t>(rng.uniform_int(0, 7)),
                  static_cast<std::uint16_t>(rng.uniform_int(0, 1)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 15)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 15)));
  s.normalize();
  const std::string path = "/tmp/sne_stream_test.bin";
  save_stream(s, path);
  const EventStream r = load_stream(path);
  EXPECT_EQ(r, s);
  EXPECT_EQ(r.geometry().channels, 2);
  EXPECT_EQ(r.geometry().timesteps, 8);
  std::remove(path.c_str());
}

TEST(EventIo, RejectsBadMagic) {
  const std::string path = "/tmp/sne_bad_magic.bin";
  {
    std::ofstream f(path, std::ios::binary);
    const std::uint32_t junk = 0xDEADBEEF;
    f.write(reinterpret_cast<const char*>(&junk), 4);
  }
  EXPECT_THROW(load_stream(path), ConfigError);
  std::remove(path.c_str());
}

TEST(EventIo, RejectsTruncatedAndOverlongFiles) {
  EventStream s(StreamGeometry{1, 8, 8, 4});
  Rng rng(9);
  for (int i = 0; i < 20; ++i)
    s.push_update(static_cast<std::uint16_t>(rng.uniform_int(0, 3)), 0,
                  static_cast<std::uint8_t>(rng.uniform_int(0, 7)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 7)));
  s.normalize();
  const std::string path = "/tmp/sne_stream_corrupt.bin";
  save_stream(s, path);
  std::string good;
  {
    std::ifstream f(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(f),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(good.size(), (6 + s.size()) * 4);

  const auto rewrite = [&path](const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  // Any truncation — mid-header, at the count word, mid-beats, or one word
  // short — must throw instead of yielding a partial stream.
  for (const std::size_t cut :
       {std::size_t{2}, std::size_t{12}, std::size_t{23}, good.size() / 2,
        good.size() - 4, good.size() - 1}) {
    rewrite(good.substr(0, cut));
    EXPECT_THROW(load_stream(path), ConfigError) << "cut at " << cut;
  }
  // Trailing bytes (e.g. two concatenated recordings) are rejected too.
  rewrite(good + std::string(4, '\7'));
  EXPECT_THROW(load_stream(path), ConfigError);
  rewrite(good + std::string(1, '\0'));
  EXPECT_THROW(load_stream(path), ConfigError);
  // The pristine bytes still round-trip.
  rewrite(good);
  EXPECT_EQ(load_stream(path), s);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sne::event
