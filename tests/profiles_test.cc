// Tests for portable/cell profiles, the zone profile server, and the
// booking calendar (Table 1 / Section 3.4.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "mobility/floorplan.h"
#include "profiles/booking.h"
#include "profiles/cell_profile.h"
#include "profiles/history_window.h"
#include "profiles/portable_profile.h"
#include "profiles/profile_server.h"

namespace imrm::profiles {
namespace {

using net::PortableId;
using sim::Duration;
using sim::SimTime;

constexpr CellId kA{0}, kB{1}, kC{2}, kD{3};

// Contents oldest-first, through the arrival-order accessor.
std::vector<std::uint32_t> contents(const HistoryWindow& window) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < window.size(); ++i) out.push_back(window[i].value());
  return out;
}

// The last min(n, capacity) of the values 0..n-1, oldest first.
std::vector<std::uint32_t> tail_of(std::uint32_t n, std::size_t capacity) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = n > capacity ? n - std::uint32_t(capacity) : 0; v < n; ++v) {
    out.push_back(v);
  }
  return out;
}

TEST(HistoryWindow, KeepsTheLastCapacityObservationsAtEverySize) {
  for (const std::size_t capacity : {0u, 1u, 2u, 3u, 16u, 128u}) {
    SCOPED_TRACE(capacity);
    HistoryWindow window(capacity);
    EXPECT_EQ(window.capacity(), capacity);
    EXPECT_TRUE(window.empty());
    const auto pushes = std::uint32_t(3 * capacity + 5);
    for (std::uint32_t v = 0; v < pushes; ++v) {
      const std::optional<CellId> evicted = window.push(CellId{v});
      if (capacity == 0) {
        EXPECT_EQ(evicted, CellId{v});  // evicts the value itself
      } else if (v < capacity) {
        EXPECT_FALSE(evicted.has_value());
      } else {
        EXPECT_EQ(evicted, CellId{v - std::uint32_t(capacity)});
      }
      ASSERT_EQ(contents(window), tail_of(v + 1, capacity));
      if (capacity > 0) {
        EXPECT_EQ(window.newest(), CellId{v});
      }
    }
    EXPECT_EQ(window.size(), std::min<std::size_t>(pushes, capacity));
    EXPECT_EQ(window.empty(), capacity == 0);
  }
}

TEST(HistoryWindow, SpillsToTheHeapOnTheThirdObservation) {
  HistoryWindow window(16);
  const std::size_t slot = sizeof(CellId);
  // Slots allocated after each push: inline for two, then 4, 8, 16, capped.
  const std::size_t expected_slots[] = {0, 0, 4, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16,
                                        16, 16, 16, 16, 16, 16, 16};
  for (std::uint32_t v = 0; v < 20; ++v) {
    (void)window.push(CellId{v});
    EXPECT_EQ(window.memory_bytes(), expected_slots[v] * slot) << "after push " << v;
    ASSERT_EQ(contents(window), tail_of(v + 1, 16));
  }
  // A capacity-3 window spills straight to exactly three slots.
  HistoryWindow three(3);
  for (std::uint32_t v = 0; v < 3; ++v) (void)three.push(CellId{v});
  EXPECT_EQ(three.memory_bytes(), 3 * slot);
  // Capacity 2 or less never allocates.
  HistoryWindow two(2);
  for (std::uint32_t v = 0; v < 10; ++v) (void)two.push(CellId{v});
  EXPECT_EQ(two.memory_bytes(), 0u);
  EXPECT_EQ(contents(two), (std::vector<std::uint32_t>{8, 9}));
}

TEST(HistoryWindow, WrappedRingReadsOldestFirst) {
  HistoryWindow window(3);
  for (std::uint32_t v = 1; v <= 5; ++v) (void)window.push(CellId{v});
  EXPECT_EQ(contents(window), (std::vector<std::uint32_t>{3, 4, 5}));
  EXPECT_EQ(window.newest(), CellId{5});
  EXPECT_EQ(window.push(CellId{6}), CellId{3});
  EXPECT_EQ(window.push(CellId{7}), CellId{4});
  EXPECT_EQ(contents(window), (std::vector<std::uint32_t>{5, 6, 7}));
}

TEST(HistoryWindow, CopiesAreIndependent) {
  for (const std::uint32_t held : {1u, 2u, 5u, 40u}) {  // inline, heap, wrapped
    SCOPED_TRACE(held);
    HistoryWindow original(16);
    for (std::uint32_t v = 0; v < held; ++v) (void)original.push(CellId{v});
    HistoryWindow copy(original);
    EXPECT_EQ(contents(copy), contents(original));
    EXPECT_EQ(copy.memory_bytes(), original.memory_bytes());
    (void)copy.push(CellId{1000});
    EXPECT_EQ(contents(original), tail_of(held, 16));
    EXPECT_EQ(copy.newest(), CellId{1000});

    HistoryWindow assigned(4);
    (void)assigned.push(CellId{77});
    assigned = original;
    EXPECT_EQ(assigned.capacity(), 16u);
    EXPECT_EQ(contents(assigned), contents(original));
    const HistoryWindow& self = assigned;
    assigned = self;
    EXPECT_EQ(contents(assigned), contents(original));
  }
}

TEST(HistoryWindow, MovesCarryContentsAndLeaveAnEmptyWindow) {
  for (const std::uint32_t held : {0u, 2u, 3u, 40u}) {
    SCOPED_TRACE(held);
    HistoryWindow source(16);
    for (std::uint32_t v = 0; v < held; ++v) (void)source.push(CellId{v});
    const std::size_t bytes = source.memory_bytes();
    HistoryWindow moved(std::move(source));
    EXPECT_EQ(contents(moved), tail_of(held, 16));
    EXPECT_EQ(moved.memory_bytes(), bytes);
    // The moved-from window is empty, owns nothing, and still works.
    EXPECT_TRUE(source.empty());
    EXPECT_EQ(source.memory_bytes(), 0u);
    for (std::uint32_t v = 0; v < 5; ++v) (void)source.push(CellId{v});
    EXPECT_EQ(contents(source), tail_of(5, 16));

    HistoryWindow target(3);
    for (std::uint32_t v = 0; v < 7; ++v) (void)target.push(CellId{100 + v});
    target = std::move(moved);
    EXPECT_EQ(target.capacity(), 16u);
    EXPECT_EQ(contents(target), tail_of(held, 16));
    EXPECT_TRUE(moved.empty());
  }
}

TEST(HistoryWindow, SurvivesMovesInsideAGrowingVector) {
  // Reallocation moves every window; front inserts move-assign them.
  std::vector<HistoryWindow> windows;
  for (std::uint32_t i = 0; i < 200; ++i) {
    HistoryWindow window(1 + i % 9);
    for (std::uint32_t v = 0; v < i % 13; ++v) (void)window.push(CellId{i * 100 + v});
    if (i % 4 == 0) {
      windows.insert(windows.begin(), std::move(window));
    } else {
      windows.push_back(std::move(window));
    }
  }
  ASSERT_EQ(windows.size(), 200u);
  std::size_t checked = 0;
  for (const HistoryWindow& window : windows) {
    if (window.empty()) continue;
    const std::uint32_t i = window.newest().value() / 100;
    const std::size_t capacity = 1 + i % 9;
    ASSERT_EQ(window.capacity(), capacity);
    std::vector<std::uint32_t> expected;
    for (const std::uint32_t v : tail_of(i % 13, capacity)) expected.push_back(i * 100 + v);
    EXPECT_EQ(contents(window), expected);
    ++checked;
  }
  EXPECT_EQ(checked, 200u - 200u / 13 - 1);  // i % 13 == 0 leaves a window empty
}

TEST(HistoryWindow, FootprintIsPinnedAfterChurn) {
  for (const std::size_t capacity : {0u, 1u, 2u, 3u, 16u, 128u}) {
    SCOPED_TRACE(capacity);
    HistoryWindow window(capacity);
    for (std::uint32_t v = 0; v < 20000; ++v) (void)window.push(CellId{v % 11});
    EXPECT_EQ(window.memory_bytes(), capacity <= 2 ? 0 : capacity * sizeof(CellId));
    EXPECT_EQ(window.size(), capacity);
  }
}

TEST(PortableProfile, PredictsMajorityNext) {
  PortableProfile profile(PortableId{1});
  profile.record(kC, kD, kA);
  profile.record(kC, kD, kA);
  profile.record(kC, kD, kB);
  EXPECT_EQ(profile.predict(kC, kD), kA);
}

TEST(PortableProfile, UnknownStateYieldsNothing) {
  PortableProfile profile(PortableId{1});
  profile.record(kC, kD, kA);
  EXPECT_FALSE(profile.predict(kD, kC).has_value());
  EXPECT_FALSE(profile.predict(kA, kB).has_value());
}

TEST(PortableProfile, WindowEvictsOldObservations) {
  PortableProfile profile(PortableId{1}, /*window=*/4);
  for (int i = 0; i < 4; ++i) profile.record(kC, kD, kA);
  // Four newer observations push the old majority out entirely.
  for (int i = 0; i < 4; ++i) profile.record(kC, kD, kB);
  EXPECT_EQ(profile.observations(kC, kD), 4u);
  EXPECT_EQ(profile.predict(kC, kD), kB);
}

TEST(PortableProfile, TieBreaksTowardRecency) {
  PortableProfile profile(PortableId{1});
  profile.record(kC, kD, kA);
  profile.record(kC, kD, kB);
  EXPECT_EQ(profile.predict(kC, kD), kB);  // most recent wins the 1-1 tie
}

TEST(PortableProfile, TieAmongOlderCellsBreaksTowardSmallestId) {
  PortableProfile profile(PortableId{1}, /*window=*/8);
  // kD and kB tie at two votes each, above the newest cell kA's one vote:
  // the newest cell no longer wins, and the smaller id does.
  for (const CellId next : {kD, kB, kD, kB, kA}) profile.record(kC, kC, next);
  EXPECT_EQ(profile.predict(kC, kC), kB);
  // Once the newest cell reaches the top count it wins the tie again.
  profile.record(kC, kC, kA);
  EXPECT_EQ(profile.predict(kC, kC), kA);

  // The same tie in a wrapped ring: the two oldest votes were evicted.
  PortableProfile wrapped(PortableId{2}, /*window=*/5);
  for (const CellId next : {kA, kA, kB, kD, kB, kD, kA}) wrapped.record(kC, kC, next);
  EXPECT_EQ(wrapped.observations(kC, kC), 5u);
  EXPECT_EQ(wrapped.predict(kC, kC), kB);
}

// Checkpoint bytes follow ascending (previous, current) order whatever the
// order states were first seen in. The expected bytes were produced by the
// sorted-array storage this class used before states were kept in
// first-seen order.
TEST(PortableProfile, CheckpointBytesMatchSortedStateLayout) {
  PortableProfile profile(PortableId{9}, /*window=*/3);
  // States recorded in descending packed-key order.
  profile.record(CellId{2}, CellId{7}, CellId{5});
  for (const std::uint32_t next : {4u, 6u, 4u, 3u}) {
    profile.record(CellId{2}, CellId{1}, CellId{next});
  }
  profile.record(CellId{1}, CellId{3}, CellId{0});
  profile.record(CellId{1}, CellId{3}, CellId{2});
  profile.record(CellId{0}, CellId{9}, CellId{8});

  const std::string expected_hex =
      "09000000" "0300000000000000" "0400000000000000"     // id, window, states
      "00000000" "09000000" "0100000000000000" "08000000"  // (0,9): 8
      "01000000" "03000000" "0200000000000000" "00000000" "02000000"  // (1,3): 0 2
      "02000000" "01000000" "0300000000000000"
      "06000000" "04000000" "03000000"                     // (2,1): 6 4 3
      "02000000" "07000000" "0100000000000000" "05000000";  // (2,7): 5
  sim::CheckpointWriter w;
  profile.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();
  std::string hex;
  for (const std::uint8_t byte : bytes) {
    hex += "0123456789abcdef"[byte >> 4];
    hex += "0123456789abcdef"[byte & 0xf];
  }
  EXPECT_EQ(hex, expected_hex);

  sim::CheckpointReader r(bytes);
  const PortableProfile restored = PortableProfile::restore_state(r);
  sim::CheckpointWriter w2;
  restored.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);
  EXPECT_EQ(restored.predict(CellId{2}, CellId{1}), CellId{3});
  EXPECT_EQ(restored.observations(CellId{1}, CellId{3}), 2u);
}

// save_state always writes ascending keys; a checkpoint whose keys are out
// of order or repeated still restores into one window per state.
TEST(PortableProfile, RestoreMergesOutOfOrderAndRepeatedStates) {
  sim::CheckpointWriter w;
  w.u32(4);  // id
  w.u64(3);  // window
  w.u64(4);  // states: (2,1) (0,5) (2,1) (3,0)
  const std::uint32_t states[][3] = {{2, 1, 7}, {0, 5, 8}, {2, 1, 9}, {3, 0, 6}};
  for (const auto& [previous, current, next] : states) {
    w.u32(previous);
    w.u32(current);
    w.u64(1);
    w.u32(next);
  }
  const std::vector<std::uint8_t> bytes = w.take();
  sim::CheckpointReader r(bytes);
  const PortableProfile restored = PortableProfile::restore_state(r);
  EXPECT_EQ(restored.observations(CellId{2}, CellId{1}), 2u);
  EXPECT_EQ(restored.predict(CellId{2}, CellId{1}), CellId{9});
  EXPECT_EQ(restored.observations(CellId{0}, CellId{5}), 1u);
  EXPECT_EQ(restored.observations(CellId{3}, CellId{0}), 1u);

  // Saved again, the states come out merged and in ascending order.
  PortableProfile expected(PortableId{4}, /*window=*/3);
  expected.record(CellId{0}, CellId{5}, CellId{8});
  expected.record(CellId{2}, CellId{1}, CellId{7});
  expected.record(CellId{2}, CellId{1}, CellId{9});
  expected.record(CellId{3}, CellId{0}, CellId{6});
  sim::CheckpointWriter a;
  restored.save_state(a);
  sim::CheckpointWriter b;
  expected.save_state(b);
  EXPECT_EQ(a.take(), b.take());
}

TEST(CellProfile, DistributionPerPreviousCell) {
  CellProfile profile(kD);
  profile.record(kC, kA);
  profile.record(kC, kA);
  profile.record(kC, kB);
  profile.record(kA, kC);  // different previous cell

  const auto dist = profile.distribution(kC);
  ASSERT_EQ(dist.size(), 2u);
  double pa = 0.0, pb = 0.0;
  for (const auto& share : dist) {
    if (share.neighbor == kA) pa = share.probability;
    if (share.neighbor == kB) pb = share.probability;
  }
  EXPECT_NEAR(pa, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(pb, 1.0 / 3.0, 1e-12);
}

TEST(CellProfile, AggregateSpansAllPrevious) {
  CellProfile profile(kD);
  profile.record(kC, kA);
  profile.record(kA, kB);
  const auto agg = profile.aggregate_distribution();
  ASSERT_EQ(agg.size(), 2u);
  for (const auto& share : agg) EXPECT_NEAR(share.probability, 0.5, 1e-12);
  EXPECT_EQ(profile.total_observations(), 2u);
}

TEST(CellProfile, PredictPicksMostLikely) {
  CellProfile profile(kD);
  for (int i = 0; i < 9; ++i) profile.record(kC, kA);
  profile.record(kC, kB);
  EXPECT_EQ(profile.predict(kC), kA);
  EXPECT_FALSE(profile.predict(kB).has_value());
}

TEST(CellProfile, WindowBounded) {
  CellProfile profile(kD, /*window=*/8);
  for (int i = 0; i < 20; ++i) profile.record(kC, kA);
  EXPECT_EQ(profile.observations(kC), 8u);
}

// ISSUE 8 satellite: the per-state windows are fixed-capacity rings, so
// sustained handoff churn must not grow a profile past its warm footprint.
TEST(PortableProfile, ChurnPinsMemoryFootprint) {
  constexpr std::uint32_t kCells = 8;
  PortableProfile profile(PortableId{1}, /*window=*/16);
  auto churn = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      const CellId prev{std::uint32_t(i * 7 % kCells)};
      const CellId cur{std::uint32_t(i * 13 % kCells)};
      const CellId next{std::uint32_t(i * 31 % kCells)};
      profile.record(prev, cur, next);
    }
  };
  // Warm up far enough to see every (previous, current) state.
  churn(0, 2000);
  const std::size_t warm_bytes = profile.memory_bytes();
  ASSERT_GT(warm_bytes, 0u);
  // 20k handoffs of further churn: byte-for-byte no growth, not just "small".
  churn(2000, 20000);
  EXPECT_EQ(profile.memory_bytes(), warm_bytes);
  EXPECT_LT(warm_bytes, 64u * 1024u);
}

TEST(CellProfile, ChurnPinsMemoryFootprint) {
  constexpr std::uint32_t kCells = 8;
  CellProfile profile(kD, /*window=*/32);
  auto churn = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      profile.record(CellId{std::uint32_t(i * 7 % kCells)},
                     CellId{std::uint32_t(i * 31 % kCells)});
    }
  };
  churn(0, 2000);
  const std::size_t warm_bytes = profile.memory_bytes();
  ASSERT_GT(warm_bytes, 0u);
  churn(2000, 20000);
  EXPECT_EQ(profile.memory_bytes(), warm_bytes);
  // Tallies stay consistent with the bounded windows.
  EXPECT_EQ(profile.total_observations(), 8u * 32u);
  double sum = 0.0;
  for (const auto& share : profile.aggregate_distribution()) {
    sum += share.probability;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// The ring must serialize oldest-first, i.e. exactly the byte stream the
// vector-backed window produced: a churned profile survives a checkpoint
// round trip with identical bytes and predictions.
TEST(PortableProfile, ChurnedCheckpointRoundTrip) {
  PortableProfile profile(PortableId{4}, /*window=*/4);
  for (int i = 0; i < 100; ++i) {
    profile.record(CellId{std::uint32_t(i % 3)}, CellId{std::uint32_t(i % 5)},
                   CellId{std::uint32_t(i % 7)});
  }
  sim::CheckpointWriter w;
  profile.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();
  sim::CheckpointReader r(bytes);
  const PortableProfile restored = PortableProfile::restore_state(r);

  sim::CheckpointWriter w2;
  restored.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);
  for (std::uint32_t prev = 0; prev < 3; ++prev) {
    for (std::uint32_t cur = 0; cur < 5; ++cur) {
      EXPECT_EQ(restored.predict(CellId{prev}, CellId{cur}),
                profile.predict(CellId{prev}, CellId{cur}));
    }
  }
}

TEST(CellProfile, ChurnedCheckpointRoundTrip) {
  CellProfile profile(kA, /*window=*/4);
  for (int i = 0; i < 100; ++i) {
    profile.record(CellId{std::uint32_t(i % 3)}, CellId{std::uint32_t(i % 7)});
  }
  sim::CheckpointWriter w;
  profile.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();
  sim::CheckpointReader r(bytes);
  const CellProfile restored = CellProfile::restore_state(r);

  sim::CheckpointWriter w2;
  restored.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);
  EXPECT_EQ(restored.total_observations(), profile.total_observations());
  for (std::uint32_t prev = 0; prev < 3; ++prev) {
    EXPECT_EQ(restored.predict(CellId{prev}), profile.predict(CellId{prev}));
  }
}

TEST(ProfileServer, RecordUpdatesBothProfiles) {
  ProfileServer server(net::ZoneId{0});
  server.record_handoff(PortableId{1}, kC, kD, kA);
  ASSERT_NE(server.portable_profile(PortableId{1}), nullptr);
  EXPECT_EQ(server.portable_profile(PortableId{1})->predict(kC, kD), kA);
  ASSERT_NE(server.cell_profile(kD), nullptr);
  EXPECT_EQ(server.cell_profile(kD)->predict(kC), kA);
}

TEST(ProfileServer, UnknownEntitiesReturnNull) {
  ProfileServer server(net::ZoneId{0});
  EXPECT_EQ(server.portable_profile(PortableId{9}), nullptr);
  EXPECT_EQ(server.cell_profile(kD), nullptr);
}

TEST(ProfileServer, TracksCacheTraffic) {
  ProfileServer server(net::ZoneId{0});
  server.record_handoff(PortableId{1}, kC, kD, kA);
  server.record_handoff(PortableId{1}, kD, kA, kD);
  server.refresh_on_static(PortableId{1});
  EXPECT_EQ(server.traffic().handoff_updates, 2u);
  EXPECT_EQ(server.traffic().profile_transfers, 2u);
  EXPECT_EQ(server.traffic().refreshes, 1u);
}

TEST(ProfileServer, HandoffEventOverload) {
  ProfileServer server(net::ZoneId{0});
  mobility::HandoffEvent event;
  event.portable = PortableId{3};
  event.prev_of_from = kC;
  event.from = kD;
  event.to = kB;
  server.record_handoff(event);
  EXPECT_EQ(server.portable_profile(PortableId{3})->predict(kC, kD), kB);
}

TEST(ProfileServer, ConfigurableWindows) {
  ProfileServer server(net::ZoneId{0}, ProfileServer::Config{2, 4});
  for (int i = 0; i < 10; ++i) server.record_handoff(PortableId{1}, kC, kD, kA);
  EXPECT_EQ(server.portable_profile(PortableId{1})->observations(kC, kD), 2u);
  EXPECT_EQ(server.cell_profile(kD)->observations(kC), 4u);
}

TEST(BookingCalendar, ActiveAndNextQueries) {
  BookingCalendar calendar;
  calendar.book({SimTime::minutes(60), SimTime::minutes(110), 35});
  calendar.book({SimTime::minutes(120), SimTime::minutes(170), 55});

  EXPECT_FALSE(calendar.active_at(SimTime::minutes(50)).has_value());
  ASSERT_TRUE(calendar.active_at(SimTime::minutes(70)).has_value());
  EXPECT_EQ(calendar.active_at(SimTime::minutes(70))->attendees, 35u);
  EXPECT_FALSE(calendar.active_at(SimTime::minutes(115)).has_value());

  ASSERT_TRUE(calendar.next_after(SimTime::minutes(115)).has_value());
  EXPECT_EQ(calendar.next_after(SimTime::minutes(115))->attendees, 55u);
  EXPECT_FALSE(calendar.next_after(SimTime::minutes(180)).has_value());
}

TEST(BookingCalendar, KeepsMeetingsSortedByStart) {
  BookingCalendar calendar;
  calendar.book({SimTime::minutes(120), SimTime::minutes(170), 2});
  calendar.book({SimTime::minutes(60), SimTime::minutes(110), 1});
  ASSERT_EQ(calendar.size(), 2u);
  EXPECT_EQ(calendar.meetings()[0].attendees, 1u);
  EXPECT_EQ(calendar.meetings()[1].attendees, 2u);
}

TEST(BookingCalendar, MeetingValidity) {
  EXPECT_TRUE((Meeting{SimTime::minutes(0), SimTime::minutes(10), 5}.valid()));
  EXPECT_FALSE((Meeting{SimTime::minutes(10), SimTime::minutes(10), 5}.valid()));
  EXPECT_FALSE((Meeting{SimTime::minutes(0), SimTime::minutes(10), 0}.valid()));
}

}  // namespace
}  // namespace imrm::profiles
