// Per-layer call accounting for the traced benchmark binary.
//
// The traced binary is linked with -Wl,--wrap=<symbol> on out-of-line public
// entry points of the imrm libraries (see wrap.cc and CMakeLists.txt). Each
// wrapper runs the real function inside span(), which counts the call and
// charges its self time (wall time minus the time of nested wrapped calls)
// to the entry point. Accumulators are thread-local, so the sharded engine's
// worker threads and the replication pool never contend; totals() folds every
// thread that ever recorded, and is meant to be read after those threads
// joined.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>

namespace perfbench {

enum class Entry : std::size_t {
  kProfilesRecordHandoff,
  kPredictionPredict,
  kPredictionRecordEntry,
  kPredictionRecordExit,
  kReservationAdmitNew,
  kReservationAdmitHandoff,
  kReservationReserveFor,
  kReservationCancelReservation,
  kReservationRelease,
  kReservationProbAdmitNew,
  kCoreOpenConnection,
  kCoreHandoff,
  kCoreCloseConnection,
  kCoreAdapt,
  kQosAdmit,
  kCount,
};
inline constexpr std::size_t kEntryCount = std::size_t(Entry::kCount);

/// Metric prefix of each entry point, e.g. "profiles.record_handoff".
[[nodiscard]] std::string_view entry_name(Entry e);

struct EntryTotals {
  std::array<std::uint64_t, kEntryCount> calls{};
  std::array<std::uint64_t, kEntryCount> self_ns{};
};

struct ThreadTotals {
  EntryTotals totals;
  std::uint64_t child_ns = 0;  // time of completed nested spans in the open span
};

/// This thread's accumulator (registered on first use, never freed).
[[nodiscard]] ThreadTotals& thread_totals();

/// Sum over every thread that recorded since the last reset().
[[nodiscard]] EntryTotals totals();
void reset();

[[nodiscard]] inline std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

template <typename F>
decltype(auto) span(Entry e, F&& f) {
  ThreadTotals& t = thread_totals();
  const std::uint64_t outer_child = t.child_ns;
  t.child_ns = 0;
  const std::uint64_t t0 = now_ns();
  const auto finish = [&] {
    const std::uint64_t dur = now_ns() - t0;
    const auto i = std::size_t(e);
    ++t.totals.calls[i];
    t.totals.self_ns[i] += dur - std::min(dur, t.child_ns);
    t.child_ns = outer_child + dur;
  };
  if constexpr (std::is_void_v<decltype(std::forward<F>(f)())>) {
    std::forward<F>(f)();
    finish();
  } else {
    decltype(auto) result = std::forward<F>(f)();
    finish();
    return result;
  }
}

}  // namespace perfbench
