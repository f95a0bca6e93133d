#include "probe.h"

#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadTotals>> threads;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

std::string_view entry_name(Entry e) {
  static constexpr std::array<std::string_view, kEntryCount> kNames{
      "profiles.record_handoff",
      "prediction.predict",
      "prediction.record_entry",
      "prediction.record_exit",
      "reservation.admit_new",
      "reservation.admit_handoff",
      "reservation.reserve_for",
      "reservation.cancel_reservation",
      "reservation.release",
      "reservation.prob_admit_new",
      "core.open_connection",
      "core.handoff",
      "core.close_connection",
      "core.adapt",
      "qos.admit",
  };
  return kNames[std::size_t(e)];
}

ThreadTotals& thread_totals() {
  thread_local ThreadTotals* mine = [] {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    r.threads.push_back(std::make_unique<ThreadTotals>());
    return r.threads.back().get();
  }();
  return *mine;
}

EntryTotals totals() {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  EntryTotals sum;
  for (const auto& t : r.threads) {
    for (std::size_t i = 0; i < kEntryCount; ++i) {
      sum.calls[i] += t->totals.calls[i];
      sum.self_ns[i] += t->totals.self_ns[i];
    }
  }
  return sum;
}

void reset() {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  for (auto& t : r.threads) t->totals = EntryTotals{};
}

}  // namespace perfbench
