// Portable profile (Table 1): for every (previous cell, current cell) pair,
// the aggregated history of the portable's last N_pP handoffs out of that
// state, used to predict the next cell.
//
// The aggregate is a sliding window: the profile server records each handoff
// as <previous, current, next>, keeps the most recent N_pP per (previous,
// current) state, and predicts the majority next-cell.
//
// Storage is two parallel dense vectors: the packed (previous << 32) |
// current state keys in first-seen order, and each state's HistoryWindow
// ring at the same index. A new state is appended; existing states never
// move. On the 1000-cell grid campus every record opens a new state and a
// portable ends its hour with about 63, where a sorted array shifted ~1-2 KB
// of states per record. A lookup is a linear scan of the key array: there
// it scans ~30 keys on average, and ~10 and ~4 in the serve and Fig. 4
// workloads, where states repeat. Portables that collect hundreds of states
// have not been measured. Windows keep their first two observations inline
// (see history_window.h). Eviction is an O(1) ring overwrite and the
// per-portable footprint is pinned no matter how many handoffs churn
// through (tested at 20k in profiles_test).
//
// Checkpoints write states in ascending packed-key order, exactly the order
// of the original std::map<std::pair<CellId, CellId>, ...>, so checkpoint
// bytes do not depend on the order states were first seen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ids.h"
#include "profiles/history_window.h"
#include "sim/checkpoint.h"

namespace imrm::profiles {

using net::CellId;
using net::PortableId;

class PortableProfile {
 public:
  explicit PortableProfile(PortableId id, std::size_t window = 16)
      : id_(id), window_(window) {}

  /// Records a handoff: the portable moved to `next` while in `current`,
  /// having previously been in `previous`.
  void record(CellId previous, CellId current, CellId next);

  /// The next-predicted-cell field: majority vote over the window, or
  /// nullopt when the state was never observed.
  [[nodiscard]] std::optional<CellId> predict(CellId previous, CellId current) const;

  /// Number of observations stored for a state (for tests/inspection).
  [[nodiscard]] std::size_t observations(CellId previous, CellId current) const;

  [[nodiscard]] PortableId id() const { return id_; }
  [[nodiscard]] std::size_t window() const { return window_; }

  /// Estimated heap footprint in bytes.
  [[nodiscard]] std::size_t memory_bytes() const;

  // --- checkpoint/restore (ISSUE 4): id, window, and the full sliding
  // history in ascending packed-state order (deterministic on both sides,
  // byte-compatible with the original std::map layout).
  void save_state(sim::CheckpointWriter& w) const;
  [[nodiscard]] static PortableProfile restore_state(sim::CheckpointReader& r);

 private:
  static std::uint64_t pack(CellId previous, CellId current) {
    return (std::uint64_t(previous.value()) << 32) | current.value();
  }

  [[nodiscard]] const HistoryWindow* find(std::uint64_t key) const;
  [[nodiscard]] HistoryWindow& find_or_insert(std::uint64_t key);
  [[nodiscard]] HistoryWindow& append(std::uint64_t key);  // key must be new

  PortableId id_;
  std::size_t window_;
  std::vector<std::uint64_t> keys_;      // (previous << 32) | current, first-seen order
  std::vector<HistoryWindow> windows_;   // windows_[i] belongs to keys_[i]
};

}  // namespace imrm::profiles
