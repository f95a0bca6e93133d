#include "profiles/portable_profile.h"

#include <algorithm>
#include <numeric>

namespace imrm::profiles {

const HistoryWindow* PortableProfile::find(std::uint64_t key) const {
  const auto it = std::find(keys_.begin(), keys_.end(), key);
  return it == keys_.end() ? nullptr : &windows_[std::size_t(it - keys_.begin())];
}

HistoryWindow& PortableProfile::find_or_insert(std::uint64_t key) {
  const auto it = std::find(keys_.begin(), keys_.end(), key);
  if (it != keys_.end()) return windows_[std::size_t(it - keys_.begin())];
  return append(key);
}

HistoryWindow& PortableProfile::append(std::uint64_t key) {
  keys_.push_back(key);
  return windows_.emplace_back(window_);
}

void PortableProfile::record(CellId previous, CellId current, CellId next) {
  // The ring overwrites the oldest observation when full.
  (void)find_or_insert(pack(previous, current)).push(next);
}

std::optional<CellId> PortableProfile::predict(CellId previous, CellId current) const {
  const HistoryWindow* window = find(pack(previous, current));
  if (window == nullptr || window->empty()) return std::nullopt;
  // Majority vote over the window; ties break toward the most recent, and
  // among equally-counted others toward the smallest cell id (the order the
  // original std::map-based vote scanned candidates in).
  std::vector<CellId> sorted;
  sorted.reserve(window->size());
  for (std::size_t i = 0; i < window->size(); ++i) {
    sorted.push_back((*window)[i]);
  }
  std::sort(sorted.begin(), sorted.end());
  CellId best = window->newest();
  std::size_t best_count = 0;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    if (sorted[i] == best) best_count = j - i;
    i = j;
  }
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    if (j - i > best_count) {
      best = sorted[i];
      best_count = j - i;
    }
    i = j;
  }
  return best;
}

std::size_t PortableProfile::observations(CellId previous, CellId current) const {
  const HistoryWindow* window = find(pack(previous, current));
  return window == nullptr ? 0 : window->size();
}

std::size_t PortableProfile::memory_bytes() const {
  std::size_t total = keys_.capacity() * sizeof(std::uint64_t) +
                      windows_.capacity() * sizeof(HistoryWindow);
  for (const HistoryWindow& window : windows_) total += window.memory_bytes();
  return total;
}

void PortableProfile::save_state(sim::CheckpointWriter& w) const {
  std::vector<std::size_t> order(keys_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return keys_[a] < keys_[b]; });
  w.u32(id_.value());
  w.u64(window_);
  w.u64(keys_.size());
  for (const std::size_t i : order) {
    w.u32(std::uint32_t(keys_[i] >> 32));
    w.u32(std::uint32_t(keys_[i] & 0xffffffffu));
    const HistoryWindow& window = windows_[i];
    w.u64(window.size());
    for (std::size_t k = 0; k < window.size(); ++k) w.u32(window[k].value());
  }
}

PortableProfile PortableProfile::restore_state(sim::CheckpointReader& r) {
  const PortableId id{r.u32()};
  PortableProfile profile(id, std::size_t(r.u64()));
  // save_state writes keys strictly ascending, so a key above every key read
  // so far is new and is appended without a scan; only an out-of-order or
  // repeated key takes the find_or_insert path.
  std::uint64_t largest = 0;  // meaningful once a key has been appended
  for (std::uint64_t states = r.u64(); states-- > 0;) {
    const CellId previous{r.u32()};
    const CellId current{r.u32()};
    const std::uint64_t key = pack(previous, current);
    const bool ascending = profile.keys_.empty() || key > largest;
    if (ascending) largest = key;
    HistoryWindow& window = ascending ? profile.append(key) : profile.find_or_insert(key);
    for (std::uint64_t n = r.u64(); n-- > 0;) (void)window.push(CellId{r.u32()});
  }
  return profile;
}

}  // namespace imrm::profiles
