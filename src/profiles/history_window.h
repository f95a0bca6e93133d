// Fixed-capacity sliding-history ring shared by the Table 1 profiles.
//
// Both profile classes keep "the last N observations" per state. The ring
// overwrites the oldest slot in place once full: O(1) per record, and the
// footprint is pinned at exactly `capacity` slots however many observations
// churn through.
//
// Storage: the first two slots live inside the object, so a window costs no
// heap allocation until it holds a third observation. It then spills to a
// heap block that grows geometrically (4, 8, 16, ...) but never past
// `capacity`; a window of capacity <= 2 never touches the heap. How much
// this saves depends on the workload: on the 1000-cell grid campus every
// portable-profile state holds one observation and the classroom's hold at
// most two (no spill at all), while most states of the serve and Fig. 4
// workloads do spill (62% and 92% of states).
//
// Iteration order is oldest-first (index 0 = oldest), matching the order
// the original vector-backed window serialized, so checkpoint bytes are
// unchanged.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>

#include "net/ids.h"

namespace imrm::profiles {

class HistoryWindow {
 public:
  explicit HistoryWindow(std::size_t capacity) : capacity_(checked(capacity)) {}

  HistoryWindow(const HistoryWindow& other)
      : capacity_(other.capacity_), size_(other.size_), head_(other.head_),
        slots_(other.slots_) {
    if (on_heap()) heap_ = new net::CellId[slots_];  // inline_ was active
    std::copy_n(other.data(), size_, data());
  }

  HistoryWindow(HistoryWindow&& other) noexcept { take(other); }

  HistoryWindow& operator=(const HistoryWindow& other) {
    if (this != &other) *this = HistoryWindow(other);
    return *this;
  }

  HistoryWindow& operator=(HistoryWindow&& other) noexcept {
    if (this != &other) {
      if (on_heap()) delete[] heap_;
      take(other);
    }
    return *this;
  }

  ~HistoryWindow() {
    if (on_heap()) delete[] heap_;
  }

  /// Appends `value` as the newest observation. Returns the evicted oldest
  /// observation when the window was already full (a zero-capacity window
  /// evicts the value itself immediately).
  std::optional<net::CellId> push(net::CellId value) {
    if (capacity_ == 0) return value;
    if (size_ < capacity_) {
      if (size_ == slots_) grow();
      data()[size_++] = value;
      return std::nullopt;
    }
    net::CellId& oldest = data()[head_];
    const net::CellId evicted = oldest;
    oldest = value;
    if (++head_ == capacity_) head_ = 0;
    return evicted;
  }

  /// Observation `i` in arrival order: 0 = oldest, size()-1 = newest.
  /// (`head_` stays 0 until the ring is full, so one wrap covers both.)
  [[nodiscard]] net::CellId operator[](std::size_t i) const {
    std::size_t slot = head_ + i;
    if (slot >= capacity_) slot -= capacity_;
    return data()[slot];
  }

  [[nodiscard]] net::CellId newest() const { return (*this)[size_ - 1]; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Heap bytes owned beyond the object itself (0 while inline).
  [[nodiscard]] std::size_t memory_bytes() const {
    return on_heap() ? slots_ * sizeof(net::CellId) : 0;
  }

 private:
  static constexpr std::uint32_t kInline = 2;

  static std::uint32_t checked(std::size_t capacity) {
    if (capacity > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("HistoryWindow capacity exceeds 2^32 - 1");
    }
    return std::uint32_t(capacity);
  }

  [[nodiscard]] bool on_heap() const { return slots_ > kInline; }
  [[nodiscard]] net::CellId* data() { return on_heap() ? heap_ : inline_.cells; }
  [[nodiscard]] const net::CellId* data() const {
    return on_heap() ? heap_ : inline_.cells;
  }

  // Called only before the ring is full, so the held observations are
  // slots [0, size_) in arrival order.
  void grow() {
    const std::uint32_t next =
        std::uint32_t(std::min<std::size_t>(capacity_, std::size_t(slots_) * 2));
    net::CellId* block = new net::CellId[next];
    std::copy_n(data(), size_, block);
    if (on_heap()) delete[] heap_;
    heap_ = block;
    slots_ = next;
  }

  // Moves `other`'s observations (or its heap block) into this window,
  // whose own storage is already released, and leaves `other` empty and
  // inline, still usable with its capacity.
  void take(HistoryWindow& other) noexcept {
    capacity_ = other.capacity_;
    size_ = other.size_;
    head_ = other.head_;
    slots_ = other.slots_;
    if (on_heap()) {
      heap_ = other.heap_;
    } else {
      inline_ = other.inline_;
    }
    other.size_ = 0;
    other.head_ = 0;
    other.slots_ = kInline;
    other.inline_ = Inline{};
  }

  std::uint32_t capacity_;
  std::uint32_t size_ = 0;
  std::uint32_t head_ = 0;          // oldest slot, once the ring is full
  std::uint32_t slots_ = kInline;   // allocated slots; > kInline = on heap
  // The active union member is always the one on_heap() names. Each switch
  // is a whole-member assignment (heap_ = ..., inline_ = ...), which begins
  // that member's lifetime; data() hands out pointers into it only after.
  struct Inline {
    net::CellId cells[kInline];
  };
  union {
    net::CellId* heap_;
    Inline inline_{};
  };
};

}  // namespace imrm::profiles
