// ring_buffer.hpp — bounded FIFO used by the packet queue.
//
// Header-only template: contiguous storage, O(1) push/pop.  Capacity is
// a runtime constructor argument because buffer size is a simulation
// parameter (Table II).  It is a limit, not an allocation: storage
// starts empty and doubles on demand (from kInitialSlots) up to the
// limit, and halves once a pop leaves it a quarter full, so a buffer
// costs about what it holds now, neither its worst case nor its
// high-water mark.  clear() hands the storage back.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace caem::util {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("RingBuffer: capacity must be positive");
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }

  /// Element slots currently allocated: 0 until the first push, never
  /// more than capacity().
  [[nodiscard]] std::size_t allocated() const noexcept { return storage_.size(); }

  /// Push to the back; returns false (and drops the value) when full.
  bool try_push(T value) {
    if (!make_room()) return false;
    storage_[wrap(head_ + size_)] = std::move(value);
    ++size_;
    return true;
  }

  /// Front element; throws std::out_of_range when empty.
  [[nodiscard]] T& front() {
    if (empty()) throw std::out_of_range("RingBuffer: front() on empty buffer");
    return storage_[head_];
  }
  [[nodiscard]] const T& front() const {
    if (empty()) throw std::out_of_range("RingBuffer: front() on empty buffer");
    return storage_[head_];
  }

  /// i-th element from the front (0 == front); throws when out of range.
  [[nodiscard]] const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("RingBuffer: index out of range");
    return storage_[wrap(head_ + i)];
  }

  /// Push to the front (re-queue); returns false when full.
  bool try_push_front(T value) {
    if (!make_room()) return false;
    head_ = wrap(head_ + storage_.size() - 1);
    storage_[head_] = std::move(value);
    ++size_;
    return true;
  }

  /// Pop from the front; throws std::out_of_range when empty.
  T pop() {
    if (empty()) throw std::out_of_range("RingBuffer: pop() on empty buffer");
    T value = std::move(storage_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    if (storage_.size() > kInitialSlots && size_ <= storage_.size() / 4) {
      resize_storage(std::max(kInitialSlots, storage_.size() / 2));
    }
    return value;
  }

  /// Empty the buffer and free its storage.
  void clear() noexcept {
    std::vector<T>().swap(storage_);
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kInitialSlots = 4;

  /// Reduce a position below 2 * allocated() to a slot index.
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i >= storage_.size() ? i - storage_.size() : i;
  }

  /// Ensure a free slot exists, doubling the storage (capped at
  /// capacity()) if it is full; false when the buffer is at its limit.
  bool make_room() {
    if (full()) return false;
    if (size_ == storage_.size()) {
      resize_storage(std::min(capacity_, std::max(kInitialSlots, 2 * storage_.size())));
    }
    return true;
  }

  /// Move the live elements to the start of a new block of `slots`.
  void resize_storage(std::size_t slots) {
    std::vector<T> next(slots);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move(storage_[wrap(head_ + i)]);
    storage_.swap(next);
    head_ = 0;
  }

  std::vector<T> storage_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace caem::util
