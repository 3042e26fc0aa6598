#include "support/event_queue.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace caem::sim {

EventId EventQueue::schedule(double time_s, EventCallback callback) {
  if (std::isnan(time_s)) throw std::invalid_argument("EventQueue: NaN event time");
  if (!callback) throw std::invalid_argument("EventQueue: null callback");
  const std::uint32_t slot = slots_.acquire(std::move(callback));
  heap_.push_back(Entry{time_s, next_sequence_++, slot});
  sift_up(heap_.size() - 1);
  ++live_count_;
  return slots_.id_at(slot);
}

bool EventQueue::cancel(EventId id) noexcept {
  if (!slots_.tombstone(id)) return false;
  --live_count_;
  ++cancelled_count_;
  return true;
}

double EventQueue::next_time() {
  if (live_count_ == 0) throw std::out_of_range("EventQueue: next_time() on empty queue");
  drop_dead_top();
  return heap_.front().time_s;
}

EventQueue::Fired EventQueue::pop() {
  drop_dead_top();
  if (heap_.empty()) throw std::out_of_range("EventQueue: pop() on empty queue");
  const Entry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  Fired fired{slots_.id_at(top.slot), top.time_s, slots_.take(top.slot)};
  slots_.release(top.slot);
  --live_count_;
  ++fired_count_;
  drop_dead_top();
  return fired;
}

void EventQueue::clear() noexcept {
  heap_.clear();
  slots_.clear();
  live_count_ = 0;
}

void EventQueue::drop_dead_top() noexcept {
  while (!heap_.empty() && !slots_.is_live(heap_.front().slot)) {
    slots_.release(heap_.front().slot);
    ++pruned_count_;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

void EventQueue::sift_up(std::size_t index) noexcept {
  const Entry moving = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!later(heap_[parent], moving)) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = moving;
}

void EventQueue::sift_down(std::size_t index) noexcept {
  const std::size_t n = heap_.size();
  const Entry moving = heap_[index];
  for (;;) {
    const std::size_t left = 2 * index + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    std::size_t smallest = left;
    if (right < n && later(heap_[left], heap_[right])) smallest = right;
    if (!later(moving, heap_[smallest])) break;
    heap_[index] = heap_[smallest];
    index = smallest;
  }
  heap_[index] = moving;
}

}  // namespace caem::sim
