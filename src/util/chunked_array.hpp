// chunked_array.hpp — append-only array stored in fixed 32 KiB chunks.
//
// For per-run collections that grow with simulated time (a delay per
// delivered packet, a record per channel pair ever used).  Growth
// allocates one more chunk and never copies or frees what is already
// stored, so the array costs its size plus at most one partly filled
// chunk: no doubling transient holding old and new blocks at once, no
// unused capacity, and one allocation per 32 KiB (std::deque would make
// one per 512 B, each with its own allocator header).  Elements keep
// their addresses.  Iterators are random access, so <algorithm>
// selection and search run on the storage in place.
#pragma once

#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace caem::util {

template <typename T>
class ChunkedArray {
  static_assert(std::is_trivially_copyable_v<T>, "chunks hold plain values");
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 15;
  static_assert(sizeof(T) <= kChunkBytes && (sizeof(T) & (sizeof(T) - 1)) == 0,
                "element size must be a power of two within a chunk");
  static constexpr std::size_t kPerChunk = kChunkBytes / sizeof(T);

  template <bool kConst>
  class Iterator {
    using Owner = std::conditional_t<kConst, const ChunkedArray, ChunkedArray>;

   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<kConst, const T*, T*>;
    using reference = std::conditional_t<kConst, const T&, T&>;

    Iterator() = default;
    Iterator(Owner* array, std::size_t index) noexcept : array_(array), index_(index) {}

    reference operator*() const noexcept { return (*array_)[index_]; }
    pointer operator->() const noexcept { return &(*array_)[index_]; }
    reference operator[](difference_type n) const noexcept { return *(*this + n); }

    Iterator& operator++() noexcept { return *this += 1; }
    Iterator& operator--() noexcept { return *this -= 1; }
    Iterator operator++(int) noexcept { return std::exchange(*this, *this + 1); }
    Iterator operator--(int) noexcept { return std::exchange(*this, *this - 1); }
    Iterator& operator+=(difference_type n) noexcept {
      index_ = static_cast<std::size_t>(static_cast<difference_type>(index_) + n);
      return *this;
    }
    Iterator& operator-=(difference_type n) noexcept { return *this += -n; }
    friend Iterator operator+(Iterator it, difference_type n) noexcept { return it += n; }
    friend Iterator operator+(difference_type n, Iterator it) noexcept { return it += n; }
    friend Iterator operator-(Iterator it, difference_type n) noexcept { return it -= n; }
    friend difference_type operator-(const Iterator& a, const Iterator& b) noexcept {
      return static_cast<difference_type>(a.index_) - static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const Iterator& a, const Iterator& b) noexcept {
      return a.index_ == b.index_;
    }
    friend auto operator<=>(const Iterator& a, const Iterator& b) noexcept {
      return a.index_ <=> b.index_;
    }

   private:
    Owner* array_ = nullptr;
    std::size_t index_ = 0;
  };

 public:
  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  void push_back(const T& value) {
    if (size_ == chunks_.size() * kPerChunk) {
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(kPerChunk));
    }
    (*this)[size_++] = value;
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return chunks_[i / kPerChunk][i % kPerChunk];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return chunks_[i / kPerChunk][i % kPerChunk];
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Drop every element and free every chunk.
  void clear() noexcept {
    std::vector<std::unique_ptr<T[]>>().swap(chunks_);
    size_ = 0;
  }

  [[nodiscard]] iterator begin() noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() noexcept { return {this, size_}; }
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size_}; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace caem::util
