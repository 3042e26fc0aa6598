// Tests for util::RingBuffer, util::ChunkedArray and util::TableWriter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <sstream>

#include "util/chunked_array.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/table_writer.hpp"

namespace caem::util {
namespace {

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> buffer(4);
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(buffer.try_push(i));
  EXPECT_TRUE(buffer.full());
  EXPECT_FALSE(buffer.try_push(5));
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(buffer.pop(), i);
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBuffer, WrapAround) {
  RingBuffer<int> buffer(3);
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(buffer.try_push(round));
    EXPECT_EQ(buffer.pop(), round);
  }
  EXPECT_TRUE(buffer.empty());
}

TEST(RingBuffer, PushFrontRestoresHead) {
  RingBuffer<int> buffer(4);
  buffer.try_push(2);
  buffer.try_push(3);
  EXPECT_TRUE(buffer.try_push_front(1));
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.pop(), 1);
  EXPECT_EQ(buffer.pop(), 2);
  EXPECT_EQ(buffer.pop(), 3);
}

TEST(RingBuffer, PushFrontWhenFullFails) {
  RingBuffer<int> buffer(2);
  buffer.try_push(1);
  buffer.try_push(2);
  EXPECT_FALSE(buffer.try_push_front(0));
}

TEST(RingBuffer, AtIndexesFromHead) {
  RingBuffer<int> buffer(3);
  buffer.try_push(10);
  buffer.try_push(20);
  (void)buffer.pop();
  buffer.try_push(30);
  buffer.try_push(40);  // storage now wrapped
  EXPECT_EQ(buffer.at(0), 20);
  EXPECT_EQ(buffer.at(1), 30);
  EXPECT_EQ(buffer.at(2), 40);
  EXPECT_THROW((void)buffer.at(3), std::out_of_range);
}

TEST(RingBuffer, ErrorsAndClear) {
  RingBuffer<int> buffer(2);
  EXPECT_THROW(buffer.pop(), std::out_of_range);
  EXPECT_THROW((void)buffer.front(), std::out_of_range);
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
  buffer.try_push(1);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
}

// Randomized equivalence against std::deque: pushes at both ends, pops
// and indexed peeks, through many wraps and every growth step, at
// capacities that are and are not powers of two.  Overflow must land
// exactly at capacity(), whatever storage is allocated at the time.
TEST(RingBuffer, MatchesDequeAcrossWrapsAndGrowth) {
  for (const std::size_t capacity : {1u, 3u, 4u, 7u, 50u}) {
    RingBuffer<int> buffer(capacity);
    std::deque<int> reference;
    Rng rng(capacity, "ring-equivalence");
    int next = 0;
    for (int op = 0; op < 20'000; ++op) {
      const std::uint64_t dice = rng.next() % 10;
      if (dice < 4) {
        const bool ok = buffer.try_push(next);
        ASSERT_EQ(ok, reference.size() < capacity) << "capacity " << capacity << " op " << op;
        if (ok) reference.push_back(next);
        ++next;
      } else if (dice < 5) {
        const bool ok = buffer.try_push_front(next);
        ASSERT_EQ(ok, reference.size() < capacity) << "capacity " << capacity << " op " << op;
        if (ok) reference.push_front(next);
        ++next;
      } else if (dice < 8) {
        if (reference.empty()) {
          EXPECT_THROW((void)buffer.pop(), std::out_of_range);
          continue;
        }
        ASSERT_EQ(buffer.pop(), reference.front());
        reference.pop_front();
      } else {
        for (std::size_t i = 0; i < reference.size(); ++i) ASSERT_EQ(buffer.at(i), reference[i]);
        EXPECT_THROW((void)buffer.at(reference.size()), std::out_of_range);
      }
      ASSERT_EQ(buffer.size(), reference.size());
      ASSERT_EQ(buffer.full(), reference.size() == capacity);
      ASSERT_EQ(buffer.capacity(), capacity);
      ASSERT_LE(buffer.allocated(), capacity);
      ASSERT_GE(buffer.allocated(), buffer.size());
    }
  }
}

TEST(RingBuffer, StorageGrowsOnDemandAndClearFreesIt) {
  RingBuffer<int> buffer(50);
  EXPECT_EQ(buffer.capacity(), 50u);
  EXPECT_EQ(buffer.allocated(), 0u);  // idle: no storage at all
  EXPECT_TRUE(buffer.try_push(1));
  EXPECT_GT(buffer.allocated(), 0u);
  EXPECT_LT(buffer.allocated(), 50u);
  // Grow while wrapped: the head sits mid-storage when the block doubles.
  EXPECT_EQ(buffer.pop(), 1);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(buffer.try_push_front(i));
  EXPECT_EQ(buffer.allocated(), 50u);  // capped at the limit, not rounded up
  EXPECT_FALSE(buffer.try_push(99));
  EXPECT_FALSE(buffer.try_push_front(99));
  for (int i = 49; i >= 40; --i) EXPECT_EQ(buffer.pop(), i);
  buffer.clear();
  EXPECT_EQ(buffer.allocated(), 0u);
  EXPECT_TRUE(buffer.empty());
  EXPECT_TRUE(buffer.try_push(7));
  EXPECT_EQ(buffer.front(), 7);
}

// Storage follows what the buffer holds now, not its high-water mark:
// a pop that leaves it a quarter full halves the block (never below the
// initial four slots), order intact.
TEST(RingBuffer, StorageShrinksWhenAQuarterFull) {
  RingBuffer<int> buffer(50);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(buffer.try_push(i));
  EXPECT_EQ(buffer.allocated(), 50u);
  int expected = 0;
  while (buffer.size() > 12) EXPECT_EQ(buffer.pop(), expected++);
  EXPECT_EQ(buffer.allocated(), 25u);
  while (buffer.size() > 1) EXPECT_EQ(buffer.pop(), expected++);
  EXPECT_EQ(buffer.allocated(), 4u);
  EXPECT_EQ(buffer.pop(), expected++);
  EXPECT_EQ(buffer.allocated(), 4u);
  EXPECT_EQ(expected, 50);
}

// Across several chunks: indexing, iteration in insertion order, stable
// addresses, in-place <algorithm> use, and clear.
TEST(ChunkedArray, AppendsAcrossChunksWithStableAddresses) {
  ChunkedArray<std::uint64_t> array;
  EXPECT_TRUE(array.empty());
  const std::uint64_t n = 10'000;  // 4,096 per 32 KiB chunk: three chunks
  array.push_back(0);
  const std::uint64_t* first = &array[0];
  for (std::uint64_t i = 1; i < n; ++i) array.push_back((i * 7919) % n);
  EXPECT_EQ(array.size(), n);
  EXPECT_EQ(&array[0], first);
  std::uint64_t i = 0;
  for (const std::uint64_t value : array) EXPECT_EQ(value, (i++ * 7919) % n);
  EXPECT_EQ(array.end() - array.begin(), static_cast<std::ptrdiff_t>(n));
  std::sort(array.begin(), array.end());  // a permutation of 0..n-1
  for (std::uint64_t k = 0; k < n; ++k) ASSERT_EQ(array[k], k);
  array.clear();
  EXPECT_TRUE(array.empty());
  EXPECT_EQ(array.begin(), array.end());
}

TEST(TableWriter, AlignsColumns) {
  TableWriter table({"a", "long-header"});
  table.new_row().cell(std::string("xxxx")).cell(1.5, 1);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("|    a | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxx |         1.5 |"), std::string::npos);
}

TEST(TableWriter, CsvEscapesSpecials) {
  TableWriter table({"k", "v"});
  table.new_row().cell(std::string("a,b")).cell(std::string("say \"hi\""));
  std::ostringstream out;
  table.render_csv(out);
  EXPECT_NE(out.str().find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableWriter, JsonQuotesOnlyStrictJsonNumbers) {
  TableWriter table({"a", "b", "c", "d", "e", "f"});
  table.new_row()
      .cell(std::string("5"))
      .cell(std::string("-0.5"))
      .cell(std::string("1.5e-3"))
      .cell(std::string(".5"))     // strtod-valid but NOT valid JSON
      .cell(std::string("nan"))    // ditto
      .cell(std::string("05"));    // leading zero: invalid JSON
  std::ostringstream out;
  table.render_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"a\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"b\": -0.5"), std::string::npos);
  EXPECT_NE(json.find("\"c\": 1.5e-3"), std::string::npos);
  EXPECT_NE(json.find("\"d\": \".5\""), std::string::npos);
  EXPECT_NE(json.find("\"e\": \"nan\""), std::string::npos);
  EXPECT_NE(json.find("\"f\": \"05\""), std::string::npos);
}

TEST(TableWriter, NumericCells) {
  TableWriter table({"n", "x"});
  table.new_row().cell(std::size_t{42}).cell(3.14159, 2);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(-0.5, 2), "-0.50");
}

}  // namespace
}  // namespace caem::util
