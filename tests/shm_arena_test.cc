#include "storage/shm_arena.h"

#include <atomic>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "data/matrix.h"
#include "storage/serializer.h"

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace taskbench::storage {
namespace {

data::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  data::Matrix m(rows, cols);
  Rng rng(seed);
  data::FillUniform(&m, &rng);
  return m;
}

TEST(ShmSegmentTest, CreateMapsZeroedMemory) {
  auto segment = ShmSegment::Create("test", 4096);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  ASSERT_TRUE(segment->valid());
  EXPECT_EQ(segment->bytes(), 4096u);
  for (uint64_t i = 0; i < segment->bytes(); ++i) {
    ASSERT_EQ(segment->base()[i], 0);
  }
  segment->base()[0] = 0xAB;  // writable
}

TEST(ShmSegmentTest, ZeroBytesRejected) {
  EXPECT_FALSE(ShmSegment::Create("test", 0).ok());
}

TEST(ShmSegmentTest, MoveTransfersOwnership) {
  auto segment = ShmSegment::Create("test", 4096);
  ASSERT_TRUE(segment.ok());
  ShmSegment moved = std::move(*segment);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(segment->valid());
}

TEST(ShmArenaTest, AllocationsAreAlignedAndDisjoint) {
  auto arena = ShmArena::Create("test", 1 << 16);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  auto a = arena->Allocate(100);
  auto b = arena->Allocate(1);
  auto c = arena->Allocate(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*a % 64, 0u);
  EXPECT_EQ(*b % 64, 0u);
  EXPECT_EQ(*c % 64, 0u);
  // 100 rounds to 128, 1 to 64.
  EXPECT_EQ(*b - *a, 128u);
  EXPECT_EQ(*c - *b, 64u);
  EXPECT_GT(arena->used(), *c);
}

TEST(ShmArenaTest, ExhaustionIsResourceExhausted) {
  auto arena = ShmArena::Create("test", 256);
  ASSERT_TRUE(arena.ok());
  ASSERT_TRUE(arena->Allocate(128).ok());
  auto overflow = arena->Allocate(192);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(overflow.status().message().find("arena exhausted"),
            std::string::npos);
  // The failed reservation was backed out: small blocks still fit.
  EXPECT_TRUE(arena->Allocate(1).ok());
}

TEST(ShmArenaTest, ResetRewindsToTheFirstRecord) {
  auto arena = ShmArena::Create("test", 256);
  ASSERT_TRUE(arena.ok());
  auto first = arena->Allocate(192);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(arena->Allocate(128).ok());  // full
  const uint64_t used = arena->used();
  arena->Reset();
  EXPECT_LT(arena->used(), used);
  // The whole capacity is free again and offsets start over.
  auto again = arena->Allocate(192);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *first);
  EXPECT_EQ(arena->used(), used);
}

// Regression: Allocate used to fetch_add then fetch_sub on failure,
// transiently inflating the cursor — a concurrent small allocation
// that fit could spuriously see an exhausted arena, which workers
// escalate as fatal. The CAS loop never publishes an over-capacity
// cursor, so every small allocation below must succeed no matter how
// hard the failing thread hammers.
TEST(ShmArenaTest, FailingAllocationNeverStarvesConcurrentSmallOnes) {
  auto arena = ShmArena::Create("test", 1 << 16);  // 64 KiB
  ASSERT_TRUE(arena.ok());
  std::atomic<bool> stop{false};
  std::thread bully([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto huge = arena->Allocate(1 << 20);  // can never fit
      EXPECT_FALSE(huge.ok());
    }
  });
  for (int i = 0; i < 512; ++i) {  // 512 x 64 B = 32 KiB, all fit
    auto small = arena->Allocate(64);
    EXPECT_TRUE(small.ok()) << small.status().ToString();
  }
  stop.store(true, std::memory_order_relaxed);
  bully.join();
}

TEST(ShmArenaTest, OversizedBlockReportedDistinctly) {
  auto arena = ShmArena::Create("test", 256);
  ASSERT_TRUE(arena.ok());
  auto huge = arena->Allocate(1 << 20);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(huge.status().message().find("exceeds the whole shm arena"),
            std::string::npos);
}

TEST(ShmArenaTest, SerializerRoundTripThroughArena) {
  auto arena = ShmArena::Create("test", 1 << 16);
  ASSERT_TRUE(arena.ok());
  const data::Matrix m = RandomMatrix(7, 5, /*seed=*/42);
  const uint64_t payload = Serializer::SerializedSize(m);
  auto offset = arena->Allocate(8 + payload);
  ASSERT_TRUE(offset.ok());
  uint8_t* record = arena->At(*offset);
  std::memcpy(record, &payload, sizeof(payload));
  Serializer::SerializeTo(m, record + 8);

  auto back = Serializer::Deserialize(record + 8, payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == m);  // bit-exact: the wire format is lossless
}

TEST(ShmArenaTest, SerializeToMatchesVectorSerialize) {
  const data::Matrix m = RandomMatrix(4, 9, /*seed=*/7);
  std::vector<uint8_t> expected;
  Serializer::Serialize(m, &expected);
  std::vector<uint8_t> got(expected.size(), 0xFF);
  Serializer::SerializeTo(m, got.data());
  EXPECT_EQ(got, expected);
}

#if !defined(_WIN32)
TEST(ShmArenaTest, BlockWrittenInChildProcessReadsBackInParent) {
  auto arena = ShmArena::Create("test", 1 << 16);
  ASSERT_TRUE(arena.ok());
  // The directory slot lives in shared memory too, exactly like the
  // executor's block directory.
  auto dir_segment = ShmSegment::Create("dir", 64);
  ASSERT_TRUE(dir_segment.ok());
  auto* directory = new (dir_segment->base()) std::atomic<uint64_t>(0);

  const data::Matrix m = RandomMatrix(6, 6, /*seed=*/11);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: allocate (bumping the shared cursor), serialize, publish.
    const uint64_t payload = Serializer::SerializedSize(m);
    auto offset = arena->Allocate(8 + payload);
    if (!offset.ok()) _exit(1);
    uint8_t* record = arena->At(*offset);
    std::memcpy(record, &payload, sizeof(payload));
    Serializer::SerializeTo(m, record + 8);
    directory->store(*offset + 1, std::memory_order_release);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  const uint64_t tag = directory->load(std::memory_order_acquire);
  ASSERT_NE(tag, 0u);
  const uint8_t* record = arena->At(tag - 1);
  uint64_t payload = 0;
  std::memcpy(&payload, record, sizeof(payload));
  auto back = Serializer::Deserialize(record + 8, payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == m);
  // The child's bump advanced the shared cursor the parent sees.
  EXPECT_GE(arena->used(), 8 + payload);
}
#endif  // !_WIN32

}  // namespace
}  // namespace taskbench::storage
