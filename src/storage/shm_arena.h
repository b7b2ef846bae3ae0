#ifndef TASKBENCH_STORAGE_SHM_ARENA_H_
#define TASKBENCH_STORAGE_SHM_ARENA_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace taskbench::storage {

/// A POSIX shared-memory segment (shm_open + mmap, MAP_SHARED). The
/// backing object is unlinked immediately after mapping, so the
/// memory lives exactly as long as the mappings do and nothing leaks
/// into /dev/shm on crash. Because the mapping is MAP_SHARED and
/// created *before* fork, every forked worker addresses the same
/// physical pages at the same virtual address — which is what lets
/// std::atomic objects placement-new'ed into the segment synchronize
/// across processes.
class ShmSegment {
 public:
  /// Maps `bytes` of zero-filled shared memory. `name_hint` seeds the
  /// (ephemeral) shm object name.
  static Result<ShmSegment> Create(const std::string& name_hint,
                                   uint64_t bytes);

  ShmSegment() = default;
  ~ShmSegment();
  ShmSegment(ShmSegment&& other) noexcept;
  ShmSegment& operator=(ShmSegment&& other) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  uint8_t* base() const { return static_cast<uint8_t*>(base_); }
  uint64_t bytes() const { return bytes_; }
  bool valid() const { return base_ != nullptr; }

 private:
  void* base_ = nullptr;
  uint64_t bytes_ = 0;
};

/// Shared-memory block arena — the zero-copy data plane of the
/// multi-process executor. Workers serialize blocks (the existing
/// `storage::Serializer` wire format) straight into arena pages and
/// publish them by offset; readers deserialize straight out of the
/// same pages. Nothing ever moves through the coordinator.
///
/// Allocation is a cross-process lock-free bump pointer: one
/// fetch_add on an atomic cursor that lives in the segment itself.
/// Records are never freed individually — a datum overwritten by a
/// later task version gets a fresh record and the old one is
/// abandoned; the whole arena is reclaimed at once by Reset, which
/// its owner calls between runs once no process can still touch a
/// record. That makes write-after-read safe by construction within a
/// run: a reader holding an old offset can keep deserializing while
/// the new version lands elsewhere. Offsets repeat across a Reset, so
/// an offset names one record only until the next one.
///
/// Layout: [Header | 64-byte-aligned records...]. Each Allocate
/// returns a record offset; callers prefix their payload with
/// whatever framing they need (the executor stores a u64 byte count
/// ahead of each serialized block).
class ShmArena {
 public:
  /// An arena with `capacity` usable payload bytes.
  static Result<ShmArena> Create(const std::string& name_hint,
                                 uint64_t capacity);

  ShmArena() = default;
  ShmArena(ShmArena&&) noexcept = default;
  ShmArena& operator=(ShmArena&&) noexcept = default;

  /// Reserves `bytes` (rounded up to 64-byte alignment) and returns
  /// the record's offset. ResourceExhausted when the arena cannot
  /// hold it — including single blocks larger than the whole arena,
  /// which is reported distinctly so callers know resizing is needed
  /// rather than the run simply being too big.
  Result<uint64_t> Allocate(uint64_t bytes);

  /// Rewinds the bump cursor to the first record, so the next
  /// Allocate reuses the arena from its start. Every outstanding
  /// offset becomes dangling: only call it when no other process
  /// still maps the arena (the executor reaps all its workers first).
  void Reset();

  /// Pointer to the record at `offset`. Valid in every process that
  /// inherited the mapping.
  uint8_t* At(uint64_t offset) const { return segment_.base() + offset; }

  uint64_t capacity() const;
  uint64_t used() const;
  bool valid() const { return segment_.valid(); }

 private:
  struct Header {
    std::atomic<uint64_t> next;  ///< bump cursor (offset of free space)
    uint64_t capacity = 0;       ///< total segment bytes
  };
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "cross-process bump allocation needs a lock-free atomic");

  Header* header() const {
    return reinterpret_cast<Header*>(segment_.base());
  }

  ShmSegment segment_;
};

}  // namespace taskbench::storage

#endif  // TASKBENCH_STORAGE_SHM_ARENA_H_
