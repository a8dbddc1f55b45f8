// A shared mutex that admits no new reader while a writer is waiting.
//
// std::shared_mutex on glibc is a reader-preferring pthread rwlock: a
// waiting writer does not stop new readers from entering. A composite
// whose searches hold the shared side for their whole fan-out (ShardedIndex)
// then starves its writers for as long as two or more searches keep
// overlapping — in tests/test_mutate_stress.cpp three looping readers held
// the writer off indefinitely in 4 of 10 runs on a 4-core x86 host. Here a
// waiting writer blocks new readers, so it runs as soon as the readers
// already inside leave.
//
// Meets the Lockable and SharedLockable requirements std::unique_lock and
// std::shared_lock use. Not recursive: a thread holding the shared side
// must not take it again (it would wait behind a queued writer).
#pragma once

#include <condition_variable>
#include <mutex>

namespace rbc {

class WriterPriorityMutex {
 public:
  void lock() {
    std::unique_lock guard(state_);
    ++writers_waiting_;
    writer_turn_.wait(guard, [this] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }

  bool try_lock() {
    std::lock_guard guard(state_);
    if (writer_ || readers_ != 0) return false;
    writer_ = true;
    return true;
  }

  void unlock() {
    {
      std::lock_guard guard(state_);
      writer_ = false;
    }
    writer_turn_.notify_one();
    reader_turn_.notify_all();
  }

  void lock_shared() {
    std::unique_lock guard(state_);
    reader_turn_.wait(guard,
                      [this] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }

  /// Fails while a writer holds the lock or waits for it.
  bool try_lock_shared() {
    std::lock_guard guard(state_);
    if (writer_ || writers_waiting_ != 0) return false;
    ++readers_;
    return true;
  }

  void unlock_shared() {
    bool last = false;
    {
      std::lock_guard guard(state_);
      last = --readers_ == 0;
    }
    if (last) writer_turn_.notify_one();
  }

 private:
  std::mutex state_;  // guards the three counters below
  std::condition_variable writer_turn_;
  std::condition_variable reader_turn_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

}  // namespace rbc
