#include "util/lockcheck.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>

namespace corelocate::util {
namespace {

namespace lc = lockcheck;

int g_violations = 0;
int g_last_rank = -1;
int g_last_held = -1;
std::string g_last_name;

void counting_handler(int rank, const char* name, int held_rank) {
  ++g_violations;
  g_last_rank = rank;
  g_last_held = held_rank;
  g_last_name = (name != nullptr) ? name : "";
}

/// Installs the counting handler and verifies the thread's lockset is
/// clean on both ends, so tests cannot leak held ranks into each other.
class LockcheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_violations = 0;
    g_last_rank = g_last_held = -1;
    g_last_name.clear();
    previous_ = lc::set_violation_handler(&counting_handler);
    ASSERT_EQ(lc::top_rank(), -1) << "lockset leaked from a previous test";
  }
  void TearDown() override {
    EXPECT_EQ(lc::top_rank(), -1) << "test leaked a held rank";
    lc::set_violation_handler(previous_);
  }

 private:
  lc::ViolationHandler previous_ = nullptr;
};

TEST_F(LockcheckTest, AscendingAcquisitionIsClean) {
  lc::note_acquire(lc::kRankPoolDeque, "deque");
  lc::note_acquire(lc::kRankPoolIdle, "idle");
  lc::note_acquire(lc::kRankRecordSink, "record sink");
  lc::note_acquire(lc::kRankProgress, "progress");
  EXPECT_EQ(g_violations, 0);
  EXPECT_EQ(lc::top_rank(), lc::kRankProgress);
  lc::note_release(lc::kRankProgress);
  lc::note_release(lc::kRankRecordSink);
  lc::note_release(lc::kRankPoolIdle);
  EXPECT_EQ(lc::top_rank(), lc::kRankPoolDeque);
  lc::note_release(lc::kRankPoolDeque);
  EXPECT_EQ(lc::top_rank(), -1);
  EXPECT_EQ(g_violations, 0);
}

TEST_F(LockcheckTest, DescendingAcquisitionViolates) {
  lc::note_acquire(lc::kRankPoolIdle, "idle");
  lc::note_acquire(lc::kRankPoolDeque, "deque");
  EXPECT_EQ(g_violations, 1);
  EXPECT_EQ(g_last_rank, lc::kRankPoolDeque);
  EXPECT_EQ(g_last_held, lc::kRankPoolIdle);
  EXPECT_EQ(g_last_name, "deque");
  // The refused acquisition never enters the lockset.
  EXPECT_EQ(lc::top_rank(), lc::kRankPoolIdle);
  lc::note_release(lc::kRankPoolIdle);
}

TEST_F(LockcheckTest, SameRankReacquisitionViolates) {
  lc::note_acquire(lc::kRankRecordSink, "record sink");
  lc::note_acquire(lc::kRankRecordSink, "record sink again");
  EXPECT_EQ(g_violations, 1);
  EXPECT_EQ(g_last_rank, lc::kRankRecordSink);
  EXPECT_EQ(g_last_held, lc::kRankRecordSink);
  lc::note_release(lc::kRankRecordSink);
}

TEST_F(LockcheckTest, WouldViolateMirrorsTheRule) {
  EXPECT_FALSE(lc::would_violate(lc::kRankPoolDeque));
  lc::note_acquire(lc::kRankPoolIdle, "idle");
  EXPECT_TRUE(lc::would_violate(lc::kRankPoolDeque));   // downward
  EXPECT_TRUE(lc::would_violate(lc::kRankPoolIdle));    // sideways
  EXPECT_FALSE(lc::would_violate(lc::kRankRecordSink));  // upward
  lc::note_release(lc::kRankPoolIdle);
}

TEST_F(LockcheckTest, OutOfOrderReleaseScansTheLockset) {
  lc::note_acquire(lc::kRankPoolDeque, "deque");
  lc::note_acquire(lc::kRankProgress, "progress");
  // Release the *lower* rank first: the checker falls back to a scan.
  lc::note_release(lc::kRankPoolDeque);
  EXPECT_EQ(lc::top_rank(), lc::kRankProgress);
  // Acquiring below the remaining top still violates.
  lc::note_acquire(lc::kRankRecordSink, "record sink");
  EXPECT_EQ(g_violations, 1);
  lc::note_release(lc::kRankProgress);
  EXPECT_EQ(lc::top_rank(), -1);
}

TEST_F(LockcheckTest, ReleaseOfUnheldRankIsIgnored) {
  lc::note_release(lc::kRankProgress);  // empty lockset: no-op
  lc::note_acquire(lc::kRankPoolDeque, "deque");
  lc::note_release(lc::kRankProgress);  // not held: no-op
  EXPECT_EQ(lc::top_rank(), lc::kRankPoolDeque);
  lc::note_release(lc::kRankPoolDeque);
}

TEST_F(LockcheckTest, HandlerInstallReturnsPrevious) {
  // SetUp installed counting_handler; a second install returns it.
  const lc::ViolationHandler previous = lc::set_violation_handler(&counting_handler);
  EXPECT_EQ(previous, &counting_handler);
}

TEST_F(LockcheckTest, CheckedMutexIsLockable) {
  CheckedMutex<lc::kRankPoolDeque> mutex{"test mutex"};
  EXPECT_EQ(mutex.rank(), lc::kRankPoolDeque);
  EXPECT_STREQ(mutex.name(), "test mutex");
  {
    std::lock_guard lock(mutex);
  }
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
  EXPECT_EQ(lc::top_rank(), -1);
}

#if defined(CORELOCATE_LOCK_CHECK)
TEST_F(LockcheckTest, CheckedMutexReportsInversion) {
  CheckedMutex<lc::kRankPoolIdle> idle{"idle"};
  CheckedMutex<lc::kRankPoolDeque> deque{"deque"};
  {
    std::lock_guard idle_lock(idle);
    std::lock_guard deque_lock(deque);  // inversion: 10 under 20
    EXPECT_EQ(g_violations, 1);
    EXPECT_EQ(g_last_rank, lc::kRankPoolDeque);
    EXPECT_EQ(g_last_held, lc::kRankPoolIdle);
  }
  // The refused rank was never recorded, so unlocking leaves a clean
  // lockset (note_release of an untracked rank is a no-op).
  EXPECT_EQ(lc::top_rank(), -1);
}

TEST_F(LockcheckTest, CheckedMutexFailedTryLockIsNotAnAcquisition) {
  CheckedMutex<lc::kRankRecordSink> mutex{"record sink"};
  std::lock_guard lock(mutex);
  EXPECT_EQ(lc::top_rank(), lc::kRankRecordSink);
  std::thread prober([&mutex] {
    EXPECT_FALSE(mutex.try_lock());
    // The failed attempt must not enter *this* thread's lockset.
    EXPECT_EQ(lc::top_rank(), -1);
  });
  prober.join();
}
#endif  // CORELOCATE_LOCK_CHECK

TEST(ReentryGuardTest, SequentialScopesAreFine) {
  ReentryGuard guard;
  for (int i = 0; i < 3; ++i) {
    ReentryGuard::Scope scope(guard, "sequential");
  }
}

TEST(ReentryGuardTest, CopyDoesNotTransferInFlightEntry) {
  ReentryGuard original;
  ReentryGuard::Scope scope(original, "original");
  // Copying the guarded structure while one thread is inside it must
  // yield an independently-enterable guard.
  ReentryGuard copy(original);
  ReentryGuard::Scope copy_scope(copy, "copy");
}

TEST(ReentryGuardDeathTest, ConcurrentEntryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ReentryGuard guard;
  ReentryGuard::Scope outer(guard, "outer");
  EXPECT_DEATH({ ReentryGuard::Scope inner(guard, "inner"); },
               "concurrent entry into single-owner region inner");
}

TEST(ReentryGuardDeathTest, AssignmentPreservesInFlightEntry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ReentryGuard guard;
  ReentryGuard::Scope outer(guard, "outer");
  // Assigning a fresh value over the guarded structure (as
  // Aggregator::merge does with `bucket = Bucket{}`) must not clear the
  // busy flag of an entry that is still live.
  guard = ReentryGuard{};
  EXPECT_DEATH({ ReentryGuard::Scope inner(guard, "after-assign"); },
               "concurrent entry into single-owner region after-assign");
}

}  // namespace
}  // namespace corelocate::util
