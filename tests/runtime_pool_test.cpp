// Unit tests for the deterministic fork-join thread pool and the
// thread-safety guarantees of TraceRecorder / PartyTimer.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/thread_pool.h"
#include "runtime/trace.h"

namespace ppgr::runtime {
namespace {

TEST(ThreadPool, OrderedMapResults) {
  ThreadPool pool{4};
  const auto out = pool.map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, InlineModeRunsOnCaller) {
  // threads <= 1: no workers; every index executes on the calling thread in
  // index order.
  ThreadPool pool{1};
  EXPECT_EQ(pool.threads(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, ZeroResolvesToHardwareConcurrency) {
  ThreadPool pool{0};
  EXPECT_GE(pool.threads(), 1u);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

TEST(ThreadPool, AllIndicesRunExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(513);
  pool.parallel_for(513, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesLowestIndex) {
  ThreadPool pool{4};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 7 || i == 50) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // The lowest failing index wins whenever both ran; with cancellation the
    // later one may have been skipped entirely — either way it must be one
    // of the thrown errors, and when both threw, index 7's.
    const std::string what = e.what();
    EXPECT_TRUE(what == "boom 7" || what == "boom 50") << what;
  }
}

TEST(ThreadPool, ExceptionInInlineMode) {
  ThreadPool pool{1};
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t i) {
        if (i == 2) throw std::logic_error("inline");
      }),
      std::logic_error);
}

TEST(ThreadPool, ReentrantSubmission) {
  // A task may fan out again on the same pool; the caller participates, so
  // this cannot deadlock even when every worker is busy with outer tasks.
  ThreadPool pool{3};
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t j) { inner_total += j; });
  });
  EXPECT_EQ(inner_total.load(), 8u * (16u * 15u / 2));
}

TEST(ThreadPool, ManyTasksStress) {
  ThreadPool pool{4};
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(257, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 257u);
  }
}

TEST(ThreadPool, RapidShortJobsDoNotRaceJobTeardown) {
  // Regression: the submitter used to free its stack-allocated job as soon
  // as done == count, while a freshly-woken worker could still hold a
  // pointer it had just selected from the deque — a use-after-free that
  // turned into an unbounded spin on garbage memory. Thousands of tiny jobs
  // maximize that select/teardown window.
  ThreadPool pool{4};
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 5000; ++round) {
    pool.parallel_for(2, [&](std::size_t i) { total += i + 1; });
  }
  EXPECT_EQ(total.load(), 5000u * 3);
}

TEST(ThreadPool, EmptyAndSingleCounts) {
  ThreadPool pool{4};
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  std::size_t got = 99;
  pool.parallel_for(1, [&](std::size_t i) { got = i; });
  EXPECT_EQ(got, 0u);
}

// ---- thread-safe trace recording ----

TEST(TraceRecorderThreading, ConcurrentRecordKeepsEveryTransfer) {
  TraceRecorder rec;
  ThreadPool pool{4};
  pool.parallel_for(1000, [&](std::size_t i) {
    rec.record(runtime::Phase::kPhase2, 1, 2, i);
  });
  EXPECT_EQ(rec.message_count(), 1000u);
  EXPECT_EQ(rec.total_bytes(), 1000u * 999u / 2);
  std::size_t link_bytes = 0;
  for (const Transfer& t : rec.transfers())
    if (t.src == 1 && t.dst == 2) link_bytes += t.bytes;
  EXPECT_EQ(link_bytes, rec.total_bytes());
}

TEST(TraceRecorderThreading, BufferedAbsorbIsDeterministic) {
  // The program's pattern: tasks write into per-task output slots; the
  // forking party records them in task order after the barrier. The
  // resulting transfer sequence must not depend on the schedule — compare
  // against a serial reference.
  const std::size_t kTasks = 64;
  auto run = [&](std::size_t threads) {
    TraceRecorder rec;
    std::vector<std::vector<Transfer>> slots(kTasks);
    ThreadPool pool{threads};
    pool.parallel_for(kTasks, [&](std::size_t t) {
      slots[t].push_back(Transfer{0, t + 1, 0, 10 * t});
      slots[t].push_back(Transfer{0, 0, t + 1, 10 * t + 1});
    });
    for (const auto& slot : slots)
      for (const Transfer& x : slot)
        rec.record(x.phase, x.src, x.dst, x.bytes);
    rec.next_round();
    return rec;
  };
  const auto serial = run(1);
  const auto threaded = run(4);
  ASSERT_EQ(serial.transfers().size(), threaded.transfers().size());
  for (std::size_t i = 0; i < serial.transfers().size(); ++i) {
    EXPECT_EQ(serial.transfers()[i].src, threaded.transfers()[i].src);
    EXPECT_EQ(serial.transfers()[i].dst, threaded.transfers()[i].dst);
    EXPECT_EQ(serial.transfers()[i].bytes, threaded.transfers()[i].bytes);
    EXPECT_EQ(serial.transfers()[i].round, threaded.transfers()[i].round);
  }
}

TEST(TraceRecorderThreading, CopyAndMovePreserveData) {
  TraceRecorder rec;
  rec.record(runtime::Phase::kPhase1, 1, 2, 100);
  rec.next_round();
  rec.record(runtime::Phase::kPhase1, 2, 1, 50);
  TraceRecorder copy{rec};
  EXPECT_EQ(copy.message_count(), 2u);
  EXPECT_EQ(copy.total_bytes(), 150u);
  TraceRecorder moved{std::move(copy)};
  EXPECT_EQ(moved.message_count(), 2u);
  EXPECT_EQ(moved.rounds(), 2u);
  TraceRecorder assigned;
  assigned = moved;
  EXPECT_EQ(assigned.total_bytes(), 150u);
}

TEST(PartyTimerThreading, ConcurrentAddsForSameParty) {
  PartyTimer timer{3};
  ThreadPool pool{4};
  pool.parallel_for(1000, [&](std::size_t i) { timer.add(i % 3, 0.001); });
  double total = 0;
  for (std::size_t p = 0; p < 3; ++p) total += timer.seconds(p);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(timer.seconds(0), timer.seconds(1), 0.01);
}

TEST(PartyTimerThreading, ScopesAccumulate) {
  PartyTimer timer{2};
  ThreadPool pool{4};
  pool.parallel_for(8, [&](std::size_t) {
    auto scope = timer.time(1);
    volatile std::size_t x = 0;
    for (std::size_t i = 0; i < 10000; ++i) x = x + i;
  });
  EXPECT_GT(timer.seconds(1), 0.0);
  EXPECT_EQ(timer.seconds(0), 0.0);
  EXPECT_GT(timer.max_participant_seconds(), 0.0);
}

}  // namespace
}  // namespace ppgr::runtime
