// net::Baton — the one-party-at-a-time scheduler behind the in-process
// launcher (DESIGN.md §5b). Pins its contract: lowest-id runnable party
// first, a blocked receive and a barrier hand the baton on, a deadlock is a
// std::logic_error naming the blocked parties (never a hang), a failing
// party unwinds every other one and the first failure in baton order is
// rethrown, and a party that ends leaves the barriers.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/channel.h"

namespace ppgr::net {
namespace {

using Bytes = std::vector<std::uint8_t>;
using Log = std::vector<std::string>;

struct Rig {
  explicit Rig(std::size_t parties)
      : baton(parties), router(parties, trace) {}

  // A receive as the party program does it: wait for the link to change.
  Task<std::uint8_t> receive(std::size_t src, std::size_t dst) {
    for (;;) {
      if (const auto p = router.try_receive(src, dst)) co_return (*p)[0];
      const std::uint64_t seen = router.link_events(src, dst);
      co_await baton.wait(dst, [this, src, dst, seen] {
        return router.link_events(src, dst) != seen;
      });
    }
  }
  Task<> next_round(std::size_t p) {
    co_await baton.barrier(p, 0, [this] { router.next_round(); });
  }
  void run(std::vector<Task<>> programs) { baton.run(programs); }

  runtime::TraceRecorder trace;
  Baton baton;
  Router router;
};

Task<> ping_pong_party(Rig& rig, std::size_t p, Log& log) {
  if (p == 0) {
    log.push_back("0 waits");
    const std::uint8_t got = co_await rig.receive(2, 0);  // hands over
    log.push_back("0 got " + std::to_string(got));
  } else if (p == 1) {
    log.push_back("1 runs");
    co_await rig.next_round(1);
    log.push_back("1 after round");
  } else {
    log.push_back("2 sends");
    rig.router.send(2, 0, Bytes{7});
    co_await rig.next_round(2);
  }
}

TEST(Baton, LowestIdRunsFirstAndReceiveHandsTheBatonOn) {
  Rig rig{3};
  Log log;
  std::vector<Task<>> programs;
  for (std::size_t p = 0; p < 3; ++p)
    programs.push_back(ping_pong_party(rig, p, log));
  rig.run(std::move(programs));
  // 0 blocks, 1 reaches the barrier, 2 sends (0 becomes runnable) and
  // arrives; 0 finishes and leaves, which completes the barrier.
  const Log want{"0 waits", "1 runs", "2 sends", "0 got 7", "1 after round"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(rig.router.round_index(), 1u);
}

Task<> deadlocked_party(Rig& rig, std::size_t p) {
  if (p == 1) co_return;  // ends without sending anything
  (void)co_await rig.receive(1, p);
}

TEST(Baton, DeadlockIsALogicErrorNamingTheBlockedParties) {
  Rig rig{3};
  std::vector<Task<>> programs;
  for (std::size_t p = 0; p < 3; ++p)
    programs.push_back(deadlocked_party(rig, p));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    rig.run(std::move(programs));
    FAIL() << "deadlock not detected";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("P0"), std::string::npos) << what;
    EXPECT_NE(what.find("P2"), std::string::npos) << what;
    EXPECT_EQ(what.find("P1"), std::string::npos) << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

Task<> failing_party(Rig& rig, std::size_t p, std::vector<std::size_t>& unwound,
                     bool& started_3) {
  try {
    if (p == 0) (void)co_await rig.receive(3, 0);  // never sent
    if (p == 1) co_await rig.next_round(1);
  } catch (const Baton::Exit&) {
    unwound.push_back(p);
    throw;
  }
  if (p == 2) throw std::runtime_error("first failure");
  if (p == 3) {
    started_3 = true;
    throw std::runtime_error("second failure");
  }
}

TEST(Baton, FirstFailureInBatonOrderUnwindsEveryParty) {
  Rig rig{4};
  std::vector<std::size_t> unwound;
  bool started_3 = false;
  std::vector<Task<>> programs;
  for (std::size_t p = 0; p < 4; ++p)
    programs.push_back(failing_party(rig, p, unwound, started_3));
  try {
    rig.run(std::move(programs));
    FAIL() << "failure not rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first failure");
  }
  EXPECT_EQ(unwound, (std::vector<std::size_t>{0, 1}));
  EXPECT_FALSE(started_3);  // a party not yet started never starts
}

Task<> rounds_party(Rig& rig, std::size_t p, std::size_t& rounds_seen) {
  if (p == 2) co_return;  // a crashed party: ends quietly, early
  for (int r = 0; r < 3; ++r) co_await rig.next_round(p);
  if (p == 0) rounds_seen = rig.router.round_index();
}

TEST(Baton, AnEndedPartyLeavesTheBarriers) {
  Rig rig{3};
  std::size_t rounds_seen = 0;
  std::vector<Task<>> programs;
  for (std::size_t p = 0; p < 3; ++p)
    programs.push_back(rounds_party(rig, p, rounds_seen));
  rig.run(std::move(programs));
  EXPECT_EQ(rounds_seen, 3u);
}

Task<> released_party(Rig& rig, std::size_t p, bool& unwound) {
  if (p == 1) {
    try {
      (void)co_await rig.receive(0, 1);  // 0 never sends to 1
    } catch (const Baton::Exit&) {
      unwound = true;
      throw;
    }
  }
  if (p == 2) rig.baton.release(1);
}

TEST(Baton, ReleasedPartyLeavesItsBlockedReceiveQuietly) {
  Rig rig{3};
  bool unwound = false;
  std::vector<Task<>> programs;
  for (std::size_t p = 0; p < 3; ++p)
    programs.push_back(released_party(rig, p, unwound));
  rig.run(std::move(programs));
  EXPECT_TRUE(unwound);
}

Task<> mismatched_party(Rig& rig, std::size_t p) {
  co_await rig.baton.barrier(p, p, [] {});  // tags 0 and 1 disagree
}

TEST(Baton, MismatchedBarriersAreALogicError) {
  Rig rig{2};
  std::vector<Task<>> programs;
  for (std::size_t p = 0; p < 2; ++p)
    programs.push_back(mismatched_party(rig, p));
  EXPECT_THROW(rig.run(std::move(programs)), std::logic_error);
}

}  // namespace
}  // namespace ppgr::net
