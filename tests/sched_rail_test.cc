/**
 * @file
 * SchedRail tests: disarmed-rail transparency, seeded-schedule
 * determinism (same seed, byte-identical trace), record/replay
 * round-trips (in memory and through the trace-file format), the
 * bounded-preemption DFS explorer against a planted lost-update bug,
 * deterministic deadline firing, AB/BA deadlock detection with
 * episode abort, the lock-order graph (cycle detection and the
 * /proc/cider/lockorder device node), and a seed sweep over a
 * psynch producer/consumer scenario that writes failing schedules
 * out as replayable artifacts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ducttape/xnu_api.h"
#include "hw/device_profile.h"
#include "kernel/file.h"
#include "kernel/kernel.h"
#include "kernel/sched_rail.h"
#include "xnu/kern_return.h"
#include "xnu/psynch.h"

namespace cider::kernel {
namespace {

using xnu::kern_return_t;
using xnu::KERN_OPERATION_TIMED_OUT;
using xnu::KERN_SUCCESS;

/** Every test leaves the global rail disarmed and the graph clean. */
class SchedRailTest : public ::testing::Test
{
  protected:
    SchedRailTest() { clean(); }
    ~SchedRailTest() override { clean(); }

    static void
    clean()
    {
        SchedRail &sr = SchedRail::global();
        sr.disarm();
        sr.lockGraph().setTracking(false);
        sr.lockGraph().reset();
    }

    SchedRail &rail_ = SchedRail::global();
};

// ---------------------------------------------------------------------------
// Scenario: two producers and one consumer hand eight items across a
// psynch mutex + semaphore. Correct under *every* schedule, so any
// invariant failure in the sweep is a kernel bug, not test flake.

constexpr std::uint64_t kMutexAddr = 0x1000;
constexpr std::uint64_t kSemAddr = 0x2000;

struct HandoffOutcome
{
    SchedResult result;
    int consumed = 0;
    bool invariantOk = false;
};

HandoffOutcome
runHandoff(SchedPolicy policy, std::uint64_t seed,
           std::vector<std::uint32_t> schedule = {})
{
    SchedRail &sr = SchedRail::global();
    SchedOptions opt;
    opt.policy = policy;
    opt.seed = seed;
    opt.schedule = std::move(schedule);
    sr.arm(opt);

    xnu::PsynchSubsystem ps;
    ps.semInit(kSemAddr, 0);
    std::vector<int> buf;
    int consumed = 0;

    for (int p = 0; p < 2; ++p) {
        sr.spawn(p == 0 ? "prodA" : "prodB", [&ps, &buf, p] {
            for (int i = 0; i < 4; ++i) {
                ps.mutexWait(kMutexAddr, 10 + static_cast<std::uint64_t>(p));
                buf.push_back(p * 100 + i);
                ps.mutexDrop(kMutexAddr, 10 + static_cast<std::uint64_t>(p));
                ps.semSignal(kSemAddr);
            }
        });
    }
    sr.spawn("consumer", [&ps, &buf, &consumed] {
        for (int i = 0; i < 8; ++i) {
            ps.semWait(kSemAddr);
            ps.mutexWait(kMutexAddr, 30);
            if (!buf.empty()) {
                buf.pop_back();
                ++consumed;
            }
            ps.mutexDrop(kMutexAddr, 30);
        }
    });

    HandoffOutcome out;
    out.result = sr.run();
    sr.disarm();
    out.consumed = consumed;
    out.invariantOk = out.result.completed && !out.result.deadlocked &&
                      consumed == 8 && buf.empty();
    return out;
}

// ---------------------------------------------------------------------------
// Disarmed transparency

TEST_F(SchedRailTest, DisarmedYieldPointsAreNoops)
{
    EXPECT_FALSE(rail_.engaged());
    EXPECT_EQ(SchedRail::guestMarker(), nullptr);
    // Must be safe (and free) from any non-guest thread.
    CIDER_SCHED_POINT("test.disarmed");
    rail_.yieldPoint("test.disarmed");
    rail_.pass("test.disarmed");
    rail_.wakeupChannel(&rail_, true);
}

// ---------------------------------------------------------------------------
// Satellite 1: determinism, record/replay, explorer

TEST_F(SchedRailTest, SameSeedProducesByteIdenticalTrace)
{
    HandoffOutcome a = runHandoff(SchedPolicy::Random, 42);
    HandoffOutcome b = runHandoff(SchedPolicy::Random, 42);
    ASSERT_TRUE(a.invariantOk) << a.result.traceText();
    ASSERT_TRUE(b.invariantOk) << b.result.traceText();
    EXPECT_GT(a.result.decisions, 10u);
    EXPECT_EQ(a.result.traceText(), b.result.traceText());
    EXPECT_EQ(a.result.schedule(), b.result.schedule());
}

TEST_F(SchedRailTest, DifferentSeedsExerciseDifferentSchedules)
{
    std::set<std::string> traces;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        HandoffOutcome o = runHandoff(SchedPolicy::Random, seed);
        ASSERT_TRUE(o.invariantOk)
            << "seed " << seed << "\n"
            << o.result.traceText();
        traces.insert(o.result.traceText());
    }
    EXPECT_GE(traces.size(), 2u);
}

TEST_F(SchedRailTest, RecordedScheduleReplaysByteIdentically)
{
    HandoffOutcome rec = runHandoff(SchedPolicy::Random, 7);
    ASSERT_TRUE(rec.invariantOk) << rec.result.traceText();

    HandoffOutcome rep =
        runHandoff(SchedPolicy::Replay, 0, rec.result.schedule());
    EXPECT_FALSE(rep.result.diverged);
    EXPECT_TRUE(rep.invariantOk) << rep.result.traceText();
    EXPECT_EQ(rec.result.traceText(), rep.result.traceText());
}

TEST_F(SchedRailTest, TraceFileRoundTripsThroughParseSchedule)
{
    HandoffOutcome rec = runHandoff(SchedPolicy::Random, 11);
    ASSERT_TRUE(rec.invariantOk);

    const std::string path = "sched_rail_roundtrip.trace";
    ASSERT_TRUE(rec.result.writeTrace(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    EXPECT_EQ(text, rec.result.traceText());
    EXPECT_EQ(text.rfind("# schedrail trace v1\n", 0), 0u);

    EXPECT_EQ(SchedResult::parseSchedule(text), rec.result.schedule());
    std::remove(path.c_str());
}

TEST_F(SchedRailTest, ExplorerFindsPlantedLostUpdateWithinBound)
{
    int shared = 0;
    auto setup = [this, &shared] {
        shared = 0;
        for (int g = 0; g < 2; ++g) {
            rail_.spawn(g == 0 ? "inc0" : "inc1", [&shared] {
                int v = shared; // planted non-atomic increment
                SchedRail::global().yieldPoint("test.racy");
                shared = v + 1;
            });
        }
    };
    auto ok = [&shared] { return shared == 2; };

    // The lost update needs one preemption inside the read-modify-
    // write window; with a bound of zero the explorer must miss it...
    ExploreOptions none;
    none.maxPreemptions = 0;
    ExploreResult r0 = exploreSchedules(rail_, setup, ok, none);
    EXPECT_FALSE(r0.bugFound);
    EXPECT_FALSE(r0.exhausted);

    // ...and with a bound of one it must find it.
    ExploreOptions one;
    one.maxPreemptions = 1;
    ExploreResult r1 = exploreSchedules(rail_, setup, ok, one);
    ASSERT_TRUE(r1.bugFound);
    EXPECT_FALSE(r1.failing.deadlocked);
    ASSERT_FALSE(r1.failingSchedule.empty());

    // The failing schedule is a replayable artifact: feeding it back
    // through Replay reproduces the bug deterministically.
    SchedOptions so;
    so.policy = SchedPolicy::Replay;
    so.schedule = r1.failingSchedule;
    rail_.arm(so);
    setup();
    SchedResult rep = rail_.run();
    rail_.disarm();
    EXPECT_FALSE(rep.diverged);
    EXPECT_TRUE(rep.completed);
    EXPECT_NE(shared, 2);
    EXPECT_EQ(rep.traceText(), r1.failing.traceText());
}

// ---------------------------------------------------------------------------
// Deadline determinism: scheduling a deadline-blocked guest IS the
// timeout firing, so timed waits are schedule-controlled, not
// host-timing-controlled.

TEST_F(SchedRailTest, DeadlineFiresDeterministicallyWhenNothingElseRuns)
{
    std::string traces[2];
    for (int round = 0; round < 2; ++round) {
        SchedOptions so;
        so.policy = SchedPolicy::Random;
        so.seed = 3;
        rail_.arm(so);
        xnu::PsynchSubsystem ps;
        kern_return_t kr = KERN_SUCCESS;
        rail_.spawn("timed", [&ps, &kr] {
            kr = ps.semWaitDeadline(0x3000, 500);
        });
        SchedResult r = rail_.run();
        rail_.disarm();
        ASSERT_TRUE(r.completed) << r.traceText();
        EXPECT_EQ(kr, KERN_OPERATION_TIMED_OUT);
        bool fired = false;
        for (const SchedEvent &ev : r.trace)
            fired = fired || ev.timeoutFired;
        EXPECT_TRUE(fired);
        EXPECT_NE(r.traceText().find("!"), std::string::npos);
        traces[round] = r.traceText();
    }
    EXPECT_EQ(traces[0], traces[1]);
}

TEST_F(SchedRailTest, WakeupBeforeDeadlineSuppressesTheTimeout)
{
    // Explore with an empty prefix: deterministic defaults prefer a
    // Ready guest over firing a deadline, so the signaller always
    // lands its wakeup first.
    SchedOptions so;
    so.policy = SchedPolicy::Explore;
    rail_.arm(so);
    xnu::PsynchSubsystem ps;
    kern_return_t kr = KERN_OPERATION_TIMED_OUT;
    rail_.spawn("waiter", [&ps, &kr] {
        kr = ps.semWaitDeadline(0x3000, 1000000);
    });
    rail_.spawn("signaller", [&ps] { ps.semSignal(0x3000); });
    SchedResult r = rail_.run();
    rail_.disarm();
    ASSERT_TRUE(r.completed) << r.traceText();
    EXPECT_EQ(kr, KERN_SUCCESS);
    for (const SchedEvent &ev : r.trace)
        EXPECT_FALSE(ev.timeoutFired);
}

// ---------------------------------------------------------------------------
// Deadlock detection + lock-order graph

TEST_F(SchedRailTest, ExplorerFindsAbBaDeadlockAndRecordsLockCycle)
{
    rail_.lockGraph().setTracking(true);

    // Aborted guests leave their LckMtx logically owned; collect and
    // free them only after the whole exploration is done.
    std::vector<ducttape::LckMtx *> trash;
    ducttape::LckMtx *a = nullptr;
    ducttape::LckMtx *b = nullptr;
    auto setup = [this, &trash, &a, &b] {
        a = ducttape::lck_mtx_alloc_init("lockA");
        b = ducttape::lck_mtx_alloc_init("lockB");
        trash.push_back(a);
        trash.push_back(b);
        rail_.spawn("ab", [&a, &b] {
            ducttape::lck_mtx_lock(a);
            SchedRail::global().yieldPoint("test.ab");
            ducttape::lck_mtx_lock(b);
            ducttape::lck_mtx_unlock(b);
            ducttape::lck_mtx_unlock(a);
        });
        rail_.spawn("ba", [&a, &b] {
            ducttape::lck_mtx_lock(b);
            SchedRail::global().yieldPoint("test.ba");
            ducttape::lck_mtx_lock(a);
            ducttape::lck_mtx_unlock(a);
            ducttape::lck_mtx_unlock(b);
        });
    };

    ExploreOptions eo;
    eo.maxPreemptions = 1;
    ExploreResult r =
        exploreSchedules(rail_, setup, [] { return true; }, eo);
    ASSERT_TRUE(r.bugFound);
    EXPECT_TRUE(r.failing.deadlocked);
    EXPECT_FALSE(r.failing.completed);
    ASSERT_EQ(r.failing.blockedThreads.size(), 2u);
    for (const std::string &bt : r.failing.blockedThreads)
        EXPECT_NE(bt.find("lck.contended"), std::string::npos) << bt;

    // The inversion that produced the deadlock is a cycle in the
    // lock-order graph, visible even on runs that did not deadlock.
    std::vector<std::string> cyc = rail_.lockGraph().cycles();
    bool sawAbBa = false;
    for (const std::string &c : cyc)
        sawAbBa = sawAbBa ||
                  (c.find("lockA") != std::string::npos &&
                   c.find("lockB") != std::string::npos);
    EXPECT_TRUE(sawAbBa) << rail_.lockGraph().dump();

    rail_.lockGraph().setTracking(false);
    rail_.lockGraph().reset();
    for (ducttape::LckMtx *m : trash)
        ducttape::lck_mtx_free(m);
}

TEST_F(SchedRailTest, LockOrderCycleDetectedWithoutAnyDeadlock)
{
    // A->B then B->A in sequence never deadlocks, but the graph still
    // reports the latent cycle. One rail guest runs the sequence: its
    // lck_mtx ownership is logical, so no host mutex is inverted and
    // ThreadSanitizer's own lock-order check has nothing to flag.
    rail_.lockGraph().setTracking(true);
    ducttape::LckMtx *a = ducttape::lck_mtx_alloc_init("seqA");
    ducttape::LckMtx *b = ducttape::lck_mtx_alloc_init("seqB");

    rail_.arm(SchedOptions{});
    rail_.spawn("seq", [a, b] {
        ducttape::lck_mtx_lock(a);
        ducttape::lck_mtx_lock(b);
        ducttape::lck_mtx_unlock(b);
        ducttape::lck_mtx_unlock(a);

        ducttape::lck_mtx_lock(b);
        ducttape::lck_mtx_lock(a);
        ducttape::lck_mtx_unlock(a);
        ducttape::lck_mtx_unlock(b);
    });
    SchedResult r = rail_.run();
    rail_.disarm();
    ASSERT_TRUE(r.completed) << r.traceText();
    EXPECT_FALSE(r.deadlocked);

    rail_.lockGraph().setTracking(false);
    EXPECT_EQ(rail_.lockGraph().nodeCount(), 2u);
    EXPECT_EQ(rail_.lockGraph().edgeCount(), 2u);
    std::vector<std::string> cyc = rail_.lockGraph().cycles();
    ASSERT_FALSE(cyc.empty()) << rail_.lockGraph().dump();
    EXPECT_NE(cyc.front().find("seqA"), std::string::npos);
    EXPECT_NE(cyc.front().find("seqB"), std::string::npos);

    rail_.lockGraph().reset();
    ducttape::lck_mtx_free(a);
    ducttape::lck_mtx_free(b);
}

TEST_F(SchedRailTest, ProcLockorderNodeIsReadable)
{
    // Populate one edge so the dump has content.
    rail_.lockGraph().setTracking(true);
    ducttape::LckMtx *a = ducttape::lck_mtx_alloc_init("procA");
    ducttape::LckMtx *b = ducttape::lck_mtx_alloc_init("procB");
    ducttape::lck_mtx_lock(a);
    ducttape::lck_mtx_lock(b);
    ducttape::lck_mtx_unlock(b);
    ducttape::lck_mtx_unlock(a);
    rail_.lockGraph().setTracking(false);

    Kernel kernel(hw::DeviceProfile::nexus7());
    Process &proc = kernel.createProcess("droid", Persona::Android);
    Thread &t = proc.mainThread();
    ThreadScope scope(t);
    SyscallResult r =
        kernel.sysOpen(t, "/proc/cider/lockorder", oflag::RDONLY);
    ASSERT_TRUE(r.ok());
    Fd fd = static_cast<Fd>(r.value);
    Bytes buf;
    r = kernel.sysRead(t, fd, buf, 65536);
    ASSERT_TRUE(r.ok());
    std::string text(buf.begin(), buf.end());
    EXPECT_NE(text.find("=== cider lockorder ==="), std::string::npos);
    EXPECT_NE(text.find("procA -> procB"), std::string::npos);
    EXPECT_NE(text.find("cycles: 0"), std::string::npos);
    kernel.sysClose(t, fd);

    rail_.lockGraph().reset();
    ducttape::lck_mtx_free(a);
    ducttape::lck_mtx_free(b);
}

// ---------------------------------------------------------------------------
// Randomized sweep: CI cranks CIDER_SCHED_SWEEP_SEEDS to 500; failing
// schedules land in sched_traces/ as replayable artifacts.

TEST_F(SchedRailTest, RandomSweepPreservesHandoffInvariant)
{
    int seeds = 25;
    if (const char *env = std::getenv("CIDER_SCHED_SWEEP_SEEDS")) {
        int v = std::atoi(env);
        if (v > 0)
            seeds = v;
    }
    for (int seed = 0; seed < seeds; ++seed) {
        HandoffOutcome o =
            runHandoff(SchedPolicy::Random, static_cast<std::uint64_t>(seed));
        if (!o.invariantOk) {
            std::filesystem::create_directories("sched_traces");
            const std::string path = "sched_traces/handoff_seed_" +
                                     std::to_string(seed) + ".trace";
            o.result.writeTrace(path);
            ADD_FAILURE() << "handoff invariant violated at seed " << seed
                          << " (consumed " << o.consumed
                          << "), trace written to " << path << "\n"
                          << o.result.traceText();
        }
    }
}

} // namespace
} // namespace cider::kernel
