/** @file Event queue: ordering, determinism, cancellation, reentrancy. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace
{

using ianus::sim::EventId;
using ianus::sim::EventQueue;
using ianus::Tick;

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, SameTickReentrantScheduleFiresBeforeAdvance)
{
    EventQueue eq;
    std::vector<Tick> times;
    eq.schedule(10, [&] {
        times.push_back(eq.now());
        eq.scheduleIn(0, [&] { times.push_back(eq.now()); });
    });
    eq.schedule(20, [&] { times.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{10, 10, 20}));
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue eq;
    bool fired = false;
    auto id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id)); // double-cancel is a no-op
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunUntilLimitStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduled in the past");
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.executed(), 2u);
}

// scheduleEarly wins every same-tick tie against schedule, no matter
// which was enqueued first — that is its whole contract (the serving
// drain uses it so a lazily scheduled arrival burst lands before the
// completion handlers of the same tick pump the scheduler).
TEST(EventQueue, EarlyPhaseFiresBeforeNormalAtSameTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(1); });
    eq.scheduleEarly(100, [&] { order.push_back(-1); });
    eq.schedule(100, [&] { order.push_back(2); });
    eq.scheduleEarly(100, [&] { order.push_back(-2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, -2, 1, 2}));
}

TEST(EventQueue, EarlyPhaseKeepsInsertionOrderWithinTick)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        eq.scheduleEarly(7, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EarlyPhaseDoesNotJumpTicks)
{
    // Phase only breaks ties *within* a tick: a normal event at an
    // earlier tick still precedes an early event at a later one.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleEarly(20, [&] { order.push_back(2); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EarlyEventsCanBeDescheduled)
{
    EventQueue eq;
    int fired = 0;
    auto id = eq.scheduleEarly(5, [&] { ++fired; });
    eq.schedule(5, [&] { ++fired; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_EQ(fired, 1);
}

// A capture bigger than the inline buffer forces SmallFn onto its heap
// fallback; the callable must still move through the queue intact.
TEST(EventQueue, LargeCapturesSurviveHeapFallback)
{
    EventQueue eq;
    std::array<std::uint64_t, 16> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = i * 3 + 1;
    std::uint64_t sum = 0;
    eq.schedule(1, [payload, &sum] {
        for (std::uint64_t v : payload)
            sum += v;
    });
    eq.run();
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < payload.size(); ++i)
        expect += i * 3 + 1;
    EXPECT_EQ(sum, expect);
}

// A freed slot is reused by the next event; ids naming the slot's old
// occupant are dead and must neither cancel nor be confused with the new
// one, and the old occupant's stale heap key must not fire the new one.
TEST(EventQueue, SlotReuseKeepsOldIdsDead)
{
    EventQueue eq;
    std::vector<std::pair<int, Tick>> fired;
    EventId a = eq.schedule(10, [&] { fired.push_back({0, eq.now()}); });
    ASSERT_TRUE(eq.deschedule(a));
    EventId b = eq.schedule(20, [&] { fired.push_back({1, eq.now()}); });
    EXPECT_NE(a, b);
    EXPECT_FALSE(eq.deschedule(a)); // cancelled id, slot now b's
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, (std::vector<std::pair<int, Tick>>{{1, 20}}));
    EXPECT_FALSE(eq.deschedule(b)); // fired

    EventId c = eq.schedule(30, [&] { fired.push_back({2, eq.now()}); });
    EXPECT_FALSE(eq.deschedule(b)); // fired id, slot now c's
    EXPECT_TRUE(eq.deschedule(c));
    EXPECT_FALSE(eq.deschedule(0));
    eq.run();
    EXPECT_EQ(fired.size(), 1u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunningEventCannotCancelItself)
{
    EventQueue eq;
    EventId self = 0;
    bool cancelled = true;
    self = eq.schedule(5, [&] { cancelled = eq.deschedule(self); });
    eq.run();
    EXPECT_FALSE(cancelled);
    EXPECT_EQ(eq.executed(), 1u);
}

/**
 * Differential test against a reference that keeps every event in a
 * flat list and fires the least (tick, phase, insertion order) live one.
 * Events schedule, early-schedule and cancel further events from their
 * callbacks; every decision is drawn from a stream seeded by the event's
 * label (its insertion index), so both queues see the same calls for as
 * long as they agree.
 */
class EventQueueDifferential : public ::testing::TestWithParam<unsigned>
{
  protected:
    /** A fire (label, tick, events left pending) or a cancel
     *  (-1 - label, returned value, 0). */
    using Step = std::tuple<std::int64_t, std::uint64_t, std::uint64_t>;
    using Trace = std::vector<Step>;
    using Sched = std::function<void(Tick when, bool early)>;
    using Cancel = std::function<bool(int label)>;

    static constexpr int kMaxLabels = 4000;

    /** The calls event @p label (-1: start-up) makes when it fires. */
    static void
    act(unsigned seed, int label, int scheduled, Tick now,
        const Sched &sched, const Cancel &cancel, Trace &trace)
    {
        std::mt19937 rng(seed * 1000003u + static_cast<unsigned>(label + 1));
        int spawn = label < 0 ? 40 : static_cast<int>(rng() % 4);
        spawn = std::min(spawn, kMaxLabels - scheduled);
        for (int k = 0; k < spawn; ++k) {
            Tick when = now + rng() % 6; // small range: many ties
            sched(when, rng() % 4 == 0);
        }
        if (rng() % 2 == 0) {
            // Any label so far: pending, fired, cancelled, or the
            // running event itself.
            int target = static_cast<int>(
                rng() % static_cast<unsigned>(scheduled + spawn));
            trace.push_back({-1 - target, cancel(target) ? 1 : 0, 0});
        }
    }

    static Trace
    runReal(unsigned seed)
    {
        EventQueue eq;
        std::vector<EventId> ids;
        Trace trace;
        Sched sched;
        Cancel cancel = [&](int label) { return eq.deschedule(ids[label]); };
        sched = [&](Tick when, bool early) {
            int label = static_cast<int>(ids.size());
            auto fn = [&, label] {
                trace.push_back({label, eq.now(), eq.pending()});
                act(seed, label, static_cast<int>(ids.size()), eq.now(),
                    sched, cancel, trace);
            };
            ids.push_back(early ? eq.scheduleEarly(when, fn)
                                : eq.schedule(when, fn));
        };
        act(seed, -1, 0, 0, sched, cancel, trace);
        // Odd seeds pop one event at a time, as the execution engine
        // does; even seeds run in windows, as a bounded run() does.
        if (seed % 2) {
            while (eq.step()) {
            }
        } else {
            for (Tick limit = 0; !eq.empty(); limit += 3)
                eq.run(limit);
        }
        EXPECT_FALSE(eq.step());
        EXPECT_EQ(eq.pending(), 0u);
        return trace;
    }

    static Trace
    runReference(unsigned seed)
    {
        struct Ev
        {
            Tick when;
            int phase;
            bool live;
        };
        std::vector<Ev> evs; // index = label = insertion order
        Trace trace;
        Sched sched = [&](Tick when, bool early) {
            evs.push_back({when, early ? 0 : 1, true});
        };
        Cancel cancel = [&](int label) {
            bool was = evs[label].live;
            evs[label].live = false;
            return was;
        };
        act(seed, -1, 0, 0, sched, cancel, trace);
        for (;;) {
            int best = -1;
            std::uint64_t live = 0;
            for (int i = 0; i < static_cast<int>(evs.size()); ++i) {
                const Ev &e = evs[i];
                if (!e.live)
                    continue;
                ++live;
                if (best < 0 || e.when < evs[best].when ||
                    (e.when == evs[best].when && e.phase < evs[best].phase))
                    best = i;
            }
            if (best < 0)
                break;
            evs[best].live = false;
            trace.push_back({best, evs[best].when, live - 1});
            act(seed, best, static_cast<int>(evs.size()), evs[best].when,
                sched, cancel, trace);
        }
        return trace;
    }
};

TEST_P(EventQueueDifferential, MatchesReferenceOrder)
{
    Trace real = runReal(GetParam());
    Trace ref = runReference(GetParam());
    ASSERT_EQ(real.size(), ref.size());
    for (std::size_t i = 0; i < real.size(); ++i)
        ASSERT_EQ(real[i], ref[i]) << "step " << i;
    // The run exercised cancellation both ways and reached the cap.
    std::size_t ok = 0, refused = 0, fired = 0;
    for (const auto &[what, v, pending] : real) {
        if (what < 0)
            (v ? ok : refused) += 1;
        else
            ++fired;
    }
    EXPECT_GT(ok, 0u);
    EXPECT_GT(refused, 0u);
    EXPECT_GT(fired, kMaxLabels / 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Range(1u, 9u));

} // namespace
