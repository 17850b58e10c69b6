/**
 * @file
 * Tests for the timing-wheel event queue: a randomized differential
 * test against the retired binary-heap implementation (the oracle), a
 * zero-steady-state-allocation lock-in for the arena + small-buffer
 * closures, and regression tests for the wheel-specific machinery
 * (cascades, far map, handle generations, label interning).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/closure.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/random.h"
#include "sim/reference_event_queue.h"
#include "sim/ticks.h"

// ---------------------------------------------------------------------
// Global allocation counter. Only the deltas measured inside
// ZeroAllocationSteadyState matter; everything else just passes
// through to malloc/free.

static std::atomic<std::uint64_t> g_allocCount{0};

static void *
countedAlloc(std::size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    ++g_allocCount;
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(a),
                                     (n + static_cast<std::size_t>(a) - 1) &
                                         ~(static_cast<std::size_t>(a) - 1)))
        return p;
    throw std::bad_alloc();
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return operator new(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace svtsim {
namespace {

// ------------------------------------------------------- EventClosure

TEST(EventClosure, SmallCaptureStaysInline)
{
    int hits = 0;
    int *p = &hits;
    EventClosure c([p] { ++*p; });
    EXPECT_TRUE(c.storedInline());
    c();
    c();
    EXPECT_EQ(hits, 2);
}

TEST(EventClosure, LargeCaptureFallsBackToHeap)
{
    struct Big
    {
        char pad[128];
    } big = {};
    int hits = 0;
    int *p = &hits;
    EventClosure c([p, big] {
        ++*p;
        (void)big;
    });
    EXPECT_FALSE(c.storedInline());
    c();
    EXPECT_EQ(hits, 1);
}

TEST(EventClosure, ResetReleasesCapturedResources)
{
    auto token = std::make_shared<int>(7);
    EventClosure c([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    c.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_FALSE(static_cast<bool>(c));
}

TEST(EventClosure, MoveTransfersOwnership)
{
    auto token = std::make_shared<int>(7);
    EventClosure a([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    EventClosure b(std::move(a));
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b.reset();
    EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------- differential vs oracle

/**
 * One pre-generated operation, replayed identically against both
 * queue implementations. Closures log (tag, fire-time) pairs and may
 * schedule a chained follow-up, so the test also covers events
 * scheduled from inside handlers.
 */
struct Op
{
    enum Kind
    {
        Schedule,     ///< scheduleIn(delta), possibly chained
        Cancel,       ///< deschedule the handle from schedule op a
        AdvanceBy,    ///< advanceBy(delta)
        RunNext,      ///< runNext()
        RunUntil,     ///< runUntil(executed >= current + a)
        CheckNext,    ///< compare nextEventTime()
    };
    Kind kind;
    Ticks delta = 0;
    std::size_t a = 0;
    int chain = 0;
};

template <class Q, class Id>
struct Driver
{
    Q q;
    std::vector<Id> handles;
    std::vector<std::pair<int, Ticks>> log;
    int nextTag = 0;

    void
    scheduleChained(Ticks delta, int chain)
    {
        const int tag = nextTag++;
        handles.push_back(q.scheduleIn(delta, [this, tag, chain] {
            log.emplace_back(tag, q.now());
            if (chain > 0) {
                // Deterministic follow-up delta derived from the tag.
                const Ticks d =
                    static_cast<Ticks>((tag * 2654435761u) % 100000);
                scheduleChained(d, chain - 1);
            }
        }));
    }
};

TEST(EventWheelDifferential, MatchesReferenceHeapOnRandomOps)
{
    // ~1e6 operations overall: 16 trials x 32k ops, plus the chained
    // events the closures schedule and the end-of-trial drain.
    const int trials = 16;
    const int opsPerTrial = 32768;
    Rng rng(20260808);

    for (int trial = 0; trial < trials; ++trial) {
        std::vector<Op> ops;
        ops.reserve(static_cast<std::size_t>(opsPerTrial));
        std::size_t scheduled = 0;
        for (int i = 0; i < opsPerTrial; ++i) {
            const double roll = rng.uniform();
            Op op;
            if (roll < 0.45 || scheduled == 0) {
                op.kind = Op::Schedule;
                // Mix of distances: same-tick, level-0, mid-wheel,
                // high-wheel, and (rarely) beyond the far horizon.
                const double d = rng.uniform();
                if (d < 0.10)
                    op.delta = 0;
                else if (d < 0.45)
                    op.delta = static_cast<Ticks>(rng.below(256));
                else if (d < 0.75)
                    op.delta = static_cast<Ticks>(rng.below(1u << 16));
                else if (d < 0.92)
                    op.delta = static_cast<Ticks>(rng.below(1u << 24));
                else if (d < 0.99)
                    op.delta = static_cast<Ticks>(rng.below(1u << 30))
                               << 18;
                else
                    op.delta = maxTick; // saturating far/"infinite"
                op.chain = rng.chance(0.15) ? 2 : 0;
                ++scheduled;
            } else if (roll < 0.70) {
                op.kind = Op::Cancel;
                op.a = rng.below(scheduled);
            } else if (roll < 0.90) {
                op.kind = Op::AdvanceBy;
                const double d = rng.uniform();
                if (d < 0.5)
                    op.delta = static_cast<Ticks>(rng.below(4096));
                else if (d < 0.9)
                    op.delta = static_cast<Ticks>(rng.below(1u << 20));
                else
                    op.delta = static_cast<Ticks>(rng.below(1u << 28));
            } else if (roll < 0.94) {
                op.kind = Op::RunNext;
            } else if (roll < 0.97) {
                op.kind = Op::RunUntil;
                op.a = 1 + rng.below(4);
            } else {
                op.kind = Op::CheckNext;
            }
            ops.push_back(op);
        }

        Driver<EventQueue, EventId> wheel;
        Driver<ReferenceEventQueue, ReferenceEventId> oracle;

        for (const Op &op : ops) {
            switch (op.kind) {
            case Op::Schedule:
                wheel.scheduleChained(op.delta, op.chain);
                oracle.scheduleChained(op.delta, op.chain);
                break;
            case Op::Cancel: {
                const bool a = wheel.q.deschedule(wheel.handles[op.a]);
                const bool b =
                    oracle.q.deschedule(oracle.handles[op.a]);
                ASSERT_EQ(a, b);
                break;
            }
            case Op::AdvanceBy:
                wheel.q.advanceBy(op.delta);
                oracle.q.advanceBy(op.delta);
                break;
            case Op::RunNext:
                ASSERT_EQ(wheel.q.runNext(), oracle.q.runNext());
                break;
            case Op::RunUntil: {
                const std::uint64_t targetW =
                    wheel.q.executedCount() + op.a;
                const std::uint64_t targetO =
                    oracle.q.executedCount() + op.a;
                ASSERT_EQ(wheel.q.runUntil([&] {
                    return wheel.q.executedCount() >= targetW;
                }),
                          oracle.q.runUntil([&] {
                              return oracle.q.executedCount() >=
                                     targetO;
                          }));
                break;
            }
            case Op::CheckNext:
                ASSERT_EQ(wheel.q.nextEventTime(),
                          oracle.q.nextEventTime());
                break;
            }
            ASSERT_EQ(wheel.q.now(), oracle.q.now());
            ASSERT_EQ(wheel.q.size(), oracle.q.size());
            ASSERT_EQ(wheel.q.empty(), oracle.q.empty());
            ASSERT_EQ(wheel.q.executedCount(),
                      oracle.q.executedCount());
            ASSERT_EQ(wheel.log.size(), oracle.log.size());
        }

        // Drain both completely (fires the far/maxTick stragglers) and
        // require identical fire order and now() trajectory.
        wheel.q.advanceTo(maxTick);
        oracle.q.advanceTo(maxTick);
        ASSERT_TRUE(wheel.q.empty());
        ASSERT_TRUE(oracle.q.empty());
        ASSERT_EQ(wheel.q.executedCount(), oracle.q.executedCount());
        ASSERT_EQ(wheel.log, oracle.log)
            << "fire order diverged in trial " << trial;

        // pending() agrees for every handle ever issued.
        for (std::size_t i = 0; i < wheel.handles.size(); ++i)
            ASSERT_EQ(wheel.q.pending(wheel.handles[i]),
                      oracle.q.pending(oracle.handles[i]));
    }
}

// ------------------------------------------------- zero-alloc lock-in

TEST(EventWheel, ZeroAllocationSteadyState)
{
    EventQueue eq;
    // Warm-up: grow the arena past the steady-state live-event
    // high-water mark and intern every label the loop uses.
    for (int i = 0; i < 1024; ++i)
        eq.scheduleIn(nsec(1 + i % 7), [] {}, "wheel-warm-tick");
    eq.scheduleIn(msec(1), [] {}, "wheel-warm-watchdog");
    eq.advanceBy(msec(2));
    ASSERT_TRUE(eq.empty());

    // Steady state: watchdog-style schedule/cancel churn plus a burst
    // of short timers per iteration, all fired. The arena freelist,
    // inline closures and interned labels make this malloc-free.
    const std::uint64_t before = g_allocCount.load();
    std::uint64_t fired = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        EventId watchdog =
            eq.scheduleIn(msec(5), [] {}, "wheel-warm-watchdog");
        for (int j = 0; j < 8; ++j)
            eq.scheduleIn(nsec(100 * (j + 1)),
                          [&fired] { ++fired; }, "wheel-warm-tick");
        eq.advanceBy(usec(1));
        eq.deschedule(watchdog);
    }
    eq.advanceBy(msec(10));
    const std::uint64_t after = g_allocCount.load();
    EXPECT_EQ(after - before, 0u)
        << "steady-state schedule/cancel/fire cycle allocated";
    EXPECT_EQ(fired, 20000u * 8u);
    EXPECT_TRUE(eq.empty());
}

// ------------------------------------- cancel-everything consistency

TEST(EventWheel, CancelEverythingKeepsAccessorsConsistent)
{
    // Regression: with the lazy-deletion heap, a queue holding nothing
    // but cancelled entries said empty() while nextEventTime() still
    // surfaced stale heap debris until something pruned it. Eager
    // removal makes all accessors agree by construction; lock that in.
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(eq.scheduleIn(nsec(i + 1), [] {}));
    for (EventId id : ids)
        EXPECT_TRUE(eq.deschedule(id));

    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_EQ(eq.nextEventTime(), maxTick);
    EXPECT_FALSE(eq.runNext());
    EXPECT_FALSE(eq.runUntil([] { return false; }));
    eq.advanceBy(usec(1));
    EXPECT_EQ(eq.executedCount(), 0u);

    // The queue stays fully usable afterwards.
    bool ran = false;
    eq.scheduleIn(nsec(5), [&] { ran = true; });
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.nextEventTime(), eq.now() + nsec(5));
    eq.advanceBy(nsec(10));
    EXPECT_TRUE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventWheel, RunUntilOnCancelledOnlyQueueReturnsImmediately)
{
    EventQueue eq;
    EventId a = eq.scheduleIn(nsec(10), [] {});
    EventId b = eq.scheduleIn(usec(10), [] {});
    eq.deschedule(a);
    eq.deschedule(b);
    int predCalls = 0;
    EXPECT_FALSE(eq.runUntil([&] {
        ++predCalls;
        return false;
    }));
    // Initial evaluation only: nothing to run.
    EXPECT_EQ(predCalls, 1);
    EXPECT_EQ(eq.now(), 0);
}

// --------------------------------------------- overflow saturation

TEST(EventWheel, ScheduleInSaturatesAtMaxTick)
{
    // Regression: now_ + delta used to overflow signed int64 (UB) for
    // maxTick-style timeout deltas and then panic with a nonsense
    // timestamp. It saturates now.
    EventQueue eq;
    eq.advanceBy(usec(3));
    EventId id = eq.scheduleIn(maxTick, [] {});
    EXPECT_TRUE(eq.pending(id));
    EXPECT_EQ(eq.nextEventTime(), maxTick);
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_TRUE(eq.empty());
}

TEST(EventWheel, AdvanceBySaturatesAtMaxTick)
{
    EventQueue eq;
    eq.advanceBy(usec(1));
    bool ran = false;
    eq.scheduleIn(maxTick, [&] { ran = true; });
    eq.advanceBy(maxTick); // would overflow pre-fix
    EXPECT_EQ(eq.now(), maxTick);
    EXPECT_TRUE(ran); // a saturated advance reaches saturated timers
    eq.advanceBy(maxTick); // idempotent at the rail
    EXPECT_EQ(eq.now(), maxTick);
}

TEST(EventWheel, NegativeDeltaStillPanics)
{
    EventQueue eq;
    eq.advanceBy(usec(1));
    EXPECT_THROW(eq.scheduleIn(-5, [] {}), PanicError);
}

// ------------------------------------------------- wheel mechanics

TEST(EventWheel, SameTickFifoAcrossCascadeBoundaries)
{
    // Two events at the same tick, scheduled from different distances:
    // the first travels through upper wheel levels and cascades down,
    // the second is inserted directly into the level-0 slot after time
    // has advanced close to the target. Seq order must survive.
    EventQueue eq;
    std::vector<int> order;
    const Ticks target = usec(300); // 3e8 ticks: enters at level 3
    eq.schedule(target, [&] { order.push_back(1); });
    eq.advanceTo(target - nsec(50));
    eq.schedule(target, [&] { order.push_back(2); }); // level 0/1 direct
    eq.schedule(target, [&] { order.push_back(3); });
    eq.advanceTo(target + 1);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventWheel, FarHorizonEventsFireInOrder)
{
    EventQueue eq;
    std::vector<int> order;
    const Ticks beyond = static_cast<Ticks>(1) << 57; // past the wheel
    eq.schedule(beyond + 5, [&] { order.push_back(2); });
    eq.schedule(beyond, [&] { order.push_back(1); });
    eq.schedule(maxTick, [&] { order.push_back(3); });
    EXPECT_EQ(eq.nextEventTime(), beyond);
    EXPECT_EQ(eq.size(), 3u);
    eq.advanceTo(beyond + 5);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.nextEventTime(), maxTick);
    eq.advanceTo(maxTick);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventWheel, StaleHandleDoesNotAliasRecycledRecord)
{
    EventQueue eq;
    bool firstRan = false, secondRan = false;
    EventId a = eq.scheduleIn(nsec(1), [&] { firstRan = true; });
    eq.advanceBy(nsec(2));
    EXPECT_TRUE(firstRan);
    EXPECT_FALSE(eq.pending(a));
    // The arena slot is recycled by the next schedule; the stale
    // handle must not reach the new tenant.
    EventId b = eq.scheduleIn(nsec(5), [&] { secondRan = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(eq.pending(a));
    EXPECT_FALSE(eq.deschedule(a));
    EXPECT_TRUE(eq.pending(b));
    eq.advanceBy(nsec(10));
    EXPECT_TRUE(secondRan);
}

TEST(EventWheel, LabelsAreInternedOnce)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(eq.scheduleIn(nsec(i + 1), [] {}, "ipi"));
    EventId other = eq.scheduleIn(usec(1), [] {}, "tsc-deadline");
    EXPECT_EQ(eq.internedLabelCount(), 2u);
    EXPECT_EQ(eq.eventLabel(ids[0]), "ipi");
    EXPECT_EQ(eq.eventLabel(ids[99]), "ipi");
    EXPECT_EQ(eq.eventLabel(other), "tsc-deadline");
    // Same content through a different buffer still dedups.
    std::string dynamic = std::string("ip") + "i";
    EventId dyn = eq.scheduleIn(usec(2), [] {}, dynamic);
    EXPECT_EQ(eq.internedLabelCount(), 2u);
    EXPECT_EQ(eq.eventLabel(dyn), "ipi");
    eq.advanceBy(usec(3));
    EXPECT_EQ(eq.eventLabel(ids[0]), "");
}

TEST(EventWheel, HandlerSchedulingAtCurrentTickRunsInSameAdvance)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(nsec(10), [&] {
        order.push_back(1);
        eq.schedule(eq.now(), [&] { order.push_back(2); });
    });
    eq.advanceTo(nsec(10));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventWheel, ManyEventsAcrossAllLevels)
{
    // Sweep deltas through every wheel level (and the far map) and
    // verify global time ordering plus exact counts.
    EventQueue eq;
    std::vector<Ticks> fired;
    int n = 0;
    for (int level = 0; level < 8; ++level) {
        const Ticks base = static_cast<Ticks>(1)
                           << (level * EventQueue::slotBits);
        for (int j = 0; j < 32; ++j) {
            eq.schedule(base + j * 3,
                        [&fired, &eq] { fired.push_back(eq.now()); });
            ++n;
        }
    }
    eq.advanceTo(static_cast<Ticks>(1) << 60);
    EXPECT_EQ(static_cast<int>(fired.size()), n);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1], fired[i]);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace svtsim
