/**
 * @file
 * Discrete-event core: the EventQueue behind the synchronous
 * execution model.
 *
 * The simulator mixes two styles:
 *
 *  - Asynchronous entities (devices, timers, network links) schedule
 *    zero-duration callbacks on the EventQueue. Handlers must not
 *    consume time; they flip state (assert an IRQ line, complete a
 *    descriptor) that synchronous code observes later.
 *
 *  - Synchronous code (guest programs, hypervisor exit handlers)
 *    consumes modeled time via Machine::consume(). Consuming time runs
 *    every event whose timestamp is passed, in order, so device
 *    completions and interrupts appear at the right simulated instant.
 *
 * Implementation (since the hot-path overhaul): a hierarchical timing
 * wheel — numLevels levels of numSlots slots, level k bucketing events
 * by byte k of their absolute timestamp — backed by an arena/freelist
 * of event records linked into per-slot intrusive lists. schedule(),
 * deschedule() and fire are O(1) (plus at most numLevels cascades over
 * an event's lifetime), the steady-state schedule->fire cycle performs
 * zero heap allocations (closures live inline in the record via
 * EventClosure, labels are interned once), and deschedule() unlinks
 * the record from its slot eagerly — there is no lazy-deletion debris,
 * so empty()/size()/nextEventTime() always agree. Events beyond the
 * wheel horizon (2^56 ticks ~ 20 simulated hours) sit in an ordered
 * far map until the wheel advances into their epoch.
 *
 * Determinism contract (unchanged): events at the same tick run in
 * scheduling order. Level-0 slots are exact-tick buckets and every
 * insertion — direct or via cascade — appends, so slot order is seq
 * order; see DESIGN.md "Event core" for the argument.
 */

#ifndef SVTSIM_SIM_EVENT_QUEUE_H
#define SVTSIM_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/closure.h"
#include "sim/compiler.h"
#include "sim/log.h"
#include "sim/ticks.h"

namespace svtsim {

class TraceSink;
class FaultInjector;

/**
 * Handle used to cancel a scheduled event. Encodes the record's arena
 * index plus a generation stamp, so handles to fired or cancelled
 * events go stale instead of aliasing the slot's next tenant.
 */
using EventId = std::uint64_t;

/**
 * Conservative-execution hook: bounds how far an EventQueue may
 * advance before synchronizing with an external coordinator (the
 * parallel cluster engine's epoch barrier).
 *
 * While a gate is installed the queue owns simulated time strictly
 * below its current horizon: it may fire events with timestamp
 * < horizon and move now() up to (but never onto) the horizon. An
 * advance that needs to cross the horizon drains everything below it
 * and then calls awaitHorizon(), which suspends the caller (the
 * cluster engine's driver fiber) until a larger horizon is granted.
 */
class AdvanceGate
{
  public:
    virtual ~AdvanceGate() = default;

    /**
     * Called by the advancing code once everything below the current
     * horizon has fired and the advance wants to continue to
     * @p target. Returns once more time is granted.
     *
     * @return The new exclusive horizon; must be strictly greater
     *         than the previous one (maxTick un-gates the queue).
     */
    virtual Ticks awaitHorizon(Ticks target) = 0;
};

/** Invalid/none event handle. */
constexpr EventId invalidEventId = 0;

/**
 * Time-ordered queue of zero-duration callbacks.
 *
 * Events at the same tick run in scheduling order (FIFO), which keeps
 * runs deterministic.
 *
 * Cancellation is eager end to end: deschedule() unlinks the record
 * from its wheel slot (or the far map) and releases the closure — and
 * anything it captured — immediately, so a schedule/cancel churn loop
 * (a re-armed watchdog) leaves no debris behind.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current simulated time. */
    Ticks now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @return A handle that can be passed to deschedule().
     * @pre when >= now().
     */
    EventId schedule(Ticks when, EventClosure fn,
                     std::string_view label = {});

    /**
     * Schedule @p fn to run @p delta ticks from now. A delta that
     * would overflow past maxTick saturates at maxTick (an "infinite
     * timeout" stays pending forever instead of tripping the
     * schedule-in-the-past panic with a wrapped timestamp).
     */
    EventId scheduleIn(Ticks delta, EventClosure fn,
                       std::string_view label = {});

    /**
     * Cancel a pending event, unlinking it and releasing its closure
     * immediately. Cancelling an already-fired or unknown handle is a
     * no-op (matches typical timer APIs).
     *
     * @return True if the event was pending and is now cancelled.
     */
    bool deschedule(EventId id);

    /** Whether any events are pending. */
    bool empty() const { return liveCount_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return liveCount_; }

    /** Time of the next pending event, or maxTick if none. */
    Ticks nextEventTime() const;

    /**
     * Advance time to @p when, running every event with timestamp
     * <= @p when in order. Each event runs with now() set to its own
     * timestamp; afterwards now() == when.
     *
     * @pre when >= now().
     */
    void advanceTo(Ticks when);

    /**
     * Advance time by @p delta ticks (see advanceTo()). Saturates at
     * maxTick instead of overflowing.
     */
    void advanceBy(Ticks delta);

    /**
     * Run every event with timestamp < @p limit, in order, leaving
     * now() at the last fired event's timestamp (or unchanged if
     * nothing fired). Unlike advanceTo(), time never moves onto
     * @p limit itself, and unlike runUntil() no predicate call is
     * paid per event — this is the cluster epoch drain ("fire
     * everything this machine owns below the horizon").
     *
     * @return Number of events fired.
     */
    std::uint64_t runUntilTick(Ticks limit);

    /**
     * Advance toward @p when for an idle wait (Machine::idleUntil).
     * Ungated this is exactly advanceTo(when). Under an AdvanceGate
     * it may instead return early — after one more horizon window has
     * been granted and drained — with now() < when, so a halt/idle
     * loop re-evaluates its wakeup condition against packets merged
     * in at the epoch barrier rather than sleeping blindly through
     * them to a watchdog deadline.
     */
    void idleTo(Ticks when);

    /**
     * Install (or clear, gate == nullptr) the conservative-execution
     * gate. @p horizon is the initial exclusive bound on event
     * execution; clearing the gate resets the horizon to maxTick.
     */
    void
    setAdvanceGate(AdvanceGate *gate, Ticks horizon)
    {
        gate_ = gate;
        horizon_ = gate ? horizon : maxTick;
    }

    /** Current exclusive advance horizon (maxTick when un-gated). */
    Ticks horizon() const { return horizon_; }

    /**
     * Run the next pending event, advancing now() to its timestamp.
     *
     * @return True if an event ran, false if the queue was empty.
     */
    bool runNext();

    /**
     * Run events until @p pred returns true or the queue drains.
     * @p pred is evaluated after every event.
     *
     * @return True if pred held; false if the queue drained first.
     */
    bool runUntil(const std::function<bool()> &pred);

    /** Total number of events executed so far (for stats/tests). */
    std::uint64_t executedCount() const { return executed_; }

    /**
     * Optional trace sink, reachable from anything that holds the
     * queue (Machine, devices). Not owned; whoever attaches it must
     * detach (set nullptr) before destroying it. TraceSink is a
     * concrete (non-virtual) class, so the disabled configuration
     * costs exactly one pointer test at each hook site.
     */
    SVTSIM_ALWAYS_INLINE TraceSink *traceSink() const
    {
        return traceSink_;
    }
    void setTraceSink(TraceSink *sink) { traceSink_ = sink; }

    /**
     * Optional fault injector, published here (like the trace sink)
     * so hook points that only hold the queue — LAPICs, rings,
     * devices — can reach it. Not owned; null means no faults.
     */
    SVTSIM_ALWAYS_INLINE FaultInjector *faultInjector() const
    {
        return faultInjector_;
    }
    void setFaultInjector(FaultInjector *inj) { faultInjector_ = inj; }

    /**
     * Whether @p id refers to a still-pending event. Lets owners of
     * tracked event handles prune fired ones without descheduling.
     */
    bool pending(EventId id) const { return lookup(id) != nullptr; }

    /** Interned label of a pending event ("" if none/unknown). */
    std::string_view eventLabel(EventId id) const;

    /** Number of distinct interned labels (introspection/tests). */
    std::size_t internedLabelCount() const { return labels_.size() - 1; }

    // -- Wheel geometry (public for tests and the speed bench) ------------
    /** log2 of slots per level. */
    static constexpr int slotBits = 8;
    /** Slots per wheel level. */
    static constexpr int numSlots = 1 << slotBits;
    /** Wheel levels; level k spans ticks [2^(8k), 2^(8(k+1))). */
    static constexpr int numLevels = 7;
    /** Ticks covered by the wheel before the far map takes over. */
    static constexpr int wheelBits = slotBits * numLevels;

  private:
    static constexpr std::uint32_t nil = 0xffffffffu;
    static constexpr int slotMask = numSlots - 1;
    /** Record::level value for events parked in the far map. */
    static constexpr std::uint8_t levelFar = 0xfe;
    /** Record::level value for free arena slots. */
    static constexpr std::uint8_t levelFree = 0xff;
    static constexpr std::uint32_t chunkSize = 256;

    /**
     * One event. Lives in the arena; linked into exactly one wheel
     * slot (via prev/next) or the far map while pending.
     */
    struct Record
    {
        EventClosure fn;
        Ticks when = 0;
        std::uint64_t seq = 0;
        std::uint32_t prev = nil;
        std::uint32_t next = nil;
        /** Bumped on every free; stale EventIds fail the gen check. */
        std::uint32_t gen = 0;
        std::uint16_t labelId = 0;
        std::uint8_t level = levelFree;
        std::uint8_t slot = 0;
    };

    struct Slot
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    SVTSIM_ALWAYS_INLINE Record &
    recordAt(std::uint32_t idx)
    {
        return chunks_[idx >> 8][idx & (chunkSize - 1)];
    }
    SVTSIM_ALWAYS_INLINE const Record &
    recordAt(std::uint32_t idx) const
    {
        return chunks_[idx >> 8][idx & (chunkSize - 1)];
    }

    static EventId
    makeId(std::uint32_t idx, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) |
               (static_cast<EventId>(idx) + 1);
    }

    /** Resolve @p id to its live record, or null if fired/stale. */
    const Record *lookup(EventId id) const;

    std::uint32_t allocRecord();
    void freeRecord(std::uint32_t idx, Record &rec);

    /** Bucket a record by when vs now_ and append to its slot. */
    void placeRecord(std::uint32_t idx, Record &rec);
    void linkTail(int level, int slot, std::uint32_t idx, Record &rec);
    void unlink(Record &rec, std::uint32_t idx);

    void markOccupied(int level, int slot);
    void clearOccupied(int level, int slot);
    /** First occupied slot of @p level, or -1. */
    int firstOccupied(int level) const;
    /** Lowest level with any occupied slot, or -1 (wheel empty). */
    int lowestOccupiedLevel() const;

    /** Absolute time of level-0 slot @p slot in the current window. */
    Ticks level0Time(int slot) const
    {
        return (now_ & ~static_cast<Ticks>(slotMask)) | slot;
    }
    /** Window base of level-k slot @p slot (k >= 1). */
    Ticks slotBase(int level, int slot) const;

    /**
     * Jump now_ to @p t, cascading the wheel slots that t's windows
     * enter and pulling newly-reachable far events in.
     * @pre no live event has a timestamp < t.
     */
    void moveTimeTo(Ticks t);
    /** Re-bucket every record in level-k slot @p slot vs new now_. */
    void cascade(int level, int slot);
    void pullFar();

    /** Fire all events at tick t (== now_) in seq order. */
    void fireCurrentSlot(Ticks t);

    /** advanceTo() body without the horizon check. */
    void advanceUngated(Ticks when);
    /**
     * Slow path for an advance whose target crosses the horizon:
     * drain below it, block at the gate for more time, repeat. An
     * idle advance returns after the first re-grant (see idleTo()).
     */
    void gatedAdvance(Ticks when, bool idle);

    std::uint16_t internLabel(std::string_view label);

    // -- Arena -------------------------------------------------------------
    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::uint32_t freeHead_ = nil;
    std::uint32_t allocated_ = 0;

    // -- Wheel -------------------------------------------------------------
    Slot slots_[numLevels][numSlots];
    std::uint64_t occupied_[numLevels][numSlots / 64] = {};
    /** Bit k set iff level k has any occupied slot. */
    std::uint32_t levelSummary_ = 0;
    /** Events beyond the wheel horizon, ordered by (when, seq). */
    std::map<std::pair<Ticks, std::uint64_t>, std::uint32_t> far_;

    // -- Labels ------------------------------------------------------------
    /** labels_[0] is the empty label. */
    std::vector<std::string> labels_{std::string()};
    std::unordered_map<std::string, std::uint16_t> labelIds_;
    struct LabelCacheEntry
    {
        const char *data = nullptr;
        std::size_t size = 0;
        std::uint16_t id = 0;
    };
    /** Direct-mapped cache keyed on the literal's address, so hot
     *  call sites skip the hash lookup after the first schedule. */
    LabelCacheEntry labelCache_[16];

    Ticks now_ = 0;
    /** Exclusive bound on event execution while a gate is installed. */
    Ticks horizon_ = maxTick;
    AdvanceGate *gate_ = nullptr;
    std::uint64_t nextSeq_ = 0;
    std::size_t liveCount_ = 0;
    std::uint64_t executed_ = 0;
    TraceSink *traceSink_ = nullptr;
    FaultInjector *faultInjector_ = nullptr;
};

} // namespace svtsim

#endif // SVTSIM_SIM_EVENT_QUEUE_H
