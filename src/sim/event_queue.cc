#include "sim/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ianus::sim
{

namespace
{

constexpr std::uint64_t kPhaseShift = 63;

/** An EventId packs the slot generation over the slot index plus one,
 *  so no id is 0. */
EventId
makeId(std::uint32_t slot, std::uint32_t gen)
{
    return (static_cast<EventId>(gen) << 32) | (EventId{slot} + 1);
}

} // namespace

EventId
EventQueue::push(Tick when, std::uint64_t phase, SmallFn &&fn)
{
    IANUS_ASSERT(when >= now_, "event scheduled in the past: ", when,
                 " < ", now_);
    IANUS_ASSERT(static_cast<bool>(fn), "empty event callback");
    auto slot = static_cast<std::uint32_t>(slots_.size());
    if (freeSlots_.empty()) {
        slots_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    heap_.push_back(Key{when, (phase << kPhaseShift) | nextSeq_++, slot,
                        s.gen});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++liveEvents_;
    return makeId(slot, s.gen);
}

EventId
EventQueue::schedule(Tick when, SmallFn fn)
{
    return push(when, 1, std::move(fn));
}

EventId
EventQueue::scheduleEarly(Tick when, SmallFn fn)
{
    return push(when, 0, std::move(fn));
}

void
EventQueue::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
}

void
EventQueue::release(std::uint32_t slot)
{
    ++slots_[slot].gen;
    freeSlots_.push_back(slot);
    --liveEvents_;
}

bool
EventQueue::deschedule(EventId id)
{
    const EventId low = id & 0xffffffffu;
    if (low == 0 || low > slots_.size())
        return false;
    const auto slot = static_cast<std::uint32_t>(low - 1);
    Slot &s = slots_[slot];
    // A free slot holds no callable; a fired or cancelled event's slot
    // has moved on to a later generation.
    if (s.gen != static_cast<std::uint32_t>(id >> 32) || !s.fn)
        return false;
    s.fn = SmallFn{};
    release(slot);
    return true;
}

bool
EventQueue::step()
{
    while (!heap_.empty()) {
        const Key top = heap_.front();
        popTop();
        if (stale(top))
            continue; // cancelled
        IANUS_ASSERT(top.when >= now_, "time went backwards");
        now_ = top.when;
        // Move the callable out first: it may schedule events, which can
        // reuse its slot or grow the slot table.
        SmallFn fn = std::move(slots_[top.slot].fn);
        release(top.slot);
        ++executed_;
        fn();
        return true;
    }
    return false;
}

Tick
EventQueue::run(Tick limit)
{
    while (!heap_.empty()) {
        if (stale(heap_.front())) {
            popTop();
            continue;
        }
        if (heap_.front().when > limit)
            break;
        step();
    }
    return now_;
}

} // namespace ianus::sim
