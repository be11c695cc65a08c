#include "npu/command_scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ianus::npu
{

CommandScheduler::CommandScheduler(const isa::Program &prog, unsigned cores,
                                   const SchedulerConfig &cfg)
    : program_(&prog), cores_(cores), cfg_(cfg)
{
    IANUS_ASSERT(cores_ > 0, "scheduler needs at least one core");
    const std::size_t n = prog.size();
    state_.assign(n, State::Unfetched);
    depsLeft_.assign(n, 0);
    dependentsStart_.assign(n + 1, 0);
    coreStart_.assign(cores_ + 1, 0);
    windowOccupancy_.assign(cores_, 0);
    fifos_.assign(cores_ * numUnits, Fifo{});
    readyMask_.assign(cores_, 0);
    issuedCount_.assign(cores_ * numUnits, 0);

    // Counting pass: dependents per command, commands per core and per
    // (core, unit) — the latter bound each ready FIFO's capacity.
    for (const isa::Command &c : prog.commands()) {
        IANUS_ASSERT(c.core < cores_, "command ", c.id, " targets core ",
                     c.core, " but system has ", cores_);
        depsLeft_[c.id] = static_cast<std::uint32_t>(c.deps.size());
        for (std::uint32_t d : c.deps)
            ++dependentsStart_[d + 1];
        ++coreStart_[c.core + 1];
        ++fifos_[pair(c.core, c.unit)].cap;
    }
    for (std::size_t i = 0; i < n; ++i)
        dependentsStart_[i + 1] += dependentsStart_[i];
    for (unsigned core = 0; core < cores_; ++core)
        coreStart_[core + 1] += coreStart_[core];
    // A FIFO never holds more than the core's pending window, nor more
    // than the commands of its (core, unit).
    std::uint32_t base = 0;
    for (Fifo &f : fifos_) {
        f.cap = std::min(f.cap, cfg_.pendingSlots);
        f.base = base;
        base += f.cap;
    }
    fifoBuf_.assign(base, 0);

    // Fill pass, in program order.
    dependents_.assign(dependentsStart_[n], 0);
    coreOrder_.assign(n, 0);
    std::vector<std::uint32_t> depFill(dependentsStart_.begin(),
                                       dependentsStart_.end() - 1);
    std::vector<std::uint32_t> coreFill(coreStart_.begin(),
                                        coreStart_.end() - 1);
    for (const isa::Command &c : prog.commands()) {
        for (std::uint32_t d : c.deps)
            dependents_[depFill[d]++] = c.id;
        coreOrder_[coreFill[c.core]++] = c.id;
    }
    fetchCursor_.assign(coreStart_.begin(), coreStart_.end() - 1);
    for (std::uint16_t core = 0; core < cores_; ++core)
        fetchMore(core);
}

void
CommandScheduler::fetchMore(std::uint16_t core)
{
    while (fetchCursor_[core] < coreStart_[core + 1] &&
           windowOccupancy_[core] < cfg_.pendingSlots) {
        std::uint32_t id = coreOrder_[fetchCursor_[core]++];
        ++windowOccupancy_[core];
        state_[id] = State::Pending;
        if (depsLeft_[id] == 0)
            makeReady(id);
    }
}

void
CommandScheduler::makeReady(std::uint32_t id)
{
    IANUS_ASSERT(state_[id] == State::Pending, "bad ready transition");
    state_[id] = State::Ready;
    const isa::Command &c = program_->at(id);
    Fifo &q = fifos_[pair(c.core, c.unit)];
    IANUS_ASSERT(q.size < q.cap, "ready FIFO overflow");
    std::uint32_t tail = q.head + q.size++;
    fifoBuf_[q.base + (tail < q.cap ? tail : tail - q.cap)] = id;
    readyMask_[c.core] |= unitBit(c.unit);
}

void
CommandScheduler::issue(std::uint32_t id)
{
    IANUS_ASSERT(state_[id] == State::Ready, "issue of non-ready command ",
                 id);
    const isa::Command &c = program_->at(id);
    const std::size_t p = pair(c.core, c.unit);
    Fifo &q = fifos_[p];
    IANUS_ASSERT(q.size > 0 && fifoBuf_[q.base + q.head] == id,
                 "out-of-order issue from the ready FIFO");
    IANUS_ASSERT(canIssue(c.core, c.unit), "issue queue overflow");
    if (++q.head == q.cap)
        q.head = 0;
    if (--q.size == 0)
        readyMask_[c.core] &= static_cast<UnitMask>(~unitBit(c.unit));
    ++issuedCount_[p];
    state_[id] = State::Issued;
}

void
CommandScheduler::complete(std::uint32_t id)
{
    IANUS_ASSERT(state_[id] == State::Issued,
                 "completion of non-issued command ", id);
    const isa::Command &c = program_->at(id);
    state_[id] = State::Completed;
    --issuedCount_[pair(c.core, c.unit)];
    IANUS_ASSERT(windowOccupancy_[c.core] > 0, "window underflow");
    --windowOccupancy_[c.core];
    ++completed_;

    for (std::uint32_t i = dependentsStart_[id];
         i < dependentsStart_[id + 1]; ++i) {
        std::uint32_t dep = dependents_[i];
        IANUS_ASSERT(depsLeft_[dep] > 0, "dependency double count");
        if (--depsLeft_[dep] == 0 && state_[dep] == State::Pending)
            makeReady(dep);
    }
    fetchMore(c.core);
}

} // namespace ianus::npu
