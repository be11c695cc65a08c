/**
 * @file
 * Command scheduler (Section 4.3).
 *
 * Tracks dependencies between commands and the occupancy of each unit.
 * Commands are fetched per core in program order into a bounded pending
 * window (256 slots); a fetched command whose dependencies have all
 * completed becomes *ready* and may be pushed into its unit's issue queue
 * (4 slots). On completion the scheduler resolves dependences and refills
 * the window.
 *
 * Policy knobs that belong to PIM Access Scheduling — holding off-chip
 * DMA commands while a macro PIM command is in flight, and channel
 * admission for PIM commands — live in the execution engine; this class
 * is the pure dependency/queue mechanism.
 */

#ifndef IANUS_NPU_COMMAND_SCHEDULER_HH
#define IANUS_NPU_COMMAND_SCHEDULER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/program.hh"

namespace ianus::npu
{

/** Queue capacities (Table 1). */
struct SchedulerConfig
{
    unsigned issueSlots = 4;
    unsigned pendingSlots = 256;
};

/** Dependency/queue mechanism for one Program. */
class CommandScheduler
{
  public:
    /** Unit kinds per core; bit u of a UnitMask is UnitKind(u). */
    static constexpr std::size_t numUnits = 6;
    using UnitMask = std::uint8_t;

    static constexpr UnitMask
    unitBit(isa::UnitKind unit)
    {
        return static_cast<UnitMask>(1u << static_cast<unsigned>(unit));
    }

    CommandScheduler(const isa::Program &prog, unsigned cores,
                     const SchedulerConfig &cfg = SchedulerConfig{});

    /** Next ready command for (core, unit) without removing it. */
    std::optional<std::uint32_t>
    peekReady(std::uint16_t core, isa::UnitKind unit) const
    {
        const Fifo &q = fifos_[pair(core, unit)];
        if (q.size == 0)
            return std::nullopt;
        return fifoBuf_[q.base + q.head];
    }

    /**
     * Units of @p core whose ready FIFO is non-empty. A dispatcher that
     * visits only these skips exactly the (core, unit) pairs whose
     * peekReady() is empty.
     */
    UnitMask readyUnits(std::uint16_t core) const { return readyMask_[core]; }

    /** Move a ready command into the unit's issue queue. */
    void issue(std::uint32_t id);

    /**
     * Mark a command complete; resolves dependents and refills windows.
     * Newly ready commands become visible via peekReady().
     */
    void complete(std::uint32_t id);

    /** True when every command has completed. */
    bool allDone() const { return completed_ == program_->size(); }

    /** Commands issued but not yet completed on a unit (<= issueSlots). */
    unsigned
    issuedOn(std::uint16_t core, isa::UnitKind unit) const
    {
        return issuedCount_[pair(core, unit)];
    }

    /** Can (core, unit) accept another issue? */
    bool
    canIssue(std::uint16_t core, isa::UnitKind unit) const
    {
        return issuedOn(core, unit) < cfg_.issueSlots;
    }

    std::size_t completedCount() const { return completed_; }

  private:
    enum class State : std::uint8_t { Unfetched, Pending, Ready, Issued,
                                      Completed };

    /** A ready FIFO: a ring over its own span of fifoBuf_. */
    struct Fifo
    {
        std::uint32_t base = 0;
        std::uint32_t cap = 0;
        std::uint32_t head = 0;
        std::uint32_t size = 0;
    };

    const isa::Program *program_;
    unsigned cores_;
    SchedulerConfig cfg_;

    std::vector<State> state_;
    std::vector<std::uint32_t> depsLeft_;
    /** Dependents of command i: dependents_[dependentsStart_[i] ..
     *  dependentsStart_[i + 1]), in program order. */
    std::vector<std::uint32_t> dependentsStart_;
    std::vector<std::uint32_t> dependents_;

    /** Core c's commands in program order: coreOrder_[coreStart_[c] ..
     *  coreStart_[c + 1]); fetchCursor_[c] indexes coreOrder_. */
    std::vector<std::uint32_t> coreStart_;
    std::vector<std::uint32_t> coreOrder_;
    std::vector<std::uint32_t> fetchCursor_;
    std::vector<unsigned> windowOccupancy_;

    /** Ready FIFOs and issue counts indexed by pair(core, unit). */
    std::vector<Fifo> fifos_;
    std::vector<std::uint32_t> fifoBuf_;
    std::vector<UnitMask> readyMask_;
    std::vector<unsigned> issuedCount_;

    std::size_t completed_ = 0;

    static std::size_t
    pair(std::uint16_t core, isa::UnitKind unit)
    {
        return core * numUnits + static_cast<std::size_t>(unit);
    }

    void fetchMore(std::uint16_t core);
    void makeReady(std::uint32_t id);
};

} // namespace ianus::npu

#endif // IANUS_NPU_COMMAND_SCHEDULER_HH
