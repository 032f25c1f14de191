/**
 * @file
 * Test-local outcome slots for tests that drive a bare
 * serve::Scheduler.
 *
 * The scheduler completes a request only by leasing it a pooled
 * OutcomeSlot, which it hands back through the installed recycler once
 * the ticket is consumed or reclaimed. AsyncPipeline owns that pool in
 * production; scheduler-level tests own this one instead.
 */

#ifndef FC_TESTS_OUTCOME_SLOTS_H
#define FC_TESTS_OUTCOME_SLOTS_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "serve/scheduler.h"

namespace fc::test {

/**
 * Slot pool + recycler for one Scheduler, driven from the test thread
 * only (the recycler runs inside that thread's wait()/discard()).
 * Slots live in a deque (stable addresses); recycled slots are reused
 * before new ones are made. Declare it after the scheduler it serves:
 * the scheduler never calls the recycler from its destructor.
 */
class OutcomeSlots
{
  public:
    explicit OutcomeSlots(serve::Scheduler &scheduler)
        : scheduler_(scheduler)
    {
        scheduler.setOutcomeRecycler(
            [this](serve::OutcomeSlot *slot) { free_.push_back(slot); });
    }

    OutcomeSlots(const OutcomeSlots &) = delete;
    OutcomeSlots &operator=(const OutcomeSlots &) = delete;

    /** Retire Running request @p id as Done with an empty payload. */
    void
    complete(std::uint64_t id)
    {
        serve::OutcomeSlot *slot = nullptr;
        if (free_.empty()) {
            slot = &slots_.emplace_back();
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        slot->result = BatchResult{};
        scheduler_.complete(id, slot);
    }

    /** Slots currently leased to the scheduler. */
    std::size_t leased() const { return slots_.size() - free_.size(); }

  private:
    serve::Scheduler &scheduler_;
    std::deque<serve::OutcomeSlot> slots_;
    std::vector<serve::OutcomeSlot *> free_;
};

} // namespace fc::test

#endif // FC_TESTS_OUTCOME_SLOTS_H
