/**
 * @file
 * Deterministic, seeded fault injection (LTP_FAULT).
 *
 * Fault decisions use a counter-based per-site RNG: every decision is a
 * pure hash of (seed, site id, site-local counter), never a shared
 * mutable stream. The call site owns its counter (one per physical
 * link, per event queue, ...), and the simulation itself is
 * bit-deterministic, so each site sees the identical decision sequence
 * on every rerun — fault-injected runs are reproducible exactly like
 * fault-free ones.
 *
 * Spec grammar (semicolon-separated faults, comma-separated keys):
 *
 *   LTP_FAULT=kind[:key=value[,key=value...]][;kind2...]
 *
 *   link-stall[:p=0.01,extra=64,seed=1]
 *       At each link grant, with probability p, stretch the message's
 *       serialization by 1..extra extra ticks. Perturbs *virtual* time
 *       deterministically (results differ from fault-free runs but are
 *       identical across reruns).
 *   cal-overflow[:period=1]
 *       Every period-th scheduled event is forced onto the calendar
 *       queue's far-future overflow heap and must migrate back into the
 *       bucket ring before it can fire. Host-side stress only — results
 *       are byte-identical to fault-free runs.
 *
 * Faults is a process-wide singleton armed per run by DsmSystem (like
 * obs::Tracer); the disarmed fast path is one relaxed atomic load.
 */

#ifndef LTP_SIM_GUARD_FAULT_HH
#define LTP_SIM_GUARD_FAULT_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace ltp
{
namespace guard
{

enum class FaultKind : std::uint8_t
{
    LinkStall,
    CalendarOverflow,
    NumKinds,
};

constexpr std::uint32_t
faultBit(FaultKind k)
{
    return 1u << unsigned(k);
}

/** Parsed LTP_FAULT spec. */
struct FaultPlan
{
    std::uint32_t mask = 0; //!< faultBit() mask of armed kinds

    // link-stall
    double linkStallP = 0.01;        //!< per-grant stall probability
    std::uint32_t linkStallExtra = 64; //!< max extra ticks per stall
    std::uint64_t linkStallSeed = 1;

    // cal-overflow
    std::uint64_t calOverflowPeriod = 1; //!< force every Nth schedule

    bool on(FaultKind k) const { return mask & faultBit(k); }
};

/**
 * Parse an LTP_FAULT spec. Throws std::invalid_argument naming the
 * offending token on an unknown kind, unknown key, or bad value.
 */
FaultPlan parseFaultSpec(const std::string &spec);

/**
 * Process-wide fault-injection switchboard. At most one armed run at a
 * time (same contract as obs::Tracer).
 */
class Faults
{
  public:
    static Faults &instance();

    /** Arm @p plan for the coming run. */
    void arm(const FaultPlan &plan);
    /** Disarm all faults (end of run). */
    void disarm();

    /** Fast path: is @p k armed? One relaxed atomic load. */
    static bool
    on(FaultKind k)
    {
        return mask_.load(std::memory_order_relaxed) & faultBit(k);
    }

    const FaultPlan &plan() const { return plan_; }

    /**
     * link-stall decision for site @p site (link index) at its
     * @p counter-th grant: 0 = no stall, else extra serialization
     * ticks. Pure function of (seed, site, counter).
     */
    Tick linkStallTicks(std::uint64_t site, std::uint64_t counter) const;

    /** cal-overflow decision for a site's @p counter-th schedule. */
    bool
    calendarOverflowHit(std::uint64_t counter) const
    {
        return plan_.calOverflowPeriod <= 1 ||
               counter % plan_.calOverflowPeriod == 0;
    }

  private:
    Faults() = default;

    static std::atomic<std::uint32_t> mask_;
    FaultPlan plan_;
};

} // namespace guard
} // namespace ltp

#endif // LTP_SIM_GUARD_FAULT_HH
