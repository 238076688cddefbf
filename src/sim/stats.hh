/**
 * @file
 * Lightweight named-statistics package (counters, scalars, averages,
 * histograms) used by every simulated component.
 *
 * A StatGroup is a flat registry of named statistics. Components create
 * their stats against a group; harnesses dump or query the group after a
 * run. The package is intentionally simple: everything is a double or a
 * 64-bit counter, there is no hierarchy beyond the component name prefix.
 *
 * Hot-path cost model: a stat's string name is resolved exactly once, at
 * registration, into a dense StatId indexing slab-backed storage
 * (contiguous arrays of Counter/Average values, 256 per slab). A
 * per-event bump through a registered handle — or through counterAt(id)
 * — is a plain array access with no string hashing or tree walk; the
 * name registry (a sorted map, which is also what keeps dump() output
 * canonical) is only touched at registration and report time. Slabs
 * never move, so references returned by counter()/average() stay valid
 * for the group's lifetime, exactly as before.
 */

#ifndef LTP_SIM_STATS_HH
#define LTP_SIM_STATS_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace ltp
{

/**
 * Dense index of one registered statistic within its kind's storage
 * (counters and averages number independently). Ids are assigned in
 * registration order, starting at 0, and are stable for the group's
 * lifetime — intern a name once, bump by id ever after.
 */
using StatId = std::uint32_t;

/** A monotonically increasing 64-bit event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * An accumulating average: tracks sum, count, min and max of samples.
 * Used for, e.g., per-message queueing delay at a directory.
 */
class Average
{
  public:
    void sample(double v);

    /** Fold another average's samples into this one (exact for the
     *  tick-valued samples the simulator records). */
    void merge(const Average &o);

    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    void reset();

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A fixed-bucket histogram over [0, bucketWidth * nBuckets); samples
 * beyond the last bucket land in an overflow bucket.
 */
class Histogram
{
  public:
    Histogram(double bucket_width, std::size_t n_buckets);

    /** Record @p v. Negative (or NaN) samples clamp into bucket 0. */
    void sample(double v);

    /** Fold another histogram (same shape) into this one. */
    void merge(const Histogram &o);

    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t overflow() const { return overflow_; }
    std::size_t numBuckets() const { return buckets_.size(); }
    double bucketWidth() const { return width_; }
    std::uint64_t totalSamples() const { return total_; }
    double mean() const { return total_ ? sum_ / double(total_) : 0.0; }

    /**
     * Value below which fraction @p p of the samples fall (upper edge of
     * the covering bucket; overflow samples report the histogram range).
     * @pre 0.0 <= p <= 1.0. Returns 0.0 when empty.
     */
    double percentile(double p) const;

    void reset();

  private:
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * A point-in-time capture of a StatGroup's scalar state: counter
 * values plus average (sum, count) pairs. Two snapshots subtract to
 * an interval delta — the basis of the time-series metrics sampler
 * (obs/metrics.hh), which reads "what happened in the last N ticks"
 * off a monotonically accumulating group. Histograms are deliberately
 * not captured: copying every bucket per sample would make sampling
 * cost scale with histogram shape, and the sampler only needs rates.
 */
struct StatSnapshot
{
    struct AvgState
    {
        double sum = 0.0;
        std::uint64_t count = 0;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, AvgState> averages;

    /**
     * This snapshot minus @p older (per name; names absent from
     * @p older subtract zero, i.e. stats registered mid-interval
     * report their full accumulation).
     */
    StatSnapshot delta(const StatSnapshot &older) const;
};

/**
 * A flat, named registry of statistics.
 *
 * Names are dotted paths ("dir.0.queueing"). Registration returns a
 * reference that stays valid for the lifetime of the group.
 */
class StatGroup
{
  public:
    Counter &counter(const std::string &name)
    {
        return counterAt(counterId(name));
    }
    Average &average(const std::string &name)
    {
        return averageAt(averageId(name));
    }

    /**
     * Intern @p name into its dense counter id (registering the counter
     * on first sight). The id indexes slab storage: resolve once, keep
     * the id (or the counterAt() reference), bump with no lookups.
     */
    StatId counterId(const std::string &name);
    StatId averageId(const std::string &name);

    /** Counter storage behind @p id. @pre id came from counterId(). */
    Counter &
    counterAt(StatId id)
    {
        assert(id < counters_.count);
        return counters_.at(id);
    }
    Average &
    averageAt(StatId id)
    {
        assert(id < averages_.count);
        return averages_.at(id);
    }

    /** Registered counters (== the next id counterId() would assign). */
    std::uint32_t numCounters() const { return counters_.count; }
    std::uint32_t numAverages() const { return averages_.count; }

    /**
     * Register (or look up) a histogram. The shape arguments only apply
     * on first registration; later calls return the existing histogram.
     */
    Histogram &histogram(const std::string &name, double bucket_width = 16.0,
                         std::size_t n_buckets = 128);

    /** Value of the counter @p name; 0 when absent (never creates one —
     *  use counter() to register). */
    std::uint64_t counterValue(const std::string &name) const;
    /** Look up an existing average's mean (0.0 if absent). */
    double averageMean(const std::string &name) const;
    /** Look up an existing histogram (nullptr if absent). */
    const Histogram *findHistogram(const std::string &name) const;

    bool hasCounter(const std::string &name) const;
    bool hasAverage(const std::string &name) const;
    bool hasHistogram(const std::string &name) const;

    /** Largest value among counters whose name starts with @p prefix. */
    std::uint64_t maxCounterValueWithPrefix(const std::string &prefix) const;
    /** Sum of all counters whose name starts with @p prefix. */
    std::uint64_t sumCountersWithPrefix(const std::string &prefix) const;

    /**
     * Dump every statistic, one per line. The registries are sorted
     * maps, so the output is canonical: a name-sorted order that does
     * not depend on registration order.
     */
    void dump(std::ostream &os) const;

    /** Reset every statistic to zero. */
    void resetAll();

    /** Capture counter and average state (see StatSnapshot). */
    StatSnapshot snapshot() const;

  private:
    /**
     * One stat kind's storage: a sorted name -> id registry (the sorted
     * iteration is what keeps dump()/snapshot() output canonical) plus
     * dense value slabs. Slabs are fixed arrays behind stable pointers:
     * values of consecutive ids are contiguous (structure-of-arrays
     * cache behaviour on hot bump loops) and growth never moves an
     * existing value, so handed-out references survive any amount of
     * later registration.
     */
    template <typename T>
    struct Registry
    {
        static constexpr std::uint32_t slabShift = 8; //!< 256 per slab
        static constexpr std::uint32_t slabMask = (1u << slabShift) - 1;
        using Slab = std::array<T, std::size_t(1) << slabShift>;

        std::map<std::string, StatId> ids;
        std::vector<std::unique_ptr<Slab>> slabs;
        std::uint32_t count = 0;

        StatId
        intern(const std::string &name)
        {
            auto [it, inserted] = ids.emplace(name, count);
            if (inserted) {
                if ((count >> slabShift) == slabs.size())
                    slabs.push_back(std::make_unique<Slab>());
                ++count;
            }
            return it->second;
        }

        T &
        at(StatId id)
        {
            return (*slabs[id >> slabShift])[id & slabMask];
        }

        const T &
        at(StatId id) const
        {
            return (*slabs[id >> slabShift])[id & slabMask];
        }

        /** Look up an existing name (nullptr when absent; never interns). */
        const T *
        find(const std::string &name) const
        {
            auto it = ids.find(name);
            return it == ids.end() ? nullptr : &at(it->second);
        }
    };

    Registry<Counter> counters_;
    Registry<Average> averages_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace ltp

#endif // LTP_SIM_STATS_HH
