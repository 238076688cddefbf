/**
 * @file
 * Simulated memory contents.
 *
 * The timing simulator mostly cares about *which* blocks are touched, but
 * synchronization (test-and-set spin locks, flags, work-queue indices)
 * needs real values. MemoryValues is a sparse 64-bit-word store shared by
 * all nodes; the coherence protocol guarantees that reads and writes are
 * serialized correctly, so a single value store suffices.
 */

#ifndef LTP_MEM_MEMORY_VALUES_HH
#define LTP_MEM_MEMORY_VALUES_HH

#include <cstdint>

#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace ltp
{

/** Sparse word-granularity simulated memory. */
class MemoryValues
{
  public:
    /** Read the 64-bit word at @p a (8-byte aligned); absent words are 0. */
    std::uint64_t
    load(Addr a) const
    {
        const std::uint64_t *v = words_.find(wordAddr(a));
        return v ? *v : 0;
    }

    /** Write the 64-bit word at @p a. */
    void store(Addr a, std::uint64_t v) { words_[wordAddr(a)] = v; }

    /**
     * Atomic test-and-set: write @p set_to and return the previous value.
     * Atomicity is provided by the caller holding exclusive coherence
     * permission for the block.
     */
    std::uint64_t
    testAndSet(Addr a, std::uint64_t set_to)
    {
        std::uint64_t &w = words_[wordAddr(a)];
        std::uint64_t old = w;
        w = set_to;
        return old;
    }

    /** Atomic fetch-and-add; returns the previous value. */
    std::uint64_t
    fetchAdd(Addr a, std::uint64_t delta)
    {
        std::uint64_t &w = words_[wordAddr(a)];
        std::uint64_t old = w;
        w = old + delta;
        return old;
    }

    std::size_t wordCount() const { return words_.size(); }

  private:
    static Addr wordAddr(Addr a) { return a & ~Addr(7); }

    FlatMap<Addr, std::uint64_t> words_;
};

} // namespace ltp

#endif // LTP_MEM_MEMORY_VALUES_HH
