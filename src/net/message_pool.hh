/**
 * @file
 * Slab/arena storage for in-flight protocol messages, addressed by
 * 8-byte generation-tagged index handles.
 *
 * Every hop of a message through the interconnect used to copy the
 * full 56-byte Message POD: into link queues, router input buffers,
 * the ingress reorder buffer, the NI FIFOs, and the capture lists of
 * the per-hop events. With the pool, a message is written once at
 * injection into slab storage and travels as a single word
 * (MsgHandle) until delivery frees it, so event captures and queue
 * entries shrink to pointer size.
 *
 * Handles are generation-tagged: each slot carries a generation
 * counter bumped on every free, and a handle embeds the generation it
 * was allocated under. Debug builds assert the tags match on every
 * dereference, so a use-after-free or double-free trips immediately
 * instead of silently reading a recycled message. Handle *values*
 * depend on allocation history and are never compared, ordered, or
 * dumped — all observable ordering keys (tick, channel, netSeq) live
 * in the Message itself.
 *
 * Slabs are fixed-size arrays behind stable pointers: growth never
 * moves a live slot, so `Message &` references obtained from at() stay
 * valid across any amount of later allocation (delivery reads the
 * message while the sink it calls may inject new ones).
 */

#ifndef LTP_NET_MESSAGE_POOL_HH
#define LTP_NET_MESSAGE_POOL_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "net/message.hh"

namespace ltp
{

/**
 * An 8-byte reference to a pooled Message: [gen:32 | slot:32]. The slot
 * field stores index+1 so a value-initialized handle (bits 0) is never
 * valid. Trivially copyable — this is what event captures and queue
 * entries hold instead of the Message.
 */
struct MsgHandle
{
    std::uint64_t bits = 0;

    bool valid() const { return bits != 0; }
    std::uint32_t gen() const { return std::uint32_t(bits >> 32); }
    std::uint32_t slot() const { return std::uint32_t(bits) - 1; }
};

// Every network event captures a handle; keeping it trivially copyable
// keeps those callbacks on SmallFunction's memcpy relocation path.
static_assert(std::is_trivially_copyable_v<MsgHandle>);

/** Arena of Message slots addressed by MsgHandle. */
class MessagePool
{
  public:
    MessagePool() = default;
    MessagePool(const MessagePool &) = delete;
    MessagePool &operator=(const MessagePool &) = delete;

    /** Copy @p m into a fresh slot and return its handle. */
    MsgHandle
    alloc(const Message &m)
    {
        std::uint32_t idx = freeHead_;
        if (idx != nilIndex)
            freeHead_ = slot(idx).nextFree;
        else
            idx = grow();
        Slot &s = slot(idx);
        s.msg = m;
        return MsgHandle{(std::uint64_t(s.gen) << 32) |
                         std::uint64_t(idx + 1)};
    }

    /** The message behind @p h. The reference is stable until free(). */
    Message &
    at(MsgHandle h)
    {
        Slot &s = slot(h.slot());
        assert(h.valid() && s.gen == h.gen() &&
               "stale message handle (freed or recycled slot)");
        return s.msg;
    }

    const Message &
    at(MsgHandle h) const
    {
        const Slot &s = slot(h.slot());
        assert(h.valid() && s.gen == h.gen() &&
               "stale message handle (freed or recycled slot)");
        return s.msg;
    }

    /** Return @p h's slot to the free list. The handle — and any copy
     *  of it — is dead after this call. */
    void
    free(MsgHandle h)
    {
        std::uint32_t idx = h.slot();
        Slot &s = slot(idx);
        assert(h.valid() && s.gen == h.gen() &&
               "double free (or stale handle)");
        // Bump the generation first: every outstanding copy of this
        // handle is stale from here on.
        ++s.gen;
        s.nextFree = freeHead_;
        freeHead_ = idx;
    }

    /** Messages currently allocated (cold: walks the free list). */
    std::uint64_t liveMessages() const;

    /** Slabs the arena has grown to (tests observe burst growth). */
    std::size_t numSlabs() const { return slabs_.size(); }
    /** Slots ever materialized (the arena's high-water mark). */
    std::uint32_t highWater() const { return numSlots_; }

  private:
    static constexpr std::uint32_t nilIndex = 0xffffffffu;
    static constexpr std::uint32_t slabShift = 10; //!< 1024 slots / slab
    static constexpr std::uint32_t slabMask = (1u << slabShift) - 1;

    /** One message plus its recycling metadata. */
    struct Slot
    {
        Message msg;
        /** Allocation generation; bumped on free. */
        std::uint32_t gen = 1;
        /** Free-list link. */
        std::uint32_t nextFree = 0;
    };

    Slot &slot(std::uint32_t i)
    {
        return (*slabs_[i >> slabShift])[i & slabMask];
    }
    const Slot &slot(std::uint32_t i) const
    {
        return (*slabs_[i >> slabShift])[i & slabMask];
    }
    std::uint32_t grow();

    std::vector<std::unique_ptr<std::array<Slot, 1u << slabShift>>> slabs_;
    std::uint32_t freeHead_ = nilIndex; //!< LIFO free list
    std::uint32_t numSlots_ = 0;        //!< slots ever materialized
};

} // namespace ltp

#endif // LTP_NET_MESSAGE_POOL_HH
