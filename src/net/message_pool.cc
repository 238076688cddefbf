#include "net/message_pool.hh"

namespace ltp
{

std::uint32_t
MessagePool::grow()
{
    // Out of recycled slots: materialize the next one, adding a slab
    // when the current one fills. Slabs are never released or moved —
    // the pool's footprint is the peak in-flight population, and every
    // handed-out Message reference stays valid.
    if ((numSlots_ >> slabShift) == slabs_.size())
        slabs_.push_back(
            std::make_unique<std::array<Slot, 1u << slabShift>>());
    return numSlots_++;
}

std::uint64_t
MessagePool::liveMessages() const
{
    std::uint64_t free = 0;
    for (std::uint32_t i = freeHead_; i != nilIndex; i = slot(i).nextFree)
        ++free;
    return numSlots_ - free;
}

} // namespace ltp
