/**
 * @file
 * SmallFunction: a move-only `void()` callable with small-buffer
 * optimization, the event queue's callback representation.
 *
 * `std::function` heap-allocates any capture list larger than two
 * pointers, which put one malloc/free pair on every scheduled event.
 * SmallFunction stores callables up to `inlineSize` bytes directly in
 * the object (all of the simulator's hot-path lambdas fit) and only
 * falls back to the heap for oversized or throwing-move callables, so
 * the steady-state schedule/execute cycle performs zero allocations.
 *
 * Relocation: a trivially copyable, trivially destructible callable
 * (ids, pool handles, `this` — every hot-path capture) moves as one
 * fixed-size memcpy of the inline buffer and has no destroy thunk, so
 * the moves an event makes between its post and its execution cost a
 * few vector stores, not an indirect call each. Only non-trivial
 * captures (a `std::function`, the heap fallback) keep the relocate
 * and destroy thunks.
 *
 * Differences from std::function, by design:
 *  - move-only (a copyable wrapper would force copyable captures);
 *  - no target-type introspection;
 *  - invoking an empty SmallFunction is undefined (asserts in debug).
 */

#ifndef LTP_SIM_SMALL_FUNCTION_HH
#define LTP_SIM_SMALL_FUNCTION_HH

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ltp
{

/** Move-only void() callable with inline storage for small captures. */
class SmallFunction
{
  public:
    /**
     * Sized for the largest hot-path lambda: the cache controller's
     * access-completion captures (this + Addr + Pc + flags + a 32-byte
     * std::function + Tick = 72). Network events got far smaller when
     * messages started traveling as 8-byte pool handles
     * (net/message_pool.hh), which is what let this drop from 96 and
     * with it every event slot and mailbox ring item.
     */
    static constexpr std::size_t inlineSize = 72;

    SmallFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    SmallFunction(F &&f) // NOLINT: implicit, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            if constexpr (trivialInline<Fn>)
                ops_ = &trivialOps<Fn>;
            else
                ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    SmallFunction(SmallFunction &&o) noexcept { moveFrom(o); }

    SmallFunction &
    operator=(SmallFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    ~SmallFunction() { reset(); }

    void
    operator()()
    {
        assert(ops_ && "invoking an empty SmallFunction");
        ops_->invoke(buf_);
    }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Destroy the held callable (no-op when empty). */
    void
    reset()
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    /**
     * Manually-managed vtable: one static instance per callable type.
     * A null `relocate` means "memcpy the buffer" and a null `destroy`
     * means "nothing to run": both hold exactly for inline callables
     * that are trivially copyable and trivially destructible.
     */
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Relocate from @p src to @p dst, leaving @p src destroyed. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *storage);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineSize &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr bool trivialInline =
        std::is_trivially_copyable_v<Fn> &&
        std::is_trivially_destructible_v<Fn>;

    template <typename Fn>
    static void
    invokeInline(void *s)
    {
        (*static_cast<Fn *>(s))();
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        &invokeInline<Fn>,
        [](void *src, void *dst) noexcept {
            Fn *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void *s) { static_cast<Fn *>(s)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops trivialOps = {&invokeInline<Fn>, nullptr, nullptr};

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *s) { (**static_cast<Fn **>(s))(); },
        [](void *src, void *dst) noexcept {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *s) { delete *static_cast<Fn **>(s); },
    };

    void
    moveFrom(SmallFunction &o) noexcept
    {
        if (o.ops_) {
            if (o.ops_->relocate)
                o.ops_->relocate(o.buf_, buf_);
            else
                std::memcpy(buf_, o.buf_, inlineSize);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inlineSize];
    const Ops *ops_ = nullptr;
};

} // namespace ltp

#endif // LTP_SIM_SMALL_FUNCTION_HH
