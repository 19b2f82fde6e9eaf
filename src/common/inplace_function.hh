/**
 * @file
 * Small-buffer-optimized move-only callable for the event kernel and
 * the NVRAM completion-callback plumbing.
 *
 * std::function heap-allocates for any capture larger than (libstdc++)
 * two pointers and copy-constructs the capture on every copy. Event
 * callbacks in this simulator are almost always lambdas capturing a
 * handful of pointers/references, are invoked exactly once, and never
 * need to be copied. InplaceFunction exploits that profile: captures
 * up to `inlineCapacity` bytes live inline in the object (no
 * allocation on schedule), larger captures fall back to a single heap
 * cell, and the type is move-only, so a callback is never copied (the
 * event kernel builds each one in place in its slab node).
 *
 * The primary template is signature-parameterized so the same storage
 * scheme serves the event kernel (`InplaceCallback` = void()) and the
 * per-request DoneCallbacks (`void(Tick)`) plus the AIT's model hooks
 * (`void(Addr, Tick)`, `bool(Addr)`) without reintroducing
 * std::function anywhere on the event path.
 */

#ifndef VANS_COMMON_INPLACE_FUNCTION_HH
#define VANS_COMMON_INPLACE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vans
{

template <typename Signature, std::size_t Capacity = 48>
class InplaceFunction; // primary left undefined; see specialization

/** Move-only `R(Args...)` callable with inline small-capture storage. */
template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity>
{
  public:
    /** Captures up to this many bytes are stored without allocating. */
    static constexpr std::size_t inlineCapacity = Capacity;

    InplaceFunction() noexcept = default;
    InplaceFunction(std::nullptr_t) noexcept {} // NOLINT: implicit

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    InplaceFunction(F &&f) // NOLINT: intentional implicit conversion
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "callable is not invocable with this signature");
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(storage))
                Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(storage) =
                new Fn(std::forward<F>(f));
            ops = &heapOps<Fn>;
        }
    }

    InplaceFunction(InplaceFunction &&other) noexcept
    {
        moveFrom(std::move(other));
    }

    InplaceFunction &
    operator=(InplaceFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(std::move(other));
        }
        return *this;
    }

    InplaceFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InplaceFunction(const InplaceFunction &) = delete;
    InplaceFunction &operator=(const InplaceFunction &) = delete;

    ~InplaceFunction() { reset(); }

    /** Invoke the stored callable (must be non-empty). */
    R
    operator()(Args... args)
    {
        return ops->invoke(storage, std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return ops != nullptr; }

    /** True when the capture spilled to the heap (kernel stat). */
    bool
    heapAllocated() const noexcept
    {
        return ops != nullptr && ops->onHeap;
    }

    /** Destroy the stored callable, leaving the object empty. */
    void
    reset() noexcept
    {
        if (ops) {
            ops->destroy(storage);
            ops = nullptr;
        }
    }

    /** Compile-time check: does @p Fn avoid the heap fallback? */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= inlineCapacity &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    /** Static per-type vtable: invoke / destroy / relocate. */
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        void (*destroy)(void *) noexcept;
        void (*relocate)(void *dst, void *src) noexcept;
        bool onHeap;
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *s, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(s)))(
                std::forward<Args>(args)...);
        },
        [](void *s) noexcept {
            std::launder(reinterpret_cast<Fn *>(s))->~Fn();
        },
        [](void *dst, void *src) noexcept {
            Fn *f = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        false,
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *s, Args &&...args) -> R {
            return (**reinterpret_cast<Fn **>(s))(
                std::forward<Args>(args)...);
        },
        [](void *s) noexcept { delete *reinterpret_cast<Fn **>(s); },
        [](void *dst, void *src) noexcept {
            *reinterpret_cast<Fn **>(dst) =
                *reinterpret_cast<Fn **>(src);
        },
        true,
    };

    void
    moveFrom(InplaceFunction &&other) noexcept
    {
        if (other.ops) {
            ops = other.ops;
            ops->relocate(storage, other.storage);
            other.ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage[inlineCapacity];
    const Ops *ops = nullptr;
};

/**
 * The event kernel's callback type. Its inline buffer is sized so a
 * wrapper capturing one 48-byte-capacity DoneCallback (64 bytes with
 * its vtable pointer) plus a this-pointer, an address and a couple of
 * scalars still fits: every pipeline hop that re-schedules a
 * completion callback stays allocation-free (the zero-alloc
 * regression test pins this). Kept as tight as that worst inline
 * capture -- every byte here is paid by every node of the event
 * kernel's slab. 88 is the most that still packs into a 96-byte
 * object under max_align_t padding, which with the node's 32-byte
 * order key and link makes a 128-byte node, two cache lines.
 */
using InplaceCallback = InplaceFunction<void(), 88>;

} // namespace vans

#endif // VANS_COMMON_INPLACE_FUNCTION_HH
