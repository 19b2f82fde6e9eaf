/**
 * @file
 * Growable FIFO ring for hot-path queues: addresses, request handles,
 * or small movable ops (media commands holding a callback).
 *
 * std::deque allocates and frees map blocks as the head crosses chunk
 * boundaries, so a steady push/pop stream still churns the allocator.
 * FifoRing keeps one power-of-two buffer that only ever grows: after
 * the queue has warmed to its peak depth, push/pop is a store, a load
 * and two index increments -- no allocation, ever.
 *
 * T must be default-constructible and move-assignable. Non-trivial
 * elements are reset to T{} on pop so captured resources (callback
 * state) do not linger in dead slots.
 */

#ifndef VANS_COMMON_FIFO_RING_HH
#define VANS_COMMON_FIFO_RING_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace vans
{

/** Bounded-growth FIFO over a single power-of-two ring buffer. */
template <typename T>
class FifoRing
{
  public:
    FifoRing() = default;
    FifoRing(const FifoRing &) = delete;
    FifoRing &operator=(const FifoRing &) = delete;
    FifoRing(FifoRing &&other) noexcept
        : buf(std::move(other.buf)), cap(other.cap),
          head(other.head), count(other.count)
    {
        other.cap = 0;
        other.head = 0;
        other.count = 0;
    }

    FifoRing &
    operator=(FifoRing &&other) noexcept
    {
        buf = std::move(other.buf);
        cap = other.cap;
        head = other.head;
        count = other.count;
        other.cap = 0;
        other.head = 0;
        other.count = 0;
        return *this;
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Buffer capacity (grows, never shrinks). */
    std::size_t capacity() const { return cap; }

    void
    push_back(const T &v)
    {
        if (count == cap)
            grow();
        buf[(head + count) & (cap - 1)] = v;
        ++count;
    }

    void
    push_back(T &&v)
    {
        if (count == cap)
            grow();
        buf[(head + count) & (cap - 1)] = std::move(v);
        ++count;
    }

    T &
    front()
    {
        return buf[head];
    }

    const T &
    front() const
    {
        return buf[head];
    }

    /** Element @p i positions behind the front (0 == front). */
    const T &
    at(std::size_t i) const
    {
        return buf[(head + i) & (cap - 1)];
    }

    void
    pop_front()
    {
        if constexpr (!std::is_trivially_copyable_v<T>)
            buf[head] = T{}; // Release captured state promptly.
        head = (head + 1) & (cap - 1);
        --count;
    }

    void
    clear()
    {
        if constexpr (!std::is_trivially_copyable_v<T>) {
            while (count)
                pop_front();
        }
        head = 0;
        count = 0;
    }

  private:
    void
    grow()
    {
        std::size_t next = cap ? cap * 2 : 8;
        std::unique_ptr<T[]> nbuf(new T[next]);
        for (std::size_t i = 0; i < count; ++i)
            nbuf[i] = std::move(buf[(head + i) & (cap - 1)]);
        buf = std::move(nbuf);
        cap = next;
        head = 0;
    }

    std::unique_ptr<T[]> buf;
    std::size_t cap = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace vans

#endif // VANS_COMMON_FIFO_RING_HH
