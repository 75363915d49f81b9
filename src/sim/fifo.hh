/**
 * @file
 * The one queue type of the simulator: a ring-buffer FIFO.
 *
 * Every first-in first-out queue in the simulator is a Fifo: the link
 * read/write queues and SERDES pipe, the vault queues, the management
 * full-power backlog and the host port. Their
 * elements are small plain records, the queues are short, and the hot
 * path is push_back/front/pop_front, so a power-of-two ring indexed by
 * a mask beats a deque's chunk map: nothing is allocated before the
 * first push (libstdc++'s deque allocates a 512-byte chunk up front),
 * the buffer is contiguous, and there is no per-chunk bookkeeping. The
 * capacity doubles when the ring is full and never shrinks.
 *
 * Only the operations the simulator uses are provided. As with a deque,
 * front(), back() and pop_front() require a non-empty queue.
 */

#ifndef MEMNET_SIM_FIFO_HH
#define MEMNET_SIM_FIFO_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace memnet
{

template <typename T>
class Fifo
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "a popped slot is overwritten, never destroyed");

  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return buf_[(head_ + size_ - 1) & mask_]; }
    const T &back() const { return buf_[(head_ + size_ - 1) & mask_]; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        push_back(T(std::forward<Args>(args)...));
    }

    void
    push_front(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        head_ = (head_ - 1) & mask_;
        buf_[head_] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

  private:
    static constexpr std::size_t kMinCapacity = 8;

    /** Double the ring, unwrapping the contents to start at slot 0. */
    void
    grow()
    {
        const std::size_t cap =
            buf_.empty() ? kMinCapacity : 2 * buf_.size();
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = buf_[(head_ + i) & mask_];
        buf_ = std::move(next);
        head_ = 0;
        mask_ = cap - 1;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace memnet

#endif // MEMNET_SIM_FIFO_HH
