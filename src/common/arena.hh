/**
 * @file
 * Pool/arena allocation primitives for the simulator hot path.
 *
 * Two pieces, both allocation-free in the steady state:
 *
 *  - ObjectPool<T>: a construct-once object pool with a freelist.
 *    Objects are built exactly once and never destroyed until the pool
 *    itself dies, so any internal capacity they grow (e.g. a batch's
 *    arrivals vector) is retained across reuse. reset() returns every
 *    object to the freelist in canonical storage order, so the acquire
 *    sequence after a reset matches a fresh pool's -- back-to-back
 *    simulation runs see the same allocation behaviour as the first.
 *
 *  - Ring<T>: a growable power-of-two ring buffer with the queue
 *    subset of std::deque's interface (push_back/pop_front/front).
 *    Unlike std::deque it never allocates after warmup and iterating
 *    cost is a mask, not a segment lookup.
 *
 * None of this changes observable simulation behaviour: pointers never
 * enter result digests, and the pools only recycle storage whose
 * contents the callers fully re-initialize.
 */

#ifndef EQUINOX_COMMON_ARENA_HH
#define EQUINOX_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace equinox
{
namespace common
{

/** Construct-once object pool with freelist reuse (see file header). */
template <typename T>
class ObjectPool
{
  public:
    /**
     * Hand out an object: reuse the most recently released one, else
     * construct a new T. Reused objects keep whatever state they were
     * released with -- callers re-initialize every field they read.
     */
    T *
    acquire()
    {
        ++acquires_;
        T *p;
        if (!free_.empty()) {
            p = free_.back();
            free_.pop_back();
            ++reuses_;
        } else {
            storage_.push_back(std::make_unique<T>());
            p = storage_.back().get();
        }
        ++live_;
        if (live_ > high_water_)
            high_water_ = live_;
        return p;
    }

    /** Return @p p to the freelist (must have come from acquire()). */
    void
    release(T *p)
    {
        free_.push_back(p);
        --live_;
    }

    /**
     * Return every object to the freelist in canonical storage order:
     * the next acquire() sequence hands out storage_[0], storage_[1],
     * ... exactly like a fresh pool, independent of the release order
     * of the previous run.
     */
    void
    reset()
    {
        free_.clear();
        free_.reserve(storage_.size());
        for (std::size_t i = storage_.size(); i-- > 0;)
            free_.push_back(storage_[i].get());
        live_ = 0;
    }

    /** Objects ever constructed (pool-lifetime). */
    std::size_t totalObjects() const { return storage_.size(); }
    /** acquire() calls (pool-lifetime). */
    std::uint64_t acquires() const { return acquires_; }
    /** Acquires served from the freelist instead of constructing. */
    std::uint64_t reuses() const { return reuses_; }
    /** Objects currently handed out. */
    std::size_t live() const { return live_; }
    /** Most objects ever simultaneously handed out. */
    std::size_t highWater() const { return high_water_; }

  private:
    /** unique_ptr per object: addresses stay stable across growth. */
    std::vector<std::unique_ptr<T>> storage_;
    std::vector<T *> free_;
    std::uint64_t acquires_ = 0;
    std::uint64_t reuses_ = 0;
    std::size_t live_ = 0;
    std::size_t high_water_ = 0;
};

/** Growable power-of-two ring buffer (queue subset of std::deque). */
template <typename T>
class Ring
{
  public:
    void
    push_back(const T &v)
    {
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_) & (buf_.size() - 1)] = v;
        ++count_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        --count_;
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Drop all entries; capacity is retained (pool reuse). */
    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    std::size_t capacity() const { return buf_.size(); }

  private:
    void
    grow()
    {
        std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace common
} // namespace equinox

#endif // EQUINOX_COMMON_ARENA_HH
