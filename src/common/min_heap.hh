/**
 * @file
 * ReservedMinHeap: a vector-backed binary heap with an explicit
 * reserve() and a reallocation audit.
 *
 * std::priority_queue hides its container, so callers can neither
 * pre-size it to a known high-water mark nor prove afterwards that the
 * steady state stayed allocation-free, and its const top() forces a
 * copy where pop() here moves the element out. EventQueue keeps its
 * (when, seq, slot) keys here, reserves the worst high-water mark a
 * previous run observed, and reallocations() audits that the reserve
 * held. The cluster control plane's retry heap reserves nothing: it
 * holds only the retries in flight, and highWater() reports its peak.
 *
 * Ordering contract: Compare is a *greater-than* style comparator (as
 * std::push_heap wants for a min-heap via inversion); top() is the
 * minimum element. Ties must be broken by the comparator itself (e.g.
 * a monotonic sequence number) -- the heap adds no tiebreak of its
 * own, which keeps dispatch order a pure function of the comparator
 * and therefore byte-stable across library implementations.
 */

#ifndef EQUINOX_COMMON_MIN_HEAP_HH
#define EQUINOX_COMMON_MIN_HEAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace equinox
{

template <typename T, typename Compare>
class ReservedMinHeap
{
  public:
    ReservedMinHeap() = default;
    explicit ReservedMinHeap(Compare cmp) : cmp_(std::move(cmp)) {}

    /** Pre-size the backing vector for @p entries pending elements. */
    void
    reserve(std::size_t entries)
    {
        data_.reserve(entries);
    }

    bool empty() const { return data_.empty(); }
    std::size_t size() const { return data_.size(); }

    /** The minimum element under Compare. */
    const T &top() const { return data_.front(); }

    void
    push(T value)
    {
        if (data_.size() == data_.capacity())
            ++reallocations_;
        data_.push_back(std::move(value));
        std::push_heap(data_.begin(), data_.end(), cmp_);
        high_water_ = std::max(high_water_, data_.size());
    }

    /** Remove and return the minimum element. */
    T
    pop()
    {
        std::pop_heap(data_.begin(), data_.end(), cmp_);
        T out = std::move(data_.back());
        data_.pop_back();
        return out;
    }

    /** Times push() grew the backing vector (0 = reserve held). */
    std::uint64_t reallocations() const { return reallocations_; }

    /** Most elements ever simultaneously pending. */
    std::size_t highWater() const { return high_water_; }

  private:
    std::vector<T> data_;
    Compare cmp_{};
    std::uint64_t reallocations_ = 0;
    std::size_t high_water_ = 0;
};

} // namespace equinox

#endif // EQUINOX_COMMON_MIN_HEAP_HH
