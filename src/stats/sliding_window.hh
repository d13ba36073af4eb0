/**
 * @file
 * A fixed-length sliding window of samples whose percentiles are exact
 * and cheap: a push is an O(1) ring write, and the window's sorted copy
 * is brought up to date only when a percentile is read.
 */

#ifndef EQUINOX_STATS_SLIDING_WINDOW_HH
#define EQUINOX_STATS_SLIDING_WINDOW_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace stats
{

/**
 * The last `capacity` (w) samples. Pushes land in a ring of 2w slots,
 * in arrival order; a sorted copy of the window answers percentiles.
 * The sorted copy is synced lazily, on the first percentile() after
 * any pushes:
 *
 *  - fewer than w pending pushes are replayed one by one, each with one
 *    evict-and-insert shift of the sorted array (O(w) per push). The
 *    ring keeps 2w slots so every sample those pushes evicted is still
 *    there to be found;
 *  - w or more pending pushes replaced the whole window, so the last w
 *    samples are copied out of the ring and sorted afresh.
 *
 * So a window that is pushed often and read rarely pays O(1) per push,
 * and one read after every push pays what an eagerly sorted window
 * would. Either path leaves the window's multiset in ascending order,
 * which is unique, so percentile() is bit-identical to
 * exactPercentileSorted over a freshly sorted copy of the same samples.
 *
 * Samples must be NaN-free (NaN breaks the ordering); +inf is fine.
 * percentile() is const but syncs mutable state, so concurrent reads
 * of one window need external locking.
 */
class SlidingWindow
{
  public:
    explicit SlidingWindow(std::size_t capacity) : capacity_(capacity)
    {
        EQX_ASSERT(capacity > 0, "sliding window needs a nonzero length");
    }

    /** Append @p sample, evicting the oldest one when full. */
    void
    push(double sample)
    {
        if (ring_.size() < 2 * capacity_)
            ring_.push_back(sample);
        else
            ring_[next_] = sample;
        next_ = next_ + 1 == 2 * capacity_ ? 0 : next_ + 1;
        ++pushed_;
    }

    std::size_t
    size() const
    {
        return pushed_ < capacity_ ? static_cast<std::size_t>(pushed_)
                                   : capacity_;
    }
    bool empty() const { return pushed_ == 0; }

    /** The most recently pushed sample; the window must be non-empty. */
    double
    back() const
    {
        return ring_[(next_ == 0 ? ring_.size() : next_) - 1];
    }

    /** Exact p-quantile of the window; the window must be non-empty. */
    double
    percentile(double p) const
    {
        sync();
        return exactPercentileSorted(sorted_, p);
    }

  private:
    /** The sample of push number @p i (0-based); it must still be in
     *  the ring, i.e. among the last 2w pushes. */
    double at(std::uint64_t i) const { return ring_[i % ring_.size()]; }

    /** Bring sorted_ up to the latest push. */
    void
    sync() const
    {
        if (pushed_ - synced_ >= capacity_) {
            sorted_.clear();
            for (std::uint64_t i = pushed_ - capacity_; i < pushed_; ++i)
                sorted_.push_back(at(i));
            std::sort(sorted_.begin(), sorted_.end());
            synced_ = pushed_;
            return;
        }
        for (; synced_ < pushed_; ++synced_) {
            const double sample = at(synced_);
            if (synced_ < capacity_) {
                sorted_.insert(std::upper_bound(sorted_.begin(),
                                                sorted_.end(), sample),
                               sample);
                continue;
            }
            // Evict and insert in one shift: the run between the
            // evicted slot and the insertion point moves by one
            // towards the hole.
            const double oldest = at(synced_ - capacity_);
            auto out =
                std::lower_bound(sorted_.begin(), sorted_.end(), oldest);
            auto in =
                std::upper_bound(sorted_.begin(), sorted_.end(), sample);
            if (in > out) {
                std::move(out + 1, in, out);
                *(in - 1) = sample;
            } else {
                std::move_backward(in, out, out + 1);
                *in = sample;
            }
        }
    }

    std::size_t capacity_;
    std::vector<double> ring_; //!< push i lives in slot i % (2w)
    std::size_t next_ = 0;     //!< slot of the next push
    std::uint64_t pushed_ = 0; //!< pushes so far
    mutable std::vector<double> sorted_; //!< the window as of synced_
    mutable std::uint64_t synced_ = 0;   //!< pushes sorted_ reflects
};

} // namespace stats
} // namespace equinox

#endif // EQUINOX_STATS_SLIDING_WINDOW_HH
