/**
 * @file
 * A fixed-length sliding window of samples that stays sorted, so its
 * percentiles cost O(1) per query and O(w) memmove per push instead of
 * a copy-and-sort of the whole window.
 */

#ifndef EQUINOX_STATS_SLIDING_WINDOW_HH
#define EQUINOX_STATS_SLIDING_WINDOW_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace stats
{

/**
 * The last `capacity` samples, kept twice: in arrival order (a ring
 * buffer, to know which sample leaves next) and in ascending order (to
 * answer percentiles). A push evicts the oldest sample once the window
 * is full. The sorted copy is the window's multiset, which is unique,
 * so percentile() is bit-identical to exactPercentileSorted over a
 * freshly sorted copy of the same samples -- the copy-and-sort this
 * type replaces.
 *
 * Samples must be NaN-free (NaN breaks the ordering); +inf is fine.
 */
class SlidingWindow
{
  public:
    explicit SlidingWindow(std::size_t capacity) : capacity_(capacity)
    {
        EQX_ASSERT(capacity > 0, "sliding window needs a nonzero length");
        fifo_.reserve(capacity);
        sorted_.reserve(capacity);
    }

    /** Append @p sample, evicting the oldest one when full. */
    void
    push(double sample)
    {
        back_ = sample;
        if (fifo_.size() < capacity_) {
            fifo_.push_back(sample);
            sorted_.insert(
                std::upper_bound(sorted_.begin(), sorted_.end(), sample),
                sample);
            return;
        }
        const double oldest = fifo_[head_];
        fifo_[head_] = sample;
        head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
        // Evict and insert in one shift: the run between the evicted
        // slot and the insertion point moves by one towards the hole.
        auto out = std::lower_bound(sorted_.begin(), sorted_.end(), oldest);
        auto in = std::upper_bound(sorted_.begin(), sorted_.end(), sample);
        if (in > out) {
            std::move(out + 1, in, out);
            *(in - 1) = sample;
        } else {
            std::move_backward(in, out, out + 1);
            *in = sample;
        }
    }

    std::size_t size() const { return fifo_.size(); }
    bool empty() const { return fifo_.empty(); }

    /** The most recently pushed sample; the window must be non-empty. */
    double back() const { return back_; }

    /** Exact p-quantile of the window; the window must be non-empty. */
    double
    percentile(double p) const
    {
        return exactPercentileSorted(sorted_, p);
    }

  private:
    std::size_t capacity_;
    std::vector<double> fifo_;   //!< ring buffer once full
    std::size_t head_ = 0;       //!< oldest sample's slot when full
    std::vector<double> sorted_; //!< the same samples, ascending
    double back_ = 0.0;
};

} // namespace stats
} // namespace equinox

#endif // EQUINOX_STATS_SLIDING_WINDOW_HH
