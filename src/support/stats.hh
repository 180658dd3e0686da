/**
 * @file
 * Small summary-statistics helpers used by the benches and metrics
 * aggregation (arithmetic/geometric/harmonic means, running stats).
 *
 * RunningStat is safe to share between engine worker threads: add()
 * and every accessor take an internal mutex. Accumulation is a
 * handful of arithmetic operations, so a mutex (rather than
 * per-thread partials) keeps the type copyable and the totals exact
 * without measurable contention at gpsched's job granularity.
 */

#ifndef GPSCHED_SUPPORT_STATS_HH
#define GPSCHED_SUPPORT_STATS_HH

#include <cstddef>
#include <mutex>
#include <vector>

namespace gpsched
{

/** Thread-safe streaming accumulator for count/mean/min/max/variance. */
class RunningStat
{
  public:
    RunningStat() = default;
    RunningStat(const RunningStat &other);
    RunningStat &operator=(const RunningStat &other);

    /** Adds one sample. */
    void add(double x);

    /** Number of samples added. */
    std::size_t count() const;

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Population variance (0 when fewer than 2 samples). */
    double variance() const;

    /** Smallest sample (0 when empty). */
    double min() const;

    /** Largest sample (0 when empty). */
    double max() const;

    /** Sum of all samples. */
    double sum() const;

  private:
    mutable std::mutex mutex_;
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Thread-safe fixed-bucket histogram with log-linear bucket bounds.
 *
 * Companion to RunningStat for when a mean hides the story (task wait
 * times, compile latencies): tracks count/sum/min/max exactly and
 * approximates percentiles from the bucket counts. Bucket bounds are
 * fixed at construction, so concurrent add() never reallocates and
 * the type stays copyable like RunningStat. The first bucket covers
 * values <= lowest; above it every octave (lowest*2^(k-1),
 * lowest*2^k] is split into kSubBuckets equal-width buckets, and a
 * final catch-all bucket takes what lies past the last octave.
 *
 * Percentile queries return the upper bound of the first bucket whose
 * cumulative count reaches the rank, clamped to the observed
 * [min, max]. A bucket's upper bound is at most 1 + 1/kSubBuckets
 * times its lower bound, so between lowest and the last octave the
 * estimate is never below the exact order statistic and at most
 * 12.5% above it: fine enough to gate on.
 */
class Histogram
{
  public:
    /** Linear sub-buckets per octave. */
    static constexpr std::size_t kSubBuckets = 8;

    /**
     * @param lowest Upper bound of the first bucket (must be > 0).
     * @param octaves Octaves above it (>= 1); one unbounded overflow
     *        bucket is added on top.
     */
    explicit Histogram(double lowest = 1e-6, std::size_t octaves = 48);
    Histogram(const Histogram &other);
    Histogram &operator=(const Histogram &other);

    /** Adds one sample (negative samples clamp into bucket 0). */
    void add(double x);

    /** Number of samples added. */
    std::size_t count() const;

    /** Sum of all samples. */
    double sum() const;

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Smallest sample (0 when empty). */
    double min() const;

    /** Largest sample (0 when empty). */
    double max() const;

    /** Approximate q-quantile, q in [0,1] (0 when empty). */
    double quantile(double q) const;

    /** Approximate median. */
    double p50() const { return quantile(0.50); }

    /** Approximate 95th percentile. */
    double p95() const { return quantile(0.95); }

    /** Approximate 99th percentile. */
    double p99() const { return quantile(0.99); }

    /** One bucket's inclusive upper bound and its sample count. */
    struct Bucket
    {
        double upperBound; // +inf for the overflow bucket
        std::size_t count;
    };

    /** Snapshot of all buckets (including the overflow bucket). */
    std::vector<Bucket> buckets() const;

  private:
    mutable std::mutex mutex_;
    std::vector<double> bounds_; // inclusive upper bounds, ascending
    std::vector<std::size_t> counts_; // bounds_.size() + 1 entries
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Arithmetic mean of @p xs; 0 for empty input. */
double arithmeticMean(const std::vector<double> &xs);

/** Geometric mean of positive @p xs; 0 for empty input. */
double geometricMean(const std::vector<double> &xs);

/** Harmonic mean of positive @p xs; 0 for empty input. */
double harmonicMean(const std::vector<double> &xs);

/** Relative speedup of @p x over @p baseline in percent. */
double speedupPercent(double x, double baseline);

} // namespace gpsched

#endif // GPSCHED_SUPPORT_STATS_HH
