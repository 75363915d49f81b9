/**
 * @file
 * Property tests for obs::QuantileSketch, the fixed-memory streaming
 * histogram behind the latency observatory: bucket-mapping exactness,
 * the advertised rank-error bound against exact order statistics,
 * merge associativity, snapshot subtraction, and the empty-sketch
 * guarantees (always 0, never NaN/UB).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "obs/quantile_sketch.hh"

namespace memnet
{
namespace
{

using obs::QuantileSketch;

TEST(QuantileSketch, SmallValuesMapToExactUnitBuckets)
{
    for (std::uint64_t v = 0; v < 2 * QuantileSketch::kSubBuckets; ++v) {
        EXPECT_EQ(QuantileSketch::bucketOf(v),
                  static_cast<std::size_t>(v));
        EXPECT_EQ(QuantileSketch::bucketUpperBound(
                      QuantileSketch::bucketOf(v)),
                  v);
    }
}

TEST(QuantileSketch, BucketBoundsBracketEveryValue)
{
    // For any v, the bucket upper bound is >= v and overshoots by at
    // most kRelativeError — the invariant every quantile answer
    // inherits. Exercised across all magnitudes including the extremes.
    std::mt19937_64 rng(42);
    std::vector<std::uint64_t> values = {0, 1, 63, 64, 65, 1ULL << 40,
                                         ~std::uint64_t{0}};
    for (int i = 0; i < 20000; ++i) {
        const int bits = static_cast<int>(rng() % 64);
        values.push_back(rng() >> bits); // log-uniform magnitudes
    }
    for (std::uint64_t v : values) {
        const std::size_t idx = QuantileSketch::bucketOf(v);
        ASSERT_LT(idx, QuantileSketch::kBuckets);
        const std::uint64_t ub = QuantileSketch::bucketUpperBound(idx);
        ASSERT_GE(ub, v);
        ASSERT_LE(ub - v, v / QuantileSketch::kSubBuckets) << v;
    }
}

TEST(QuantileSketch, BucketIndexIsMonotoneAcrossBoundaries)
{
    std::mt19937_64 rng(7);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = rng() >> (rng() % 64);
        if (v == ~std::uint64_t{0})
            continue;
        ASSERT_LE(QuantileSketch::bucketOf(v),
                  QuantileSketch::bucketOf(v + 1))
            << v;
    }
}

TEST(QuantileSketch, EmptySketchAnswersZeroEverywhere)
{
    const QuantileSketch s;
    EXPECT_EQ(s.samples(), 0u);
    EXPECT_EQ(s.sum(), 0u);
    EXPECT_EQ(s.maxValue(), 0u);
    for (double q : {0.0, 0.5, 0.99, 0.999, 1.0, -1.0, 2.0})
        EXPECT_EQ(s.quantile(q), 0u) << q;
}

TEST(QuantileSketch, SingleSampleIsEveryQuantile)
{
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{12345},
                            std::uint64_t{1} << 50}) {
        QuantileSketch s;
        s.record(v);
        EXPECT_EQ(s.samples(), 1u);
        EXPECT_EQ(s.maxValue(), v);
        // The upper-bound estimate clamps to the exact max, so a
        // one-sample sketch answers exactly.
        for (double q : {0.0, 0.5, 0.999, 1.0})
            EXPECT_EQ(s.quantile(q), v) << q;
    }
}

TEST(QuantileSketch, RankErrorBoundHoldsAgainstExactOrderStatistics)
{
    // The core guarantee: for any quantile q, the estimate brackets the
    // exact order statistic from above by at most kRelativeError
    // (integer slack of 1 for the floor division).
    std::mt19937_64 rng(1234);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{17},
                                std::size_t{1000},
                                std::size_t{20000}}) {
        QuantileSketch s;
        std::vector<std::uint64_t> exact;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t v = rng() >> (rng() % 50);
            s.record(v);
            exact.push_back(v);
        }
        std::sort(exact.begin(), exact.end());
        for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
            std::uint64_t rank = static_cast<std::uint64_t>(
                q * static_cast<double>(n) + 0.5);
            rank = std::max<std::uint64_t>(
                1, std::min<std::uint64_t>(rank, n));
            const std::uint64_t truth = exact[rank - 1];
            const std::uint64_t est = s.quantile(q);
            ASSERT_GE(est, truth) << "n=" << n << " q=" << q;
            ASSERT_LE(est - truth,
                      truth / QuantileSketch::kSubBuckets + 1)
                << "n=" << n << " q=" << q;
        }
        EXPECT_EQ(s.quantile(1.0), exact.back()); // max is exact
    }
}

TEST(QuantileSketch, QuantileIsMonotoneInQ)
{
    std::mt19937_64 rng(99);
    QuantileSketch s;
    for (int i = 0; i < 5000; ++i)
        s.record(rng() >> (rng() % 40));
    std::uint64_t last = 0;
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        const std::uint64_t v = s.quantile(q);
        ASSERT_GE(v, last) << q;
        last = v;
    }
}

TEST(QuantileSketch, MergeIsExactAndAssociative)
{
    std::mt19937_64 rng(5);
    QuantileSketch a, b, c, all;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t v = rng() >> (rng() % 48);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
        all.record(v);
    }
    // (a + b) + c
    QuantileSketch left = a;
    left.merge(b);
    left.merge(c);
    // a + (b + c)
    QuantileSketch bc = b;
    bc.merge(c);
    QuantileSketch right = a;
    right.merge(bc);

    EXPECT_TRUE(left == right);
    // And both equal the sketch that saw every value directly — the
    // property the multichannel cross-channel merge relies on.
    EXPECT_TRUE(left == all);
}

TEST(QuantileSketch, SubtractRecoversTheDeltaWindow)
{
    // Epoch-delta usage: snapshot, keep recording, subtract. Early
    // values are kept smaller than late ones so the cumulative max
    // equals the delta window's max and full equality applies.
    std::mt19937_64 rng(11);
    QuantileSketch s, tail_only;
    for (int i = 0; i < 1000; ++i)
        s.record(rng() % 1000);
    const QuantileSketch snap = s;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t v = 1000 + rng() % 100000;
        s.record(v);
        tail_only.record(v);
    }
    QuantileSketch delta = s;
    delta.subtract(snap);
    EXPECT_TRUE(delta == tail_only);
    EXPECT_EQ(delta.samples(), 500u);
}

TEST(QuantileSketch, RandomSampleCountsNeverProduceNonsense)
{
    // Property sweep over random sample counts, explicitly including 0
    // and 1: quantiles are always finite uint64s bounded by the exact
    // max, and q=1 always answers it.
    std::mt19937_64 rng(2026);
    std::vector<std::size_t> counts = {0, 1};
    for (int i = 0; i < 40; ++i)
        counts.push_back(rng() % 2000);
    for (std::size_t n : counts) {
        QuantileSketch s;
        std::uint64_t mx = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t v = rng() >> (rng() % 60);
            s.record(v);
            mx = std::max(mx, v);
        }
        EXPECT_EQ(s.samples(), n);
        EXPECT_EQ(s.maxValue(), mx);
        for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
            const std::uint64_t v = s.quantile(q);
            EXPECT_LE(v, mx) << "n=" << n << " q=" << q;
            if (n == 0) {
                EXPECT_EQ(v, 0u);
            }
        }
        if (n > 0) {
            EXPECT_EQ(s.quantile(1.0), mx);
        }
    }
}

TEST(LatencyPercentiles, SummarizeSketchFillsEveryField)
{
    obs::QuantileSketch s;
    for (std::uint64_t v = 1; v <= 100; ++v)
        s.record(v * 1000);
    const LatencyPercentiles p = summarizeSketch(s);
    EXPECT_EQ(p.samples, 100u);
    EXPECT_EQ(p.sumPs, 5050000u);
    EXPECT_EQ(p.maxPs, 100000u);
    EXPECT_LE(p.p50Ps, p.p90Ps);
    EXPECT_LE(p.p90Ps, p.p99Ps);
    EXPECT_LE(p.p99Ps, p.p999Ps);
    EXPECT_LE(p.p999Ps, p.maxPs);
}

} // namespace
} // namespace memnet
