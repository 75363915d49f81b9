/**
 * @file
 * Unit tests for the ROO idle-interval histogram.
 */

#include <gtest/gtest.h>

#include "mgmt/idle_histogram.hh"

namespace memnet
{
namespace
{

std::vector<Tick>
paperThresholds()
{
    return {ns(32), ns(128), ns(512), ns(2048)};
}

TEST(IdleHistogram, ShortIntervalsIgnored)
{
    IdleHistogram h(paperThresholds());
    h.interval(ns(10));
    h.interval(ns(31));
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_EQ(h.wakeups(r), 0u);
}

TEST(IdleHistogram, WakeupsAreCumulativeFromThreshold)
{
    IdleHistogram h(paperThresholds());
    h.interval(ns(40));   // >= 32 only
    h.interval(ns(200));  // >= 32, 128
    h.interval(ns(600));  // >= 32, 128, 512
    h.interval(ns(5000)); // all
    EXPECT_EQ(h.wakeups(0), 4u);
    EXPECT_EQ(h.wakeups(1), 3u);
    EXPECT_EQ(h.wakeups(2), 2u);
    EXPECT_EQ(h.wakeups(3), 1u);
}

TEST(IdleHistogram, OffTimeSubtractsThreshold)
{
    IdleHistogram h(paperThresholds());
    h.interval(ns(100)); // 32-mode sleeps 68 ns
    h.interval(ns(160)); // 32-mode: 128; 128-mode: 32
    EXPECT_EQ(h.offTime(0), ns(68) + ns(128));
    EXPECT_EQ(h.offTime(1), ns(32));
    EXPECT_EQ(h.offTime(2), 0);
}

TEST(IdleHistogram, OffTimeForLargestThreshold)
{
    IdleHistogram h(paperThresholds());
    h.interval(us(10));
    EXPECT_EQ(h.offTime(3), us(10) - ns(2048));
    EXPECT_EQ(h.wakeups(3), 1u);
}

TEST(IdleHistogram, ExactThresholdCounts)
{
    IdleHistogram h(paperThresholds());
    h.interval(ns(32));
    EXPECT_EQ(h.wakeups(0), 1u);
    EXPECT_EQ(h.offTime(0), 0);
}

TEST(IdleHistogram, ThresholdsAreInclusiveLowerBounds)
{
    // An interval exactly at threshold r lands in bucket r; one tick
    // shorter lands in bucket r - 1 (or nowhere below the first).
    IdleHistogram h(paperThresholds());
    for (Tick t : paperThresholds()) {
        h.interval(t - 1);
        h.interval(t);
    }
    EXPECT_EQ(h.wakeups(0), 7u);
    EXPECT_EQ(h.wakeups(1), 5u);
    EXPECT_EQ(h.wakeups(2), 3u);
    EXPECT_EQ(h.wakeups(3), 1u);
    // Both ends of bucket 0 stay in it: the 32-mode off time is
    // (32 ns - 32 ns) + (128 ns - 1 - 32 ns).
    IdleHistogram low(paperThresholds());
    low.interval(ns(32));
    low.interval(ns(128) - 1);
    EXPECT_EQ(low.wakeups(0), 2u);
    EXPECT_EQ(low.wakeups(1), 0u);
    EXPECT_EQ(low.offTime(0), ns(128) - 1 - ns(32));
}

TEST(IdleHistogram, SingleThreshold)
{
    IdleHistogram h({ns(10)});
    h.interval(0);
    h.interval(ns(10) - 1);
    h.interval(ns(10));
    h.interval(ns(25));
    EXPECT_EQ(h.modes(), 1u);
    EXPECT_EQ(h.wakeups(0), 2u);
    EXPECT_EQ(h.offTime(0), ns(15));
}

TEST(IdleHistogram, ResetClears)
{
    IdleHistogram h(paperThresholds());
    h.interval(us(1));
    h.resetEpoch();
    EXPECT_EQ(h.wakeups(0), 0u);
    EXPECT_EQ(h.offTime(0), 0);
}

TEST(IdleHistogram, OffTimePropertyNonNegativeAndMonotone)
{
    // Property over a pseudo-random interval mix: predicted off time is
    // never negative (each recorded interval is at least its bucket's
    // threshold, hence at least threshold r for every r <= bucket), and
    // it can only shrink as the threshold index grows — a deeper ROO
    // mode waits longer before sleeping, so it never sleeps more.
    IdleHistogram h(paperThresholds());
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 500; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.interval(static_cast<Tick>(x % us(5)));
        for (std::size_t r = 0; r < h.modes(); ++r)
            ASSERT_GE(h.offTime(r), 0) << "after interval " << i;
        for (std::size_t r = 1; r < h.modes(); ++r)
            ASSERT_LE(h.offTime(r), h.offTime(r - 1))
                << "after interval " << i;
    }
}

TEST(IdleHistogram, EmptyThresholdListIsInert)
{
    IdleHistogram h({});
    h.interval(us(1));
    EXPECT_EQ(h.modes(), 0u);
}

} // namespace
} // namespace memnet
