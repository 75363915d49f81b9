/**
 * @file
 * Unit tests for the running-mean accumulator.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace memnet
{
namespace
{

TEST(Average, EmptyIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

TEST(Average, MeanAndTotal)
{
    Average a;
    a.sample(1.0);
    a.sample(2.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.total(), 9.0);
    EXPECT_EQ(a.count(), 3u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
}

} // namespace
} // namespace memnet
