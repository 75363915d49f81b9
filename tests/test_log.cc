/**
 * @file
 * Tests for the logging/error helpers.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/log.hh"

namespace memnet
{
namespace
{

TEST(Log, PanicAbortsByDefault)
{
    EXPECT_DEATH(memnet_panic("boom ", 42), "panic: boom 42");
}

TEST(Log, FatalExitsWithError)
{
    EXPECT_EXIT(memnet_fatal("bad config: ", "x"),
                ::testing::ExitedWithCode(1), "fatal: bad config: x");
}

TEST(Log, AssertPassesOnTrue)
{
    memnet_assert(1 + 1 == 2, "arithmetic");
    SUCCEED();
}

TEST(Log, AssertDiesOnFalse)
{
    EXPECT_DEATH(memnet_assert(false, "ctx ", 7),
                 "assertion failed.*ctx 7");
}

TEST(Log, ThrowOnErrorHookThrowsInstead)
{
    detail::setThrowOnError(true);
    EXPECT_THROW(memnet_panic("thrown"), std::runtime_error);
    EXPECT_THROW(memnet_fatal("thrown too"), std::runtime_error);
    detail::setThrowOnError(false);
}

TEST(Log, MessageFormatterConcatenatesMixedTypes)
{
    EXPECT_EQ(detail::formatMessage("a=", 1, " b=", 2.5, " c"),
              "a=1 b=2.5 c");
    EXPECT_EQ(detail::formatMessage(), "");
}

TEST(Log, WarnAndInformDoNotTerminate)
{
    memnet_warn("just a warning ", 1);
    memnet_inform("status ", 2);
    SUCCEED();
}

TEST(Log, SinkCapturesWarnAndInformWithLevels)
{
    std::vector<std::pair<LogLevel, std::string>> captured;
    LogSink prev = setLogSink([&](LogLevel level, const std::string &m) {
        captured.emplace_back(level, m);
    });
    memnet_warn("disk ", 90, "% full");
    memnet_inform("phase ", 2, " done");
    setLogSink(std::move(prev));

    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
    EXPECT_EQ(captured[0].second, "disk 90% full");
    EXPECT_EQ(captured[1].first, LogLevel::Inform);
    EXPECT_EQ(captured[1].second, "phase 2 done");
}

TEST(Log, SetLogSinkReturnsPreviousAndEmptyRestoresDefault)
{
    int outer = 0, inner = 0;
    LogSink none = setLogSink(
        [&](LogLevel, const std::string &) { ++outer; });
    EXPECT_FALSE(none); // default stderr sink was active

    LogSink prev = setLogSink(
        [&](LogLevel, const std::string &) { ++inner; });
    EXPECT_TRUE(prev);
    memnet_inform("to inner");
    EXPECT_EQ(inner, 1);
    EXPECT_EQ(outer, 0);

    setLogSink(std::move(prev)); // restore the outer capture
    memnet_inform("to outer");
    EXPECT_EQ(outer, 1);

    setLogSink({}); // back to the default stderr sink
    memnet_warn("default again");
    EXPECT_EQ(outer, 1);
    EXPECT_EQ(inner, 1);
}

TEST(Log, LevelNames)
{
    EXPECT_STREQ(logLevelName(LogLevel::Inform), "info");
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
}

} // namespace
} // namespace memnet
