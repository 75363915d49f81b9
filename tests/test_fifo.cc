/**
 * @file
 * Differential tests of the ring FIFO against std::deque: every
 * operation sequence must leave both with the same contents, front and
 * back.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>

#include "sim/fifo.hh"
#include "sim/random.hh"

namespace memnet
{
namespace
{

/** Same size, front, back and element order (drains a copy). */
template <typename T>
void
expectSame(const Fifo<T> &fifo, const std::deque<T> &ref)
{
    ASSERT_EQ(fifo.size(), ref.size());
    ASSERT_EQ(fifo.empty(), ref.empty());
    if (ref.empty())
        return;
    EXPECT_EQ(fifo.front(), ref.front());
    EXPECT_EQ(fifo.back(), ref.back());
    Fifo<T> copy = fifo;
    for (const T &v : ref) {
        ASSERT_EQ(copy.front(), v);
        copy.pop_front();
    }
    EXPECT_TRUE(copy.empty());
}

TEST(Fifo, StartsEmpty)
{
    Fifo<int> f;
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.size(), 0u);
}

TEST(Fifo, PushFrontIntoEmptyRingWrapsToLastSlot)
{
    Fifo<int> f;
    std::deque<int> ref;
    // The first push_front lands on slot 0 - 1, i.e. the ring's last.
    f.push_front(1);
    ref.push_front(1);
    expectSame(f, ref);
    f.push_back(2);
    ref.push_back(2);
    f.push_front(0);
    ref.push_front(0);
    expectSame(f, ref);
}

TEST(Fifo, PushFrontAtSlotZeroWraps)
{
    Fifo<int> f;
    std::deque<int> ref;
    for (int i = 0; i < 3; ++i) {
        f.push_back(i);
        ref.push_back(i);
    }
    // head is slot 0: the next push_front must wrap to the last slot.
    f.push_front(-1);
    ref.push_front(-1);
    expectSame(f, ref);
}

TEST(Fifo, GrowsWhileWrapped)
{
    // The ring starts at 8 slots and doubles when full.
    Fifo<int> f;
    std::deque<int> ref;
    // Fill all 8 slots, then rotate so the contents wrap.
    for (int i = 0; i < 8; ++i) {
        f.push_back(i);
        ref.push_back(i);
    }
    for (int i = 8; i < 13; ++i) {
        f.pop_front();
        ref.pop_front();
        f.push_back(i);
        ref.push_back(i);
    }
    expectSame(f, ref);
    // Full and wrapped: this push doubles the ring to 16 and unwraps it.
    f.push_back(13);
    ref.push_back(13);
    expectSame(f, ref);
    // Seven pushes at the front wrap the 16 slots and fill them; the
    // eighth grows the ring from the front.
    for (int i = 0; i < 8; ++i) {
        f.push_front(-i);
        ref.push_front(-i);
        expectSame(f, ref);
    }
}

TEST(Fifo, BackAfterWrap)
{
    Fifo<std::pair<int, std::int64_t>> f;
    std::deque<std::pair<int, std::int64_t>> ref;
    for (int round = 0; round < 40; ++round) {
        f.emplace_back(round, 10 * round);
        ref.emplace_back(round, 10 * round);
        if (round % 3 != 0) {
            f.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(f.back(), ref.back()) << "round " << round;
    }
    // Mutation through back() reaches the element front() later sees.
    f.back().second = -7;
    ref.back().second = -7;
    expectSame(f, ref);
}

TEST(Fifo, RandomInterleavingsMatchDeque)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Random rng(seed, 0x5151);
        Fifo<std::uint64_t> f;
        std::deque<std::uint64_t> ref;
        // Bias toward pushes early and pops late, so the ring grows
        // through several doublings while wrapped and drains again.
        for (int op = 0; op < 20000; ++op) {
            const bool growing = op < 10000;
            const std::uint64_t r = rng.next() % 100;
            const std::uint64_t v = rng.next();
            if (r < (growing ? 40u : 25u)) {
                f.push_back(v);
                ref.push_back(v);
            } else if (r < (growing ? 60u : 35u)) {
                f.push_front(v);
                ref.push_front(v);
            } else if (!ref.empty()) {
                ASSERT_EQ(f.front(), ref.front());
                f.pop_front();
                ref.pop_front();
            }
            ASSERT_EQ(f.size(), ref.size());
            if (!ref.empty()) {
                ASSERT_EQ(f.front(), ref.front()) << "seed " << seed
                                                  << " op " << op;
                ASSERT_EQ(f.back(), ref.back()) << "seed " << seed
                                                << " op " << op;
            }
        }
        expectSame(f, ref);
    }
}

} // namespace
} // namespace memnet
