/**
 * @file
 * Running-mean accumulator.
 *
 * A deliberately simple value type; components embed it and the facade
 * reads it out at the end of a run.
 */

#ifndef MEMNET_SIM_STATS_HH
#define MEMNET_SIM_STATS_HH

#include <cstdint>

namespace memnet
{

/** Running mean over double samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum += v;
        ++n;
    }

    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    std::uint64_t count() const { return n; }
    double total() const { return sum; }

    void
    reset()
    {
        sum = 0.0;
        n = 0;
    }

  private:
    double sum = 0.0;
    std::uint64_t n = 0;
};

} // namespace memnet

#endif // MEMNET_SIM_STATS_HH
