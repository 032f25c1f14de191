// Roofs measured on the running host: all-thread FMA peak (the MLP's
// roof) and one-thread copy bandwidth over arrays far larger than the
// last-level cache (the storage checksum pass's roof).

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "bench.h"

namespace pb {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/** Best of a few timed passes of @p fn, which returns work done. */
template <typename Fn>
double
bestRate(int passes, Fn &&fn)
{
    double best = 0.0;
    for (int p = 0; p < passes; ++p) {
        const Clock::time_point start = Clock::now();
        const double work = fn();
        const double s = msBetween(start, Clock::now()) * 1e-3;
        best = std::max(best, work / s);
    }
    return best;
}

} // namespace

Roofs
calibrateRoofs(unsigned threads)
{
    Roofs roofs;

    constexpr std::uint64_t kIters = 20'000'000;
    roofs.fma_gflops =
        bestRate(3, [&] {
            std::vector<double> flops(threads, 0.0);
            std::vector<std::thread> workers;
            for (unsigned t = 0; t < threads; ++t)
                workers.emplace_back(
                    [&flops, t] { flops[t] = fmaPeakPass(kIters); });
            for (std::thread &w : workers)
                w.join();
            double total = 0.0;
            for (double f : flops)
                total += f;
            return total;
        }) *
        1e-9;

    // Two arrays of twice the last-level cache each: the copy's
    // working set is four times the LLC, so it streams from DRAM.
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0)
        llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (llc <= 0)
        llc = 32l << 20;
    roofs.llc_mib = static_cast<double>(llc) / kMiB;
    const std::size_t bytes = 2 * static_cast<std::size_t>(llc);
    roofs.copy_array_mib = static_cast<double>(bytes) / kMiB;
    std::vector<char> src(bytes, 1);
    std::vector<char> dst(bytes, 0);
    roofs.copy_gbps = bestRate(3, [&] {
                          std::memcpy(dst.data(), src.data(), bytes);
                          return static_cast<double>(bytes);
                      }) *
                      1e-9;
    return roofs;
}

} // namespace pb
