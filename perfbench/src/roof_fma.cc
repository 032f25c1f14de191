// FMA-peak loop of the roof calibration. This file alone is built
// with -mavx2 -mfma (when the compiler has them); the AVX2 path runs
// only on CPUs that report both features.

#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "bench.h"

namespace pb {

namespace {

volatile float g_sink = 0.0f;

} // namespace

double
fmaPeakPass(std::uint64_t iters)
{
#if defined(__AVX2__) && defined(__FMA__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        // Ten independent accumulators cover the FMA latency x
        // throughput product of current x86 cores.
        constexpr int kAcc = 10;
        __m256 acc[kAcc];
        for (int a = 0; a < kAcc; ++a)
            acc[a] = _mm256_set1_ps(static_cast<float>(a) * 1e-3f);
        const __m256 mul = _mm256_set1_ps(0.999999f);
        const __m256 add = _mm256_set1_ps(1e-7f);
        for (std::uint64_t i = 0; i < iters; ++i)
            for (int a = 0; a < kAcc; ++a)
                acc[a] = _mm256_fmadd_ps(acc[a], mul, add);
        __m256 total = acc[0];
        for (int a = 1; a < kAcc; ++a)
            total = _mm256_add_ps(total, acc[a]);
        float lanes[8];
        _mm256_storeu_ps(lanes, total);
        g_sink = lanes[0];
        return static_cast<double>(iters) * kAcc * 8 * 2;
    }
#endif
    constexpr int kAcc = 8;
    float acc[kAcc];
    for (int a = 0; a < kAcc; ++a)
        acc[a] = static_cast<float>(a) * 1e-3f;
    for (std::uint64_t i = 0; i < iters; ++i)
        for (int a = 0; a < kAcc; ++a)
            acc[a] = acc[a] * 0.999999f + 1e-7f;
    float total = 0.0f;
    for (float v : acc)
        total += v;
    g_sink = total;
    return static_cast<double>(iters) * kAcc * 2;
}

} // namespace pb
