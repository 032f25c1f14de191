/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, the per-phase
 * measurement record every workload fills, result digests and exact
 * work counts for the correctness checks, registry deltas, and the
 * span tracer used by traced runs.
 *
 * Every span is recorded here, in the benchmark's own code, around a
 * call into the library's public API; the library itself is not
 * instrumented further.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/pipeline.h"
#include "serve/async_pipeline.h"

namespace pb {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point from, Clock::time_point to);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".";   ///< scratch files (the .fcpc)
    std::string trace_out;       ///< Chrome trace path; empty = none
};

/** Deterministic per-purpose seed derived from the run seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Pool size of the single serving shard: every hardware thread. */
unsigned poolThreads();

/** Linear-interpolated quantile @p q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> values, double q);

/** Process CPU time (user + system), seconds. */
double processCpuSeconds();

/**
 * Exact work counts of one result. They depend only on the input and
 * the configuration, so every serving of one input must repeat them
 * exactly.
 */
struct Counts
{
    std::uint64_t elements_traversed = 0;
    std::uint64_t distance_computations = 0;
    std::uint64_t bytes_gathered = 0;
    std::uint64_t total_macs = 0;
    std::uint64_t sa_mlp_rows = 0;

    Counts &operator+=(const Counts &o);
    bool operator==(const Counts &o) const = default;
};

Counts countsOf(const fc::BatchResult &result);

/** 64-bit digest of every output array of a result. */
std::uint64_t digestOf(const fc::BatchResult &result);

/** What a served result must match. */
struct Reference
{
    std::uint64_t digest = 0;
    Counts counts;
};

Counts sumCounts(const std::vector<Reference> &refs);

class Tracer;

/**
 * Reference result of @p cloud on the sequential path: a one-thread
 * FractalCloudPipeline's stage calls (partition, sample, group,
 * gather) and, when the request carries a network, Network::run
 * with no pool. Spans of each call go to @p tracer when set.
 */
Reference referenceOf(const fc::data::PointCloud &cloud,
                      const fc::PipelineOptions &pipeline,
                      const fc::BatchRequest &request, Tracer *tracer);

/** Microsecond sums of the stage histograms the library keeps. */
struct LayerSums
{
    /** nn.stage_us{stage=...}, indexed by NnStage. */
    std::array<std::uint64_t, 8> nn{};
    /** serve.stage_us{stage=...}, indexed by ServeStage. */
    std::array<std::uint64_t, 5> serve{};
    std::uint64_t prefetch_hits = 0;
    std::uint64_t prefetch_waits = 0;
};

enum NnStage { kNnPartition, kNnFps, kNnNeighbor, kNnGather, kNnMlp,
               kNnInterpolate, kNnMlpUnique, kNnAggregate };
enum ServeStage { kServePartition, kServeSample, kServeGroup,
                  kServeGather, kServeInference };

LayerSums readLayers(fc::core::metrics::Registry &registry);
LayerSums operator-(const LayerSums &a, const LayerSums &b);

/** Storage-layer calls timed directly (lidar-ingest, traced). */
struct StorageProbe
{
    std::vector<double> open_ms;
    std::vector<double> validate_pass_ms; ///< Σ validateBlock per pass
    std::vector<double> read_block_us;
    double validated_bytes = 0;
    double validate_s = 0;
};

/**
 * One measured phase of a workload. Requests are counted when
 * attempted; a request fails when it is rejected, expired, cancelled,
 * failed, refused by storage, or its result does not match its
 * reference.
 */
struct Phase
{
    double wall_s = 0;        ///< phase start to last result
    /** Input points of Done requests per second: the median over
     *  requests (or passes) of their own rate where the load is a
     *  closed loop, so a host stall hits one sample, not the run. */
    double points_per_s = 0;
    double cpu_s = 0;         ///< process CPU time over the phase
    double primary_ms = 0;    ///< the workload's headline time

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched = 0; ///< digest or count mismatches
    std::uint64_t rejected = 0;
    std::uint64_t expired = 0;
    std::uint64_t done = 0;
    std::uint64_t done_points = 0;
    std::uint64_t spilled = 0;

    std::vector<double> latency_ms;    ///< every Done request
    std::vector<double> fg_latency_ms; ///< latency-sensitive class
    std::vector<double> bg_latency_ms; ///< background class
    std::uint64_t fg_sent = 0;
    std::uint64_t fg_in_slo = 0;

    std::vector<double> queue_wait_ms;    ///< started - submitted
    std::vector<double> result_copy_us;   ///< Done -> result in hand
    std::vector<double> generator_lag_ms; ///< send - due
    double service_ms = 0;                ///< Σ finished - started
    std::uint64_t macs = 0;               ///< Σ total_macs of Done

    LayerSums layers;      ///< registry deltas over the phase
    StorageProbe storage;

    /** Record one terminal outcome against @p ref. Returns true when
     *  the request is Done and matches. */
    bool account(const fc::serve::RequestOutcome &outcome,
                 const Reference &ref, std::size_t points);
};

/**
 * In-memory span recorder for traced runs. Spans carry the request
 * (ticket) they belong to; stage boundaries come from
 * ServeOptions::stage_observer on the executing workers.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin);

    void span(std::uint64_t request, const char *name,
              Clock::time_point start, Clock::time_point end);

    /** Stage-observer entry point (thread-safe). */
    void boundary(fc::serve::Ticket ticket, fc::serve::Stage stage);

    /** Recording switch: untraced phases of a traced run leave it
     *  off, so the observer only drops the event. */
    void enable(bool on);

    /** Σ over requests of the partition / sample / group stage spans
     *  bounded by observer boundaries recorded at or after @p since,
     *  microseconds. */
    struct StageSums
    {
        double partition_us = 0;
        double sample_us = 0;
        double group_us = 0;
    };
    StageSums stageSums(Clock::time_point since) const;

    /** Write every span (and the stage spans) as a Chrome trace. */
    bool write(const std::string &path) const;

  private:
    /** Boundary times of one request, indexed by serve::Stage. */
    using StageTimes = std::array<Clock::time_point, 4>;

    /** Boundaries recorded at or after @p since, grouped by request
     *  (caller holds mutex_). */
    std::vector<std::pair<std::uint64_t, StageTimes>>
    stageTimes(Clock::time_point since) const;

    struct Span
    {
        std::uint64_t request;
        const char *name;
        Clock::time_point start, end;
    };
    struct Boundary
    {
        std::uint64_t request;
        fc::serve::Stage stage;
        Clock::time_point at;
    };

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<Boundary> boundaries_;
};

/** A workload: set-up (timed into setup_s) and measured phases. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Inputs, references, pipeline and warm-up. */
    virtual void setup(const Options &options, Tracer *tracer) = 0;

    /** Run the load for @p seconds. A non-null @p tracer records
     *  this phase's spans. */
    virtual Phase measure(double seconds, Tracer *tracer) = 0;

    /** Exact counts summed over the workload's distinct inputs. */
    virtual Counts inputCounts() const = 0;

    /** The serving pipeline (host descriptor: pinned()). */
    virtual const fc::serve::AsyncPipeline &pipeline() const = 0;
};

std::unique_ptr<Workload> makeSceneSeg();
std::unique_ptr<Workload> makeLidarIngest();
std::unique_ptr<Workload> makeServeMixed();

/** Serving options shared by every workload: one shard, a pool of
 *  poolThreads() workers, Fractal partitioning. The stage observer
 *  is installed only when @p tracer is set. */
fc::serve::ServeOptions serveOptions(std::uint32_t threshold,
                                     Tracer *tracer);

/** Roofs measured on this host. */
struct Roofs
{
    double fma_gflops = 0;     ///< all pool threads together
    double copy_gbps = 0;      ///< one thread, memcpy
    double copy_array_mib = 0; ///< size of each of the two arrays
    double llc_mib = 0;
};

Roofs calibrateRoofs(unsigned threads);

/** Floating-point operations of one FMA-peak pass of @p iters
 *  iterations on the calling thread. */
double fmaPeakPass(std::uint64_t iters);

} // namespace pb

#endif // PERFBENCH_BENCH_H
