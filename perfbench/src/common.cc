#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "nn/network.h"

namespace pb {

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over the combined value.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

unsigned
poolThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// ------------------------------------------------------------ counts

Counts &
Counts::operator+=(const Counts &o)
{
    elements_traversed += o.elements_traversed;
    distance_computations += o.distance_computations;
    bytes_gathered += o.bytes_gathered;
    total_macs += o.total_macs;
    sa_mlp_rows += o.sa_mlp_rows;
    return *this;
}

Counts
sumCounts(const std::vector<Reference> &refs)
{
    Counts total;
    for (const Reference &ref : refs)
        total += ref.counts;
    return total;
}

Counts
countsOf(const fc::BatchResult &result)
{
    fc::ops::OpStats ops = result.sampled.stats;
    ops += result.grouped.stats;
    ops += result.gathered.stats;
    Counts counts;
    counts.elements_traversed =
        result.partition_stats.elements_traversed;
    if (result.inference) {
        ops += result.inference->op_stats;
        counts.elements_traversed +=
            result.inference->partition_stats.elements_traversed;
        counts.total_macs = result.inference->total_macs;
        counts.sa_mlp_rows = result.inference->sa_mlp_rows;
    }
    counts.distance_computations = ops.distance_computations;
    counts.bytes_gathered = ops.bytes_gathered;
    return counts;
}

// ------------------------------------------------------------ digest

namespace {

/** Four-lane multiply-xor hash over 64-bit words: fast enough to
 *  check every output byte of every request. */
class Hasher
{
  public:
    template <typename T>
    void
    add(const std::vector<T> &v)
    {
        bytes(v.data(), v.size() * sizeof(T));
    }

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        mixInto(lanes_[0], n);
        std::size_t i = 0;
        for (; i + 32 <= n; i += 32) {
            for (int l = 0; l < 4; ++l) {
                std::uint64_t w;
                std::memcpy(&w, p + i + 8 * l, 8);
                mixInto(lanes_[l], w);
            }
        }
        for (; i < n; ++i)
            mixInto(lanes_[i & 3], p[i]);
    }

    std::uint64_t
    value() const
    {
        std::uint64_t h = 0;
        for (std::uint64_t lane : lanes_)
            mixInto(h, lane);
        return h;
    }

  private:
    static void
    mixInto(std::uint64_t &h, std::uint64_t w)
    {
        h = (h ^ w) * 0xff51afd7ed558ccdull;
        h ^= h >> 29;
    }

    std::uint64_t lanes_[4] = {1, 2, 3, 4};
};

} // namespace

std::uint64_t
digestOf(const fc::BatchResult &result)
{
    Hasher h;
    h.add(result.sampled.indices);
    h.add(result.sampled.positions);
    h.add(result.sampled.leaf_offsets);
    h.add(result.grouped.indices);
    h.add(result.grouped.counts);
    h.add(result.gathered.values);
    const std::uint64_t shape[] = {result.num_blocks,
                                   result.gathered.num_centers,
                                   result.gathered.k,
                                   result.gathered.channels};
    h.bytes(shape, sizeof(shape));
    if (result.inference) {
        h.add(result.inference->embedding.data());
        h.add(result.inference->point_features.data());
    }
    return h.value();
}

Reference
referenceOf(const fc::data::PointCloud &cloud,
            const fc::PipelineOptions &pipeline,
            const fc::BatchRequest &request, Tracer *tracer)
{
    fc::PipelineOptions sequential = pipeline;
    sequential.num_threads = 1;
    const auto span = [&](const char *name, Clock::time_point start) {
        if (tracer != nullptr)
            tracer->span(0, name, start, Clock::now());
    };

    Clock::time_point t = Clock::now();
    const fc::FractalCloudPipeline p(cloud, sequential);
    span("ref.partition", t);
    fc::BatchResult r;
    t = Clock::now();
    r.sampled = p.sample(request.sample_rate);
    span("ref.sample", t);
    t = Clock::now();
    r.grouped = p.group(r.sampled, request.radius, request.neighbors);
    span("ref.group", t);
    t = Clock::now();
    r.gathered = p.gather(r.sampled, r.grouped);
    span("ref.gather", t);
    r.partition_stats = p.partition().stats;
    r.num_blocks = p.tree().leaves().size();
    if (request.network != nullptr) {
        fc::nn::BackendOptions backend;
        backend.method = pipeline.method;
        backend.threshold = pipeline.threshold;
        backend.aggregation = request.aggregation;
        backend.root_partition = &p.partition();
        t = Clock::now();
        r.inference = request.network->run(p.cloud(), backend);
        span("ref.network_run", t);
    }
    return Reference{digestOf(r), countsOf(r)};
}

fc::serve::ServeOptions
serveOptions(std::uint32_t threshold, Tracer *tracer)
{
    fc::serve::ServeOptions options;
    options.pipeline.method = fc::part::Method::Fractal;
    options.pipeline.threshold = threshold;
    options.pipeline.num_threads = poolThreads();
    options.num_shards = 1;
    if (tracer != nullptr)
        options.stage_observer = [tracer](fc::serve::Ticket ticket,
                                          fc::serve::Stage stage) {
            tracer->boundary(ticket, stage);
        };
    return options;
}

// ------------------------------------------------------------ layers

LayerSums
readLayers(fc::core::metrics::Registry &registry)
{
    static constexpr const char *kNn[8] = {
        "partition", "fps", "neighbor", "gather",
        "mlp", "interpolate", "mlp_unique", "aggregate"};
    static constexpr const char *kServe[5] = {
        "partition", "sample", "group", "gather", "inference"};
    LayerSums sums;
    for (std::size_t i = 0; i < sums.nn.size(); ++i)
        sums.nn[i] = registry
                         .histogram(std::string("nn.stage_us{stage=") +
                                    kNn[i] + "}")
                         .sum();
    for (std::size_t i = 0; i < sums.serve.size(); ++i)
        sums.serve[i] =
            registry
                .histogram(std::string("serve.stage_us{stage=") +
                           kServe[i] + "}")
                .sum();
    sums.prefetch_hits =
        registry.counter("serve.ingest.prefetch_hits").value();
    sums.prefetch_waits =
        registry.counter("serve.ingest.prefetch_waits").value();
    return sums;
}

LayerSums
operator-(const LayerSums &a, const LayerSums &b)
{
    LayerSums d;
    for (std::size_t i = 0; i < d.nn.size(); ++i)
        d.nn[i] = a.nn[i] - b.nn[i];
    for (std::size_t i = 0; i < d.serve.size(); ++i)
        d.serve[i] = a.serve[i] - b.serve[i];
    d.prefetch_hits = a.prefetch_hits - b.prefetch_hits;
    d.prefetch_waits = a.prefetch_waits - b.prefetch_waits;
    return d;
}

// ------------------------------------------------------------- phase

bool
Phase::account(const fc::serve::RequestOutcome &outcome,
               const Reference &ref, std::size_t points)
{
    using fc::serve::RequestState;
    if (outcome.state == RequestState::Expired)
        ++expired;
    if (outcome.state != RequestState::Done) {
        ++failed;
        return false;
    }
    if (digestOf(outcome.result) != ref.digest ||
        !(countsOf(outcome.result) == ref.counts)) {
        ++mismatched;
        ++failed;
        return false;
    }
    ++done;
    done_points += points;
    queue_wait_ms.push_back(
        msBetween(outcome.timing.submitted, outcome.timing.started));
    service_ms +=
        msBetween(outcome.timing.started, outcome.timing.finished);
    if (outcome.spilled)
        ++spilled;
    if (outcome.result.inference)
        macs += outcome.result.inference->total_macs;
    return true;
}

// ------------------------------------------------------------ tracer

Tracer::Tracer(Clock::time_point origin) : origin_(origin)
{
    spans_.reserve(1 << 14);
    boundaries_.reserve(1 << 14);
}

void
Tracer::enable(bool on)
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = on;
}

void
Tracer::span(std::uint64_t request, const char *name,
             Clock::time_point start, Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (enabled_)
        spans_.push_back({request, name, start, end});
}

void
Tracer::boundary(fc::serve::Ticket ticket, fc::serve::Stage stage)
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    if (enabled_)
        boundaries_.push_back({ticket.id, stage, now});
}

std::vector<std::pair<std::uint64_t, Tracer::StageTimes>>
Tracer::stageTimes(Clock::time_point since) const
{
    std::vector<Boundary> sorted;
    for (const Boundary &b : boundaries_)
        if (b.at >= since)
            sorted.push_back(b);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Boundary &a, const Boundary &b) {
                         return a.request < b.request;
                     });
    std::vector<std::pair<std::uint64_t, StageTimes>> by_request;
    for (const Boundary &b : sorted) {
        if (by_request.empty() || by_request.back().first != b.request)
            by_request.push_back({b.request, StageTimes{}});
        by_request.back().second[static_cast<std::size_t>(b.stage)] =
            b.at;
    }
    return by_request;
}

Tracer::StageSums
Tracer::stageSums(Clock::time_point since) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto us = [](Clock::time_point a, Clock::time_point b) {
        if (a == Clock::time_point{} || b == Clock::time_point{})
            return 0.0;
        return msBetween(a, b) * 1e3;
    };
    StageSums sums;
    for (const auto &[request, t] : stageTimes(since)) {
        sums.partition_us += us(t[0], t[1]);
        sums.sample_us += us(t[1], t[2]);
        sums.group_us += us(t[2], t[3]);
    }
    return sums;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    const auto event = [&](const char *name, std::uint64_t request,
                           Clock::time_point start,
                           Clock::time_point end) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f}",
                     first ? "" : ",\n", name,
                     static_cast<unsigned long long>(request), us(start),
                     us(end) - us(start));
        first = false;
    };
    for (const Span &s : spans_)
        event(s.name, s.request, s.start, s.end);
    static constexpr const char *kStageSpan[3] = {
        "serve.partition", "serve.sample", "serve.group"};
    for (const auto &[request, t] : stageTimes(Clock::time_point{}))
        for (std::size_t i = 0; i < 3; ++i)
            if (t[i] != Clock::time_point{} &&
                t[i + 1] != Clock::time_point{})
                event(kStageSpan[i], request, t[i], t[i + 1]);
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace pb
