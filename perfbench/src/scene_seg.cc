// scene-seg: offline semantic segmentation of large indoor scenes.
// PointNeXt (delayed aggregation) on 65,536-point S3DIS-like scenes,
// a closed loop with one request in flight: submitShared, then
// waitInto a reused RequestOutcome.

#include <stdexcept>
#include <thread>

#include "bench.h"
#include "dataset/s3dis.h"
#include "nn/models.h"
#include "nn/network.h"

namespace pb {

namespace {

constexpr std::size_t kPoints = 65536;
constexpr std::size_t kScenes = 2;      // rotated request by request
constexpr std::uint32_t kThreshold = 256;
constexpr double kLatencyLimitMs = 2000.0;

class SceneSeg final : public Workload
{
  public:
    void
    setup(const Options &options, Tracer *tracer) override
    {
        for (std::size_t i = 0; i < kScenes; ++i)
            scenes_.push_back(
                std::make_shared<const fc::data::PointCloud>(
                    fc::data::makeS3disScene(
                        kPoints, mixSeed(options.seed, i))));
        network_ = std::make_unique<fc::nn::Network>(
            fc::nn::pointNeXtSemSeg(), 42);
        request_.network = network_.get();
        request_.aggregation = fc::nn::Aggregation::Delayed;

        const fc::serve::ServeOptions serve =
            serveOptions(kThreshold, tracer);
        for (const auto &scene : scenes_)
            refs_.push_back(
                referenceOf(*scene, serve.pipeline, request_, tracer));
        pipeline_ = std::make_unique<fc::serve::AsyncPipeline>(serve);

        // Warm-up: workspaces, outcome slots and SoA mirrors.
        Phase warm;
        for (std::size_t i = 0; i < kScenes; ++i) {
            pipeline_->waitInto(
                pipeline_->submitShared(scenes_[i], request_), outcome_);
            warm.account(outcome_, refs_[i], scenes_[i]->size());
        }
        if (warm.failed != 0)
            throw std::runtime_error("scene-seg warm-up result mismatch");
    }

    Phase
    measure(double seconds, Tracer *tracer) override
    {
        Phase phase;
        const LayerSums before = readLayers(pipeline_->metrics());
        const double cpu0 = processCpuSeconds();
        const Clock::time_point start = Clock::now();
        const Clock::time_point stop =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        Clock::time_point due = start;
        std::vector<double> rates;
        for (std::size_t i = 0; Clock::now() < stop; ++i) {
            const std::size_t s = i % kScenes;
            const Clock::time_point t0 = Clock::now();
            phase.generator_lag_ms.push_back(msBetween(due, t0));
            ++phase.attempted;
            ++phase.fg_sent;
            const fc::serve::Ticket ticket =
                pipeline_->submitShared(scenes_[s], request_);
            const Clock::time_point t1 = Clock::now();
            Clock::time_point t2, t3;
            if (tracer != nullptr) {
                // Poll first so the timed waitInto is the result copy
                // alone.
                while (!pipeline_->poll(ticket))
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
                t2 = Clock::now();
                pipeline_->waitInto(ticket, outcome_);
                t3 = Clock::now();
                phase.result_copy_us.push_back(msBetween(t2, t3) * 1e3);
                tracer->span(ticket.id, "submitShared", t0, t1);
                tracer->span(ticket.id, "waitInto", t2, t3);
                tracer->span(ticket.id, "queue", outcome_.timing.submitted,
                             outcome_.timing.started);
                tracer->span(ticket.id, "request", t0, t3);
            } else {
                pipeline_->waitInto(ticket, outcome_);
                t3 = Clock::now();
                phase.result_copy_us.push_back(
                    msBetween(outcome_.timing.finished, t3) * 1e3);
            }
            due = t3;
            const double latency = msBetween(t0, t3);
            if (phase.account(outcome_, refs_[s], scenes_[s]->size())) {
                phase.latency_ms.push_back(latency);
                rates.push_back(static_cast<double>(scenes_[s]->size()) /
                                (latency * 1e-3));
                if (latency <= kLatencyLimitMs)
                    ++phase.fg_in_slo;
            }
        }
        phase.wall_s = msBetween(start, Clock::now()) * 1e-3;
        phase.cpu_s = processCpuSeconds() - cpu0;
        phase.layers = readLayers(pipeline_->metrics()) - before;
        // One request class: every request is both the latency-
        // sensitive and the bulk class.
        phase.fg_latency_ms = phase.latency_ms;
        phase.bg_latency_ms = phase.latency_ms;
        phase.points_per_s = quantile(rates, 0.5);
        phase.primary_ms = quantile(phase.latency_ms, 0.5);
        return phase;
    }

    Counts
    inputCounts() const override
    {
        return sumCounts(refs_);
    }

    const fc::serve::AsyncPipeline &
    pipeline() const override
    {
        return *pipeline_;
    }

  private:
    std::vector<std::shared_ptr<const fc::data::PointCloud>> scenes_;
    std::unique_ptr<fc::nn::Network> network_;
    fc::BatchRequest request_;
    std::vector<Reference> refs_;
    std::unique_ptr<fc::serve::AsyncPipeline> pipeline_;
    fc::serve::RequestOutcome outcome_;
};

} // namespace

std::unique_ptr<Workload>
makeSceneSeg()
{
    return std::make_unique<SceneSeg>();
}

} // namespace pb
