// serve-mixed: open-loop serving with two priority classes sharing
// the shard. Interactive PointNet++ classification on 1,024-point
// objects arrives as a seeded Poisson process; background PointNet++
// segmentation of 16,384-point LiDAR frames arrives at a fixed low
// rate. Admission is trySubmitShared against a bounded queue.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "dataset/modelnet.h"
#include "dataset/synthetic.h"
#include "nn/models.h"
#include "nn/network.h"

namespace pb {

namespace {

// About 45% busy on a 4-core host. Heavier mixes put the interactive
// median on the edge between "a background request is running" and
// "none is" (or make interactive requests overlap), and it then
// jumps between runs; see perfbench/README.md.
constexpr double kInteractivePerS = 40.0;
constexpr double kBackgroundPeriodS = 2.0 / 3.0;
constexpr std::size_t kObjects = 16;
constexpr std::size_t kObjectPoints = 1024;
constexpr std::size_t kFrames = 2;
constexpr std::size_t kFramePoints = 16384;
constexpr std::uint32_t kThreshold = 64;
constexpr std::size_t kQueueCapacity = 32;
constexpr double kSloMs = 50.0;
constexpr auto kInteractiveDeadline = std::chrono::seconds(1);

struct Arrival
{
    double due_s;
    bool background;
    std::size_t input;
};

class ServeMixed final : public Workload
{
  public:
    void
    setup(const Options &options, Tracer *tracer) override
    {
        rng_ = fc::Pcg32(mixSeed(options.seed, 0));
        for (std::size_t i = 0; i < kObjects; ++i)
            objects_.push_back(
                std::make_shared<const fc::data::PointCloud>(
                    fc::data::makeModelNetObject(
                        static_cast<int>(rng_.bounded(40)),
                        kObjectPoints, mixSeed(options.seed, 1 + i))));
        fc::Pcg32 frame_rng(mixSeed(options.seed, 100));
        for (std::size_t i = 0; i < kFrames; ++i)
            frames_.push_back(
                std::make_shared<const fc::data::PointCloud>(
                    fc::data::makeLidarFrame(frame_rng, kFramePoints)));

        classifier_ = std::make_unique<fc::nn::Network>(
            fc::nn::pointNet2Classification(), 42);
        segmenter_ = std::make_unique<fc::nn::Network>(
            fc::nn::pointNet2SemSeg(), 42);
        interactive_.network = classifier_.get();
        interactive_.aggregation = fc::nn::Aggregation::Delayed;
        background_.network = segmenter_.get();
        background_.aggregation = fc::nn::Aggregation::Delayed;

        fc::serve::ServeOptions serve = serveOptions(kThreshold, tracer);
        serve.queue_capacity = kQueueCapacity;
        for (const auto &o : objects_)
            object_refs_.push_back(
                referenceOf(*o, serve.pipeline, interactive_, tracer));
        for (const auto &f : frames_)
            frame_refs_.push_back(
                referenceOf(*f, serve.pipeline, background_, tracer));
        pipeline_ = std::make_unique<fc::serve::AsyncPipeline>(serve);

        // Warm-up: both shapes, then a concurrent burst so the pool
        // holds a workspace and an outcome slot per worker.
        Phase warm;
        std::vector<std::pair<fc::serve::Ticket, const Reference *>> t;
        std::vector<std::size_t> points;
        for (std::size_t i = 0; i < kFrames; ++i) {
            t.push_back({pipeline_->submitShared(frames_[i], background_),
                         &frame_refs_[i]});
            points.push_back(frames_[i]->size());
        }
        for (std::size_t i = 0; i < kObjects; ++i) {
            t.push_back(
                {pipeline_->submitShared(objects_[i], interactive_),
                 &object_refs_[i]});
            points.push_back(objects_[i]->size());
        }
        fc::serve::RequestOutcome outcome;
        for (std::size_t i = 0; i < t.size(); ++i) {
            pipeline_->waitInto(t[i].first, outcome);
            warm.account(outcome, *t[i].second, points[i]);
        }
        if (warm.failed != 0)
            throw std::runtime_error(
                "serve-mixed warm-up result mismatch");
    }

    Phase
    measure(double seconds, Tracer *tracer) override
    {
        const std::vector<Arrival> arrivals = schedule(seconds);
        Phase phase;
        const LayerSums before = readLayers(pipeline_->metrics());
        const double cpu0 = processCpuSeconds();

        struct Pending
        {
            fc::serve::Ticket ticket;
            Clock::time_point due;
            const Arrival *arrival;
        };
        std::mutex mutex;
        std::condition_variable wake;
        std::deque<Pending> handoff;
        bool generator_done = false;

        // The single load generator: sends each request at its due
        // time, whatever the state of earlier ones (open loop).
        std::vector<double> lag_ms;
        std::vector<const Arrival *> rejected;
        std::exception_ptr generator_error;
        const Clock::time_point start = Clock::now();
        std::thread generator([&] {
            try {
                for (const Arrival &a : arrivals) {
                    const Clock::time_point due =
                        start +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(a.due_s));
                    std::this_thread::sleep_until(due);
                    const Clock::time_point t0 = Clock::now();
                    lag_ms.push_back(msBetween(due, t0));
                    const std::optional<fc::serve::Ticket> ticket =
                        a.background
                            ? pipeline_->trySubmitShared(
                                  frames_[a.input], background_,
                                  std::nullopt,
                                  fc::serve::Priority::Background)
                            : pipeline_->trySubmitShared(
                                  objects_[a.input], interactive_,
                                  kInteractiveDeadline,
                                  fc::serve::Priority::Interactive);
                    if (tracer != nullptr && ticket)
                        tracer->span(ticket->id, "trySubmitShared", t0,
                                     Clock::now());
                    if (!ticket) {
                        rejected.push_back(&a);
                        continue;
                    }
                    std::lock_guard<std::mutex> lock(mutex);
                    handoff.push_back({*ticket, due, &a});
                    wake.notify_one();
                }
            } catch (...) {
                generator_error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mutex);
            generator_done = true;
            wake.notify_one();
        });

        // Collector: takes each result once it is Done, so the timed
        // waitInto is the result copy alone. Latency is taken from the
        // pipeline's completion stamp, so the polling period does not
        // add to it.
        std::vector<Pending> pending;
        fc::serve::RequestOutcome outcome;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                if (pending.empty())
                    wake.wait(lock, [&] {
                        return generator_done || !handoff.empty();
                    });
                pending.insert(pending.end(), handoff.begin(),
                               handoff.end());
                handoff.clear();
                if (generator_done && pending.empty())
                    break;
            }
            bool progressed = false;
            for (std::size_t i = 0; i < pending.size();) {
                const Pending p = pending[i];
                if (!pipeline_->poll(p.ticket)) {
                    ++i;
                    continue;
                }
                const Clock::time_point t0 = Clock::now();
                pipeline_->waitInto(p.ticket, outcome);
                const Clock::time_point t1 = Clock::now();
                phase.result_copy_us.push_back(msBetween(t0, t1) * 1e3);
                collect(phase, outcome, p.due, *p.arrival);
                if (tracer != nullptr) {
                    tracer->span(p.ticket.id, "waitInto", t0, t1);
                    tracer->span(p.ticket.id, "queue",
                                 outcome.timing.submitted,
                                 outcome.timing.started);
                    tracer->span(p.ticket.id,
                                 p.arrival->background ? "background"
                                                       : "interactive",
                                 p.due, outcome.timing.finished);
                }
                pending[i] = pending.back();
                pending.pop_back();
                progressed = true;
            }
            if (!progressed)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        generator.join();
        if (generator_error)
            std::rethrow_exception(generator_error);

        for (const Arrival *a : rejected) {
            ++phase.attempted;
            ++phase.failed;
            ++phase.rejected;
            if (!a->background)
                ++phase.fg_sent;
        }
        phase.generator_lag_ms = std::move(lag_ms);
        phase.wall_s = msBetween(start, Clock::now()) * 1e-3;
        // Open loop: the served rate is the offered rate unless
        // requests fail or the backlog grows past the run.
        phase.points_per_s = static_cast<double>(phase.done_points) /
                             phase.wall_s;
        phase.cpu_s = processCpuSeconds() - cpu0;
        phase.layers = readLayers(pipeline_->metrics()) - before;
        phase.primary_ms = quantile(phase.fg_latency_ms, 0.5);
        return phase;
    }

    Counts
    inputCounts() const override
    {
        Counts total = sumCounts(object_refs_);
        total += sumCounts(frame_refs_);
        return total;
    }

    const fc::serve::AsyncPipeline &
    pipeline() const override
    {
        return *pipeline_;
    }

  private:
    /** Arrivals over [0, seconds): a Poisson process of exactly
     *  rate x seconds interactive requests (uniform order
     *  statistics), plus background frames at a fixed period. */
    std::vector<Arrival>
    schedule(double seconds)
    {
        std::vector<Arrival> arrivals;
        const auto interactive = static_cast<std::size_t>(
            std::llround(kInteractivePerS * seconds));
        for (std::size_t i = 0; i < interactive; ++i)
            arrivals.push_back(
                {static_cast<double>(rng_.uniform()) * seconds, false,
                 rng_.bounded(static_cast<std::uint32_t>(kObjects))});
        std::size_t k = 0;
        for (double t = kBackgroundPeriodS / 2; t < seconds;
             t += kBackgroundPeriodS, ++k)
            arrivals.push_back({t, true, k % kFrames});
        std::sort(arrivals.begin(), arrivals.end(),
                  [](const Arrival &a, const Arrival &b) {
                      return a.due_s < b.due_s;
                  });
        return arrivals;
    }

    void
    collect(Phase &phase, const fc::serve::RequestOutcome &outcome,
            Clock::time_point due, const Arrival &a)
    {
        ++phase.attempted;
        if (!a.background)
            ++phase.fg_sent;
        const Reference &ref =
            a.background ? frame_refs_[a.input] : object_refs_[a.input];
        const std::size_t points = a.background
                                       ? frames_[a.input]->size()
                                       : objects_[a.input]->size();
        if (!phase.account(outcome, ref, points))
            return;
        const double latency = msBetween(due, outcome.timing.finished);
        phase.latency_ms.push_back(latency);
        if (a.background) {
            phase.bg_latency_ms.push_back(latency);
        } else {
            phase.fg_latency_ms.push_back(latency);
            if (latency <= kSloMs)
                ++phase.fg_in_slo;
        }
    }

    fc::Pcg32 rng_;
    std::vector<std::shared_ptr<const fc::data::PointCloud>> objects_;
    std::vector<std::shared_ptr<const fc::data::PointCloud>> frames_;
    std::unique_ptr<fc::nn::Network> classifier_;
    std::unique_ptr<fc::nn::Network> segmenter_;
    fc::BatchRequest interactive_;
    fc::BatchRequest background_;
    std::vector<Reference> object_refs_;
    std::vector<Reference> frame_refs_;
    std::unique_ptr<fc::serve::AsyncPipeline> pipeline_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMixed()
{
    return std::make_unique<ServeMixed>();
}

} // namespace pb
