// lidar-ingest: the paper's point-op workload on automotive-scale
// frames, served from storage. Each pass opens a fresh FcpcReader
// (checksum verdicts are memoized per reader) and streams all 64
// blocks through StorageIngestor::runAll with point ops only.
//
// The .fcpc file is written during set-up and stays in the page
// cache: disk behaviour is not measured.

#include <unistd.h>

#include <cstdio>
#include <stdexcept>

#include "bench.h"
#include "common/rng.h"
#include "dataset/synthetic.h"
#include "serve/ingest.h"
#include "storage/fcpc_reader.h"
#include "storage/fcpc_writer.h"

namespace pb {

namespace {

constexpr std::size_t kBlocks = 64;
constexpr std::size_t kPoints = 32768;
constexpr std::uint32_t kThreshold = 256;
constexpr double kLatencyLimitMs = 2000.0;

class LidarIngest final : public Workload
{
  public:
    ~LidarIngest() override
    {
        if (!path_.empty())
            std::remove(path_.c_str());
    }

    void
    setup(const Options &options, Tracer *tracer) override
    {
        fc::Pcg32 rng(mixSeed(options.seed, 0));
        std::vector<fc::data::PointCloud> frames;
        frames.reserve(kBlocks);
        for (std::size_t i = 0; i < kBlocks; ++i)
            frames.push_back(fc::data::makeLidarFrame(rng, kPoints));

        path_ = options.workdir + "/lidar-" +
                std::to_string(options.seed) + "-" +
                std::to_string(::getpid()) + ".fcpc";
        if (!fc::storage::writeFcpc(frames, path_))
            throw std::runtime_error("cannot write " + path_);

        const fc::serve::ServeOptions serve =
            serveOptions(kThreshold, tracer);
        for (const fc::data::PointCloud &frame : frames) {
            refs_.push_back(
                referenceOf(frame, serve.pipeline, request_, tracer));
            points_.push_back(frame.size());
        }
        pipeline_ = std::make_unique<fc::serve::AsyncPipeline>(serve);

        // Warm-up pass: workspaces and outcome slots.
        Phase warm;
        pass(warm, nullptr);
        if (warm.failed != 0)
            throw std::runtime_error(
                "lidar-ingest warm-up result mismatch");
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
        std::vector<double> rates;
        for (std::size_t i = 0; Clock::now() < stop; ++i) {
            // Traced runs interleave storage probes: direct
            // open / validateBlock / readBlock calls on their own
            // fresh reader, kept out of the ingest passes' numbers.
            if (tracer != nullptr && i % 2 == 1) {
                probeStorage(phase.storage, *tracer);
                continue;
            }
            const std::uint64_t points = phase.done_points;
            const double ms = pass(phase, tracer);
            rates.push_back(static_cast<double>(phase.done_points - points) /
                            (ms * 1e-3));
        }
        phase.wall_s = msBetween(start, Clock::now()) * 1e-3;
        phase.cpu_s = processCpuSeconds() - cpu0;
        phase.layers = readLayers(pipeline_->metrics()) - before;
        // One request class: every pass is both the latency-
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
    /**
     * One ingest pass; returns its wall time (ms). The caller gets
     * every block's result when runAll returns, so the pass is the
     * request whose latency counts; blocks are counted one by one in
     * attempted / failed.
     */
    double
    pass(Phase &phase, Tracer *tracer)
    {
        const Clock::time_point t0 = Clock::now();
        auto reader = std::make_shared<fc::storage::FcpcReader>();
        const fc::storage::FcpcStatus status = reader->open(path_);
        const Clock::time_point t1 = Clock::now();
        if (status != fc::storage::FcpcStatus::Ok)
            throw std::runtime_error(
                std::string("cannot open .fcpc: ") +
                fc::storage::fcpcStatusName(status));
        fc::serve::StorageIngestor ingestor(*pipeline_, reader);
        const std::vector<fc::serve::IngestResult> results =
            ingestor.runAll(request_);
        const Clock::time_point t2 = Clock::now();
        if (tracer != nullptr) {
            phase.storage.open_ms.push_back(msBetween(t0, t1));
            tracer->span(0, "FcpcReader::open", t0, t1);
            tracer->span(0, "StorageIngestor::runAll", t1, t2);
        }

        const std::uint64_t failed = phase.failed;
        for (std::size_t b = 0; b < results.size(); ++b) {
            const fc::serve::IngestResult &r = results[b];
            ++phase.attempted;
            if (r.storage_status != fc::storage::FcpcStatus::Ok)
                ++phase.failed;
            else
                phase.account(r.outcome, refs_[b], points_[b]);
        }
        const double latency = msBetween(t0, t2);
        ++phase.fg_sent;
        if (phase.failed == failed) {
            phase.latency_ms.push_back(latency);
            if (latency <= kLatencyLimitMs)
                ++phase.fg_in_slo;
        }
        return latency;
    }

    void
    probeStorage(StorageProbe &probe, Tracer &tracer)
    {
        fc::storage::FcpcReader reader;
        Clock::time_point t = Clock::now();
        if (reader.open(path_) != fc::storage::FcpcStatus::Ok)
            throw std::runtime_error("cannot reopen .fcpc");
        probe.open_ms.push_back(msBetween(t, Clock::now()));
        tracer.span(0, "FcpcReader::open", t, Clock::now());

        double validate_ms = 0.0;
        for (std::size_t b = 0; b < reader.blockCount(); ++b) {
            t = Clock::now();
            const fc::storage::FcpcStatus s = reader.validateBlock(b);
            const Clock::time_point end = Clock::now();
            if (s != fc::storage::FcpcStatus::Ok)
                throw std::runtime_error("block failed validation");
            tracer.span(b, "FcpcReader::validateBlock", t, end);
            validate_ms += msBetween(t, end);
            probe.validated_bytes +=
                static_cast<double>(reader.blockBytes(b));
        }
        probe.validate_pass_ms.push_back(validate_ms);
        probe.validate_s += validate_ms * 1e-3;

        fc::data::PointCloud cloud;
        for (std::size_t b = 0; b < reader.blockCount(); ++b) {
            t = Clock::now();
            const fc::storage::FcpcStatus s = reader.readBlock(b, cloud);
            const Clock::time_point end = Clock::now();
            if (s != fc::storage::FcpcStatus::Ok ||
                cloud.size() != points_[b])
                throw std::runtime_error("block read failed");
            tracer.span(b, "FcpcReader::readBlock", t, end);
            probe.read_block_us.push_back(msBetween(t, end) * 1e3);
        }
    }

    std::string path_;
    fc::BatchRequest request_; // point ops only: network = nullptr
    std::vector<Reference> refs_;
    std::vector<std::size_t> points_;
    std::unique_ptr<fc::serve::AsyncPipeline> pipeline_;
};

} // namespace

std::unique_ptr<Workload>
makeLidarIngest()
{
    return std::make_unique<LidarIngest>();
}

} // namespace pb
