#include "service/envelope.hpp"

#include <filesystem>

#include "checkpoint/archive.hpp"
#include "checkpoint/checkpoint.hpp"
#include "controller/mapper.hpp"
#include "dse/search.hpp"
#include "engine/workload.hpp"

namespace stonne::service {

namespace {

/**
 * Whether a job's outcome is fully determined by the cache key (and
 * therefore safe to serve warm): dense controller, a single tiled
 * operation, deterministic execution (no fault injection).
 */
bool
cacheable(const HardwareConfig &cfg, const LayerSpec &layer,
          index_t repeat, const EnvelopeOptions &opts)
{
    return opts.cache != nullptr && repeat == 1 &&
           cfg.controller_type == ControllerType::Dense &&
           !cfg.faults.enabled &&
           (layer.kind == LayerKind::Convolution ||
            layer.kind == LayerKind::Linear ||
            layer.kind == LayerKind::Gemm);
}

void
writeSnapshot(const Stonne &st, const std::string &path, index_t ops_done,
              const SimulationResult &merged)
{
    ArchiveWriter ar;
    st.saveCheckpointTo(ar, kCheckpointKindServiceJob);
    ar.beginSection("service_job");
    ar.putU64(static_cast<std::uint64_t>(ops_done));
    saveSimulationResult(ar, merged);
    ar.endSection();
    ar.writeFile(path);
}

} // namespace

JobOutcome
runJobEnvelope(const HardwareConfig &cfg, const LayerSpec &layer,
               const std::optional<Tile> &tile, std::uint64_t seed,
               double sparsity, index_t repeat,
               const EnvelopeOptions &opts)
{
    JobOutcome out;
    const HardwareConfig job_cfg = cfg.silenced();

    // Warm answer from the shared cache?
    std::string cache_key;
    const bool may_cache = cacheable(job_cfg, layer, repeat, opts);
    if (may_cache) {
        const Tile key_tile =
            tile ? *tile : Mapper(job_cfg.ms_size).generateTile(layer);
        cache_key = dse::ResultCache::keyText(
            job_cfg, layer, key_tile, dse::policyText(seed, sparsity));
        if (const auto hit = opts.cache->lookup(cache_key)) {
            out.status = "done";
            out.cache_hit = true;
            out.cached = *hit;
            return out;
        }
    }

    const bool snapshots = !opts.snapshot_path.empty() && repeat > 1;
    RecoveryPolicy policy = opts;
    if (!snapshots)
        policy.snapshot_path.clear();

    std::optional<LayerData> data;
    static_cast<RecoveryOutcome &>(out) =
        runWithRecovery(policy, [&](const Attempt &attempt) {
            if (!data)
                data = makeLayerData(layer, sparsity, seed);
            Stonne st(attempt.config(job_cfg));
            st.setAutoCheckpoint(false);
            st.accelerator().watchdog().setWallDeadline(attempt.deadline);

            index_t ops_done = 0;
            SimulationResult merged;
            if (snapshots && std::filesystem::exists(policy.snapshot_path)) {
                ArchiveReader ar(policy.snapshot_path);
                st.loadCheckpointFrom(ar);
                ar.enterSection("service_job");
                ops_done = static_cast<index_t>(ar.getU64());
                merged = loadSimulationResult(ar);
                ar.leaveSection();
            }
            out.ops_resumed = ops_done;

            for (; ops_done < repeat; ++ops_done) {
                const SimulationResult r = runLayer(st, layer, *data, tile);
                if (ops_done == 0)
                    merged = r;
                else
                    merged.merge(r);
                if (snapshots && ops_done + 1 < repeat)
                    writeSnapshot(st, policy.snapshot_path, ops_done + 1,
                                  merged);
            }

            out.result = merged;
            const Tensor &output = st.output();
            out.output_crc32 = crc32(
                reinterpret_cast<const std::uint8_t *>(output.data()),
                static_cast<std::size_t>(output.size()) * sizeof(float));
            if (may_cache)
                opts.cache->insert(
                    cache_key,
                    dse::CachedOutcome{merged.cycles,
                                       merged.energy.total(),
                                       merged.area.total(),
                                       merged.ms_utilization});
        });
    return out;
}

ModelJobOutcome
runModelJobEnvelope(const DnnModel &model, const HardwareConfig &cfg,
                    const std::vector<Tensor> &inputs,
                    const ModelEnvelopeOptions &opts)
{
    ModelJobOutcome out;
    HardwareConfig job_cfg = cfg.silenced();
    if (!opts.snapshot_path.empty()) {
        job_cfg.checkpoint = true;
        job_cfg.checkpoint_file = opts.snapshot_path;
    }

    static_cast<RecoveryOutcome &>(out) =
        runWithRecovery(opts, [&](const Attempt &attempt) {
            MulticoreRunner runner(model, attempt.config(job_cfg));
            // Rung 1 of the ladder: in-run quarantine + migration. The
            // final degraded attempt disables it so a systematically
            // sick composition surfaces its root cause instead of
            // benching every core.
            runner.setFaultTolerant(!attempt.degraded);
            runner.setWallDeadline(attempt.deadline);
            if (opts.on_quarantine)
                runner.setQuarantineObserver(opts.on_quarantine);

            // A corrupt frame (the runner already absorbs damaged
            // per-core sections) throws CheckpointError: the ladder
            // deletes the snapshot and the retry restarts clean.
            const std::vector<Tensor> outputs =
                !opts.snapshot_path.empty() &&
                        std::filesystem::exists(opts.snapshot_path)
                    ? runner.resumeBatch(opts.snapshot_path)
                    : runner.runBatch(inputs);

            out.degraded_cores = runner.quarantinedCores();
            out.migrations = runner.migrations();
            out.resume_cycle = runner.resumeCycle();
            out.restore_fallbacks = runner.restoreFallbacks();
            out.cores_finished = runner.healthyCores();
            out.makespan_cycles = runner.makespanCycles();
            out.report = runner.reportJson();

            std::vector<std::uint8_t> bytes;
            for (const Tensor &t : outputs)
                bytes.insert(
                    bytes.end(),
                    reinterpret_cast<const std::uint8_t *>(t.data()),
                    reinterpret_cast<const std::uint8_t *>(t.data()) +
                        static_cast<std::size_t>(t.size()) *
                            sizeof(float));
            out.output_crc32 = crc32(bytes.data(), bytes.size());
        });
    return out;
}

} // namespace stonne::service
