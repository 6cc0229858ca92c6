/**
 * @file
 * MPress vs the ZeRO family on billion-scale GPT (the Figure-8
 * comparison, single model size): DAPPLE+MPress against
 * ZeRO-Offload and ZeRO-Infinity on both server generations.
 *
 * Run: ./build/examples/zero_comparison [model-preset]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "api/session.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace api = mpress::api;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mu = mpress::util;

namespace {

void
compareOn(hw::Topology server, const mm::ModelConfig &model)
{
    std::printf("=== %s, %s (microbatch 2) ===\n",
                server.name().c_str(), model.name.c_str());

    const api::Strategy strategies[] = {
        api::Strategy::None,        api::Strategy::Recompute,
        api::Strategy::ZeroOffload, api::Strategy::ZeroInfinity,
        api::Strategy::MPressFull,
    };

    mu::TextTable table({"system", "outcome", "TFLOPS", "samples/s"});
    double mpress_tflops = 0, best_zero = 0;
    for (api::Strategy strat : strategies) {
        api::SessionConfig cfg;
        cfg.model = model;
        cfg.microbatch = 2;
        cfg.system = mpress::pipeline::SystemKind::Dapple;
        cfg.numStages = server.numGpus();
        // Large minibatches: 32 microbatches amortize the pipeline
        // fill/drain bubble, and the ZeRO runs accumulate gradients
        // over the same 32 microbatches so optimizer-step costs are
        // amortized identically.
        cfg.microbatchesPerMinibatch = 32;
        cfg.minibatches = 2;
        cfg.zero.gradAccumSteps = 32;
        cfg.strategy = strat;
        auto result = api::runSession(server, cfg);
        if (result.oom) {
            table.addRow({api::strategyName(strat), "OOM", "-", "-"});
            continue;
        }
        table.addRow({api::strategyName(strat), "ok",
                      mu::strformat("%.1f", result.tflops),
                      mu::strformat("%.2f", result.samplesPerSec)});
        if (strat == api::Strategy::MPressFull)
            mpress_tflops = result.tflops;
        if (strat == api::Strategy::ZeroOffload ||
            strat == api::Strategy::ZeroInfinity)
            best_zero = std::max(best_zero, result.tflops);
    }
    table.print(std::cout);
    if (mpress_tflops > 0 && best_zero > 0) {
        std::printf("MPress speedup over best ZeRO variant: %.2fx\n",
                    mpress_tflops / best_zero);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string preset = argc > 1 ? argv[1] : "gpt-10.3b";
    mm::ModelConfig model;
    if (!mm::findPreset(preset, &model)) {
        std::fprintf(stderr,
                     "zero_comparison: unknown model preset '%s'\n",
                     preset.c_str());
        return 1;
    }

    // The paper's ZeRO experiments ran on servers provisioned with
    // NVMe swap space (Sec. IV-C); add it to the DGX-1 profile.
    auto dgx1 = hw::Topology::dgx1V100();
    dgx1.setNvmeCapacity(2000 * mu::kGB);
    // The ZeRO server used an NVMe array with high aggregate I/O
    // bandwidth (ZeRO-Infinity's design point).
    auto fast_nvme = hw::LinkSpec::nvme();
    fast_nvme.peak = mpress::util::Bandwidth::fromGBps(25.0);
    dgx1.setNvmeSpec(fast_nvme);

    compareOn(dgx1, model);
    compareOn(hw::Topology::dgx2A100(), model);
    return 0;
}
