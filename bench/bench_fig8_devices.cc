// Figure 8: execution-architecture comparison — vanilla CPU, vectorized
// (AVX), and (simulated) GPU — for both phases: neural-network-dominated
// ETL time per dataset, and query time on the two image-matching queries
// (q1, q4) where the matching kernel can run on any device (§7.4.2).
#include <cstdio>

#include "bench_common.h"
#include "common/clock.h"
#include "core/benchmark_queries.h"

namespace deeplens {
namespace bench {
namespace {

int Run() {
  PrintHeader("Figure 8: CPU vs AVX vs GPU for ETL and query time",
              "paper Fig. 8 (GPU wins batched ETL; mixed for query time)");

  WorkloadConfig config;
  const int scale = BenchScale();
  // q4's detection relation is the "large" matching input; q1's PC corpus
  // is the "small" one (the paper's contrast between the two).
  config.traffic.num_frames = 720 * scale;
  config.football.num_videos = 8;
  config.football.frames_per_video = 12 * scale;
  config.pc.num_images = 100 * scale;
  config.pc.num_duplicates = 10;
  config.pc.num_text_images = 20;

  // --- ETL time per device ------------------------------------------------
  // The GPU column reports *modeled* device time (wall time with the
  // host-simulated kernel compute replaced by overhead + compute/speedup;
  // see nn::Device's modeled-time clock and DESIGN.md).
  std::printf("ETL time (ms) per execution architecture:\n");
  std::printf("%-8s %12s %12s %12s\n", "device", "traffic", "football",
              "pc");
  EtlTimings timing_by_device[3];
  ScratchDir scratch("dl_fig8");
  for (int d = 0; d < 3; ++d) {
    const auto kind = static_cast<nn::DeviceKind>(d);
    nn::Device* device = nn::GetDevice(kind);
    auto workload = BenchmarkWorkload::Create(
        scratch.path() + "/" + nn::DeviceKindName(kind), config);
    DL_CHECK_OK(workload.status());
    device->ResetKernelClocks();
    EtlTimings etl;
    DL_CHECK_OK((*workload)->RunEtl(device, &etl));
    // Convert wall time to modeled device time (no-op for CPU backends).
    const double adjust_ms =
        (static_cast<double>(device->modeled_kernel_nanos()) -
         static_cast<double>(device->real_kernel_nanos())) /
        1e6;
    // The adjustment applies to the whole run; attribute proportionally.
    const double total_wall = etl.total();
    if (total_wall > 0 && adjust_ms != 0) {
      const double f = (total_wall + adjust_ms) / total_wall;
      etl.traffic_ms *= f;
      etl.football_ms *= f;
      etl.pc_ms *= f;
    }
    timing_by_device[d] = etl;
    std::printf("%-8s %12.0f %12.0f %12.0f%s\n", nn::DeviceKindName(kind),
                etl.traffic_ms, etl.football_ms, etl.pc_ms,
                kind == nn::DeviceKind::kGpuSim ? "  (modeled)" : "");

    // Keep the avx-device workload around for the query phase below.
    if (kind == nn::DeviceKind::kCpuVector) {
      std::printf("\nquery time (ms) for the image-matching queries, all-"
                  "pairs kernel per device:\n");
      std::printf("%-8s %12s %12s\n", "device", "q1(small)", "q4(large)");
      DL_CHECK_OK((*workload)->BuildOptimizedIndexes().status());
      // Query-time offload pays a cold-start cost per query (device
      // allocation + transfer of the operand relations), unlike the
      // streamed, warmed-up ETL path.
      nn::GpuSimOptions query_gpu;
      query_gpu.launch_overhead_nanos = 2'500'000;  // 2.5 ms cold start
      nn::ConfigureGpuSim(query_gpu);
      for (int qd = 0; qd < 3; ++qd) {
        const auto qkind = static_cast<nn::DeviceKind>(qd);
        nn::Device* device = nn::GetDevice(qkind);
        device->ResetKernelClocks();
        // q1 on the small PC relation: all-pairs matching on `device`.
        auto view = (*workload)->db()->GetView("pc_images");
        DL_CHECK_OK(view.status());
        Stopwatch t1;
        {
          auto pairs = AllPairsSimilarityJoin(
              (*view)->patches, (*view)->patches,
              (*workload)->config().q1_max_distance, device);
          DL_CHECK_OK(pairs.status());
        }
        double q1_ms = t1.ElapsedMillis() +
                       (static_cast<double>(device->modeled_kernel_nanos()) -
                        static_cast<double>(device->real_kernel_nanos())) /
                           1e6;
        // q4 on the larger detection relation: all-pairs dedup.
        device->ResetKernelClocks();
        auto q4 = (*workload)->RunQ4(false, device);
        DL_CHECK_OK(q4.status());
        const double q4_ms =
            q4->millis +
            (static_cast<double>(device->modeled_kernel_nanos()) -
             static_cast<double>(device->real_kernel_nanos())) /
                1e6;
        std::printf("%-8s %12.2f %12.2f%s\n", nn::DeviceKindName(qkind),
                    q1_ms, q4_ms,
                    qkind == nn::DeviceKind::kGpuSim ? "  (modeled)" : "");
      }
      nn::ConfigureGpuSim(nn::GpuSimOptions{});  // restore defaults
      std::printf("\n");
    }
  }

  const double cpu_total = timing_by_device[0].total();
  const double avx_total = timing_by_device[1].total();
  const double gpu_total = timing_by_device[2].total();
  std::printf("ETL speedup over vanilla CPU: avx %.1fx, gpu %.1fx\n",
              cpu_total / avx_total, cpu_total / gpu_total);
  std::printf(
      "\nexpected shape: GPU is fastest for the batched, inference-heavy\n"
      "ETL; for query-time matching the GPU's launch/transfer overhead\n"
      "makes it a loss on the small relation (q1) and a win only on the\n"
      "larger one (q4) — the paper's cost-model caveat.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace deeplens

int main() { return deeplens::bench::Run(); }
