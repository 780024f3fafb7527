// Ablation: FL system architectures across Table 1's design space — centralized
// (hub-and-spoke), hierarchical (client-edge-cloud), and Totoro's decentralized forest —
// on identical concurrent-app workloads.
//
// Expected ordering: the hierarchy's partial aggregation relieves the cloud downlink but
// keeps one serial coordinator, so it sits between the flat star and Totoro; only
// Totoro's per-app masters stay flat as app count grows. Both coordinator classes run
// the same engine under FedScale's costs; the hierarchy adds 8 edge servers.
#include "bench/parallel_runner.h"
#include "bench/tta_common.h"
#include "src/obs/export.h"

namespace totoro {
namespace {

void Run(BenchReport* report) {
  const auto profile = bench::FemnistProfile();
  CentralConfig hierarchical = bench::FedScaleConfig();
  hierarchical.num_edge_servers = 8;
  bench::PrintHeader(
      "Ablation: architecture classes, last-app time-to-target (femnist task)");
  AsciiTable table({"#apps", "centralized (s)", "hierarchical (s)", "Totoro (s)"});
  // Each (architecture, #apps) cell is an independent world; fan the 3x4 grid over the
  // trial pool with the sequential seeds and fold to last-app time-to-target.
  const std::vector<int> apps_axis = {1, 5, 10, 20};
  const auto cells = bench::RunTrials<double>(apps_axis.size() * 3, [&](size_t i) {
    const int apps = apps_axis[i / 3];
    switch (i % 3) {
      case 0:
        return bench::RunCentralTta(profile, apps, bench::FedScaleConfig(), 4000)
            .last_target_ms;
      case 1:
        return bench::RunCentralTta(profile, apps, hierarchical, 4000).last_target_ms;
      default:
        return bench::RunTotoroTta(profile, apps, /*fanout_bits=*/4, 4000).last_target_ms;
    }
  });
  for (size_t row = 0; row < apps_axis.size(); ++row) {
    table.AddRow({AsciiTable::Int(apps_axis[row]),
                  AsciiTable::Num(cells[row * 3 + 0] / 1000.0, 2),
                  AsciiTable::Num(cells[row * 3 + 1] / 1000.0, 2),
                  AsciiTable::Num(cells[row * 3 + 2] / 1000.0, 2)});
  }
  report->SetMetric("central_tta_ms_20apps", cells[3 * 3 + 0], "ms", 0.0);
  report->SetMetric("hierarchical_tta_ms_20apps", cells[3 * 3 + 1], "ms", 0.0);
  report->SetMetric("totoro_tta_ms_20apps", cells[3 * 3 + 2], "ms", 0.0);
  const std::string rendered = table.Render();
  std::printf("%s", rendered.c_str());
  report->SetFingerprint("ablation_architectures_table", FingerprintBytes(rendered));
  std::printf("hierarchy relieves the cloud's downlink but keeps the serial coordinator;\n"
              "only Totoro's per-app masters stay flat with concurrency\n");
}

}  // namespace
}  // namespace totoro

int main() {
  totoro::BenchReport report =
      totoro::bench::MakeReport("ablation_architectures", 4000, "default");
  totoro::Run(&report);
  return report.Write() ? 0 : 1;
}
