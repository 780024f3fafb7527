// Reproduces Figures 8 and 9: time-to-accuracy curves when 1..20 applications train
// concurrently (Fig 8: Speech-like task; Fig 9: FEMNIST-like task).
//
// Key shapes to check against the paper: (1) the baselines' curves shift right as the
// number of apps grows (coordinator queueing); (2) Totoro's total training time is
// nearly flat in the number of apps (the paper reports 15.41h for 1 model vs 15.47h for
// 20 at fanout 32).
#include "bench/parallel_runner.h"
#include "bench/tta_common.h"
#include "src/obs/export.h"
#include "src/obs/profiler.h"

namespace totoro {
namespace {

// Cheap determinism probe: one single-threaded Totoro TTA run with tracing on, reduced
// to two fingerprints. The engine still honors TOTORO_COMPUTE_THREADS, so comparing
// this line across thread counts (with TOTORO_BENCH_THREADS=1) checks the compute
// pool's bit-identical-schedule guarantee on a real bench workload.
void PrintDeterminismProbe(BenchReport* report) {
  GlobalTracer().Clear();
  GlobalTracer().SetEnabled(true);
  GlobalMetrics().ResetValues();
  bench::RunTotoroTta(bench::SpeechProfile(), /*num_apps=*/1, /*fanout_bits=*/5, 3000);
  const uint64_t metrics_fp = MetricsFingerprint(GlobalMetrics());
  const uint64_t trace_fp = TraceFingerprint(GlobalTracer());
  std::printf("determinism probe: metrics=%016llx trace=%016llx\n",
              static_cast<unsigned long long>(metrics_fp),
              static_cast<unsigned long long>(trace_fp));
  report->SetFingerprint("probe_metrics", metrics_fp);
  report->SetFingerprint("probe_trace", trace_fp);
  GlobalTracer().SetEnabled(false);
  GlobalTracer().Clear();
  GlobalMetrics().ResetValues();
}

void RunFigure(const bench::TaskProfile& profile, const char* figure,
               const char* slug, BenchReport* report) {
  ProfileScope profile_scope(slug);
  bench::PrintHeader(std::string(figure) + ": time-to-accuracy, " + profile.name);
  AsciiTable table({"#apps", "system", "last-app time-to-target (s)", "all reached"});
  std::vector<double> totoro_times;
  // 3 systems x 4 app counts, plus the two trajectory runs at the end — all
  // independent worlds, so the whole figure fans out over the trial pool with the
  // same seeds the sequential loop used.
  const std::vector<int> apps_axis = {1, 5, 10, 20};
  const size_t kCurveTotoro = apps_axis.size() * 3;
  const size_t kCurveFedscale = kCurveTotoro + 1;
  const auto outcomes = bench::RunTrials<bench::TtaOutcome>(
      apps_axis.size() * 3 + 2, [&](size_t i) {
        if (i == kCurveTotoro) {
          return bench::RunTotoroTta(profile, 10, /*fanout_bits=*/5, 3100);
        }
        if (i == kCurveFedscale) {
          return bench::RunCentralTta(profile, 10, bench::FedScaleConfig(), 3100);
        }
        const int apps = apps_axis[i / 3];
        switch (i % 3) {
          case 0:
            return bench::RunTotoroTta(profile, apps, /*fanout_bits=*/5, 3000);
          case 1:
            return bench::RunCentralTta(profile, apps, bench::OpenFlConfig(), 3000);
          default:
            return bench::RunCentralTta(profile, apps, bench::FedScaleConfig(), 3000);
        }
      });
  for (size_t row = 0; row < apps_axis.size(); ++row) {
    const int apps = apps_axis[row];
    const auto& totoro_run = outcomes[row * 3 + 0];
    const auto& openfl = outcomes[row * 3 + 1];
    const auto& fedscale = outcomes[row * 3 + 2];
    totoro_times.push_back(totoro_run.last_target_ms);
    table.AddRow({AsciiTable::Int(apps), "Totoro (fanout 32)",
                  AsciiTable::Num(totoro_run.last_target_ms / 1000.0, 2),
                  totoro_run.all_reached ? "yes" : "no"});
    table.AddRow({AsciiTable::Int(apps), "OpenFL-like",
                  AsciiTable::Num(openfl.last_target_ms / 1000.0, 2),
                  openfl.all_reached ? "yes" : "no"});
    table.AddRow({AsciiTable::Int(apps), "FedScale-like",
                  AsciiTable::Num(fedscale.last_target_ms / 1000.0, 2),
                  fedscale.all_reached ? "yes" : "no"});
  }
  const std::string rendered = table.Render();
  std::printf("%s", rendered.c_str());
  std::printf("Totoro flatness: 1 app %.2fs vs 20 apps %.2fs (ratio %.2f; paper ~1.004)\n",
              totoro_times.front() / 1000.0, totoro_times.back() / 1000.0,
              totoro_times.back() / totoro_times.front());
  // Virtual-time TTA results — machine-independent, compare exactly.
  const std::string prefix = slug;
  report->SetMetric(prefix + "_totoro_tta_ms_1app", totoro_times.front(), "ms", 0.0);
  report->SetMetric(prefix + "_totoro_tta_ms_20apps", totoro_times.back(), "ms", 0.0);
  report->SetMetric(prefix + "_totoro_flatness_ratio",
                    totoro_times.back() / totoro_times.front(), "ratio", 0.0);
  report->SetFingerprint(prefix + "_table", FingerprintBytes(rendered));

  // One representative accuracy curve per system at 10 apps (the per-round trajectory
  // the paper plots) — computed with the grid above.
  const auto& totoro_run = outcomes[kCurveTotoro];
  const auto& fedscale = outcomes[kCurveFedscale];
  std::printf("\naccuracy trajectory of the LAST app to finish (10 concurrent apps):\n");
  auto print_curve = [](const char* system, const std::vector<AppResult>& results) {
    const AppResult* last = &results.front();
    for (const auto& r : results) {
      const double t = r.reached_target ? r.time_to_target_ms : r.total_time_ms;
      const double lt =
          last->reached_target ? last->time_to_target_ms : last->total_time_ms;
      if (t > lt) {
        last = &r;
      }
    }
    std::printf("  %-18s", system);
    for (const auto& point : last->curve) {
      std::printf(" (%.1fs, %.0f%%)", point.time_ms / 1000.0, point.accuracy * 100.0);
    }
    std::printf("\n");
  };
  print_curve("Totoro:", totoro_run.results);
  print_curve("FedScale-like:", fedscale.results);
}

}  // namespace
}  // namespace totoro

int main() {
  // Each figure is a profiler phase on this thread, whatever TOTORO_PROFILE says. Its
  // trials run on the trial pool's threads, whose profilers stay separate.
  totoro::Profiler& profiler = totoro::GlobalProfiler();
  profiler.SetEnabled(true);
  // Everything in the report is virtual-time or a fingerprint, so every metric and
  // fingerprint in BENCH_fig8_fig9_tta.json is identical across thread counts (only
  // the bench_threads meta line records the difference) — benchdiff compares exactly.
  totoro::BenchReport report = totoro::bench::MakeReport("fig8_fig9_tta", 3000, "default");
  totoro::PrintDeterminismProbe(&report);
  totoro::RunFigure(totoro::bench::SpeechProfile(), "Fig 8", "fig8", &report);
  totoro::RunFigure(totoro::bench::FemnistProfile(), "Fig 9", "fig9", &report);
  // Wall-clock goes to stderr only: stdout must stay byte-identical across
  // TOTORO_COMPUTE_THREADS / TOTORO_BENCH_THREADS settings.
  std::fprintf(stderr, "wall-clock: fig8 %.2fs fig9 %.2fs\n",
               profiler.Find("fig8")->stats.wall_seconds,
               profiler.Find("fig9")->stats.wall_seconds);
  return report.Write() ? 0 : 1;
}
