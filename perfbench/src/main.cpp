// perfbench: the repository benchmark.
//
//   perfbench --workload {dse_sweep|serve_mix|burst} --seed N --seconds S
//             --trace {0|1} [--scratch DIR]
//
// Every run reports every end-to-end metric (--trace 0) or every per-layer
// metric (--trace 1) as the last stdout line, one JSON object. The named
// workload gets the measurement window of S seconds; the other workloads'
// end-to-end metrics come from a short reference pass of the same code.
// Any correctness gate that fails makes the run exit 1 with
// "correct": false. Sockets and the trace file go under --scratch.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "phases.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch = ".bench_build/run";
};

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--scratch") {
      options.scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options.seconds > 0 &&
         (options.workload == "dse_sweep" || options.workload == "serve_mix" ||
          options.workload == "burst");
}

std::string socket_path(const Options& options, const std::string& tag) {
  return options.scratch + "/gpupd-" + std::to_string(::getpid()) + "-" + tag + ".sock";
}

// A run is kCycles cycles, so every metric samples the whole run rather
// than one stretch of it: the host's speed drifts over tens of seconds, and
// a median over cycles spread across the run rides that out. Each cycle sets
// up a gpupd with its sessions and a burst backlog (setup_s is the median
// set-up), then runs a serving window, one sweep and the backlog's drain,
// always in that order. The named workload gets seconds/kCycles of each
// cycle; the others get that fixed reference pass. Serving runs in slices of
// at most kServeSliceSeconds; its metrics are medians over slices, so a
// stretch of a slow host moves them only if it covers half the run.
constexpr int kCycles = 5;
constexpr double kSideServeSeconds = 1.0;
constexpr double kServeSliceSeconds = 0.25;
// One session per round class: with the sweep's and the burst's 2 workers,
// no phase keeps more than about 2 threads busy, so on a few shared cores
// the numbers measure the program rather than the host's scheduler.
constexpr int kServeLaunchSessions = 1;
constexpr int kServeXferSessions = 1;

Clock::time_point after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

void run_end_to_end(const Options& options, Report& report, Tally& tally) {
  Tracer off(false);
  const double share = options.seconds / kCycles;
  const bool serve_named = options.workload == "serve_mix";
  const bool burst_named = options.workload == "burst";
  const bool sweep_named = options.workload == "dse_sweep";
  std::vector<double> setup_s;
  std::vector<double> burst_rate;
  std::vector<double> sweep_s;
  double table3_err_pct = 0.0;
  double rss_mb = 0.0;
  std::vector<double> launch_p50_us, xfer_p50_us, rounds_per_s;  // per serving slice
  std::uint64_t stream = 0;
  const auto sweep = [&] {
    const SweepResult result = run_sweep(tally, off);
    sweep_s.push_back(result.wall_s);
    table3_err_pct = result.table3_err_pct;
  };
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const auto start = Clock::now();
    ServeRig rig(socket_path(options, std::to_string(cycle)), kServeLaunchSessions,
                 kServeXferSessions, options.seed, stream++, tally);
    BurstRig burst(kBurstDepth, options.seed, stream++, tally, off);
    setup_s.push_back(seconds_between(start, Clock::now()));

    const double serve_s = serve_named ? share : kSideServeSeconds;
    const int slices = static_cast<int>(std::ceil(serve_s / kServeSliceSeconds));
    for (int slice = 0; slice < slices; ++slice) {
      ServeSamples serve;
      rig.run_window(serve_s / slices, off, serve);
      launch_p50_us.push_back(median(serve.launch_us));
      xfer_p50_us.push_back(median(serve.xfer_us));
      rounds_per_s.push_back(
          static_cast<double>(serve.launch_us.size() + serve.xfer_us.size()) / serve.window_s);
    }
    (void)rig.stop();

    const auto sweep_end = after(sweep_named ? share : 0.0);
    sweep();
    burst_rate.push_back(kBurstDepth / burst.drain(off));
    // peak_rss_mb is the peak through one of each phase in a fresh process.
    // Later cycles would add what the allocator keeps from earlier set-ups,
    // which varies from run to run (whole-run peaks of 157-235 MB over 30
    // runs on a 4-vCPU host, against about 89 MB here).
    if (cycle == 0) rss_mb = peak_rss_mb();

    while (Clock::now() < sweep_end) sweep();
    for (const auto end = after(burst_named ? share : 0.0); Clock::now() < end;) {
      BurstRig more(kBurstDepth, options.seed, stream++, tally, off);
      burst_rate.push_back(kBurstDepth / more.drain(off));
    }
  }

  report.add("sweep_s", median(sweep_s), "s");
  report.add("table3_err_pct", table3_err_pct, "%");
  report.add("launch_p50_us", median(launch_p50_us), "us");
  report.add("xfer_p50_us", median(xfer_p50_us), "us");
  report.add("serve_rounds_per_s", median(rounds_per_s), "1/s");
  report.add("burst_launches_per_s", median(burst_rate), "1/s");
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", rss_mb, "MB");
}

void add_batch_assembly(Report& report, const std::string& suffix,
                        const gpup::rt::Context::Gauges& g, std::uint64_t launches) {
  report.add("rt.fused_share." + suffix,
             launches == 0 ? 0.0
                           : static_cast<double>(g.launches_batched_total) /
                                 static_cast<double>(launches),
             "ratio");
  const std::pair<const char*, std::uint64_t> closes[] = {
      {"drained", g.batch_close_drained_total},
      {"incompatible", g.batch_close_incompatible_total},
      {"unamortized", g.batch_close_unamortized_total},
      {"size_cap", g.batch_close_size_cap_total},
      {"cycle_cap", g.batch_close_cycle_cap_total},
  };
  for (const auto& [why, count] : closes) {
    report.add(std::string("rt.batch_close.") + why + "." + suffix, static_cast<double>(count),
               "count");
  }
}

// Traced runs time the named workload's phase both traced and untraced,
// alternating kOverheadPairs times, for trace.overhead_pct.
constexpr int kOverheadPairs = 2;
constexpr double kTracedServeSeconds = 0.5;

void run_layers(const Options& options, Report& report, Tally& tally) {
  Tracer tracer(true);
  Tracer off(false);
  std::vector<double> traced_cost, plain_cost;  // named phase, per pair
  run_ledger(socket_path(options, "ledger"), options.seed, report, tally, tracer);

  // sim / rv / repro over the Table III matrix.
  const SweepResult sweep = run_sweep(tally, tracer);
  if (options.workload == "dse_sweep") {
    traced_cost.push_back(sweep.wall_s);
    plain_cost.push_back(run_sweep(tally, off).wall_s);
  }
  const CellLedger cells = run_sweep_cells(sweep.rows, tally, tracer);
  if (options.workload == "dse_sweep") {
    for (int pair = 1; pair < kOverheadPairs; ++pair) {
      traced_cost.push_back(run_sweep(tally, tracer).wall_s);
      plain_cost.push_back(run_sweep(tally, off).wall_s);
    }
  }
  double gpu_s = 0.0;
  for (int i = 0; i < 4; ++i) {
    gpu_s += cells.gpu_s[i];
    report.add("sim.ns_per_cycle.cu" + std::to_string(gpup::repro::kCuConfigs[i]),
               cells.gpu_s[i] * 1e9 / static_cast<double>(cells.gpu_cycles[i]), "ns");
  }
  const auto& c = cells.gpu_counters;
  report.add("sim.minstr_per_s", static_cast<double>(c.wf_instructions) / gpu_s / 1e6,
             "Minstr/s");
  report.add("sim.cycles", static_cast<double>(c.cycles), "count");
  report.add("sim.wf_instructions", static_cast<double>(c.wf_instructions), "count");
  report.add("sim.stall_scoreboard", static_cast<double>(c.stall_scoreboard), "count");
  report.add("sim.stall_mem_queue", static_cast<double>(c.stall_mem_queue), "count");
  report.add("sim.stall_no_wavefront", static_cast<double>(c.stall_no_wavefront), "count");
  report.add("sim.cache_hits", static_cast<double>(c.cache_hits), "count");
  report.add("sim.cache_misses", static_cast<double>(c.cache_misses), "count");
  report.add("rv.ns_per_cycle", cells.rv_s * 1e9 / static_cast<double>(cells.rv_cycles), "ns");
  report.add("rv.cycles", static_cast<double>(cells.rv_cycles), "count");
  report.add("repro.critical_cell_s", cells.critical_cell_s, "s");
  report.add("repro.parallel_eff", cells.cells_s / (kSweepThreads * sweep.wall_s), "ratio");

  // serve_mix under load: traced and untraced windows alternate on one rig.
  {
    ServeRig rig(socket_path(options, "traced"), kServeLaunchSessions, kServeXferSessions,
                 options.seed, 50, tally);
    ServeSamples traced;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      ServeSamples window;
      rig.run_window(kTracedServeSeconds, tracer, window);
      ServeSamples plain;
      rig.run_window(kTracedServeSeconds, off, plain);
      if (options.workload == "serve_mix") {
        // Cost of one round: window time / rounds.
        traced_cost.push_back(window.window_s / static_cast<double>(window.launch_us.size() +
                                                                    window.xfer_us.size()));
        plain_cost.push_back(plain.window_s /
                             static_cast<double>(plain.launch_us.size() + plain.xfer_us.size()));
      }
      traced.launch_us.insert(traced.launch_us.end(), window.launch_us.begin(),
                              window.launch_us.end());
      traced.xfer_us.insert(traced.xfer_us.end(), window.xfer_us.begin(), window.xfer_us.end());
    }
    const auto gauges = rig.stop();
    report.add("serve.launch_p99_us", quantile(traced.launch_us, 0.99), "us");
    report.add("serve.launch_p99_n", static_cast<double>(traced.launch_us.size()), "count");
    report.add("serve.xfer_p99_us", quantile(traced.xfer_us, 0.99), "us");
    report.add("serve.xfer_p99_n", static_cast<double>(traced.xfer_us.size()), "count");
    add_batch_assembly(report, "serve_mix", gauges, rig.launch_rounds());
  }

  // burst at a shallow and at the workload's backlog depth.
  {
    BurstRig shallow(kBurstShallowDepth, options.seed, 200, tally, tracer);
    report.add("rt.drain_us_per_launch.shallow",
               shallow.drain(tracer) * 1e6 / kBurstShallowDepth, "us");
    std::vector<double> deep_us;
    gpup::rt::Context::Gauges deep_gauges;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      BurstRig deep(kBurstDepth, options.seed, 201, tally, tracer);
      const double traced_s = deep.drain(tracer);
      deep_us.push_back(traced_s * 1e6 / kBurstDepth);
      deep_gauges = deep.gauges();
      if (options.workload == "burst") {
        BurstRig plain(kBurstDepth, options.seed, 201, tally, off);
        traced_cost.push_back(traced_s);
        plain_cost.push_back(plain.drain(off));
      }
    }
    report.add("rt.drain_us_per_launch.deep", median(deep_us), "us");
    add_batch_assembly(report, "burst", deep_gauges, kBurstDepth);
    report.add("rt.enqueue_us", median(tracer.durations_us("rt.enqueue_kernel")), "us");
  }

  double traced_sum = 0.0, plain_sum = 0.0;
  for (std::size_t i = 0; i < traced_cost.size(); ++i) {
    traced_sum += traced_cost[i];
    plain_sum += plain_cost[i];
  }
  report.add("trace.overhead_pct", (traced_sum / plain_sum - 1.0) * 100.0, "%");

  const std::string path =
      options.scratch + "/trace-" + options.workload + "-" + std::to_string(options.seed) + ".json";
  if (!tracer.write(path)) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {dse_sweep|serve_mix|burst} --seed N "
                 "--seconds S --trace {0|1} [--scratch DIR]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(options.scratch);
    Report report;
    Tally tally;
    if (options.trace) {
      run_layers(options, report, tally);
    } else {
      run_end_to_end(options, report, tally);
    }
    std::printf("%s\n", report.json(tally).c_str());
    return tally.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 2;
  }
}
