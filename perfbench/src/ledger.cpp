// The layer ledger: the same `step` kernel (N = 1024, cu = 1) through bare
// sim::Gpu, rt::Context and one gpupd session, so a round's time splits
// into simulator, runtime and wire/session shares. Plus the per-segment
// cost of a fused launch and the assembler's compile time.

#include "phases.hpp"
#include "src/kern/benchmark.hpp"
#include "src/sim/gpu.hpp"

namespace perfbench {

namespace {
constexpr int kReps = 400;
constexpr int kBlock = 20;
constexpr std::uint64_t kPinnedStepCycles = 1657;  // step, N = 1024, cu = 1
constexpr std::uint32_t kTinyItems = 32;
constexpr int kSegments = 32;
}  // namespace

void run_ledger(const std::string& socket_path, std::uint64_t seed, Report& report,
                Tally& tally, Tracer& tracer) {
  Rng rng(seed, 0x1ed9e5);
  const std::vector<std::uint32_t> input = rng.words(kLaunchWords);
  const std::uint32_t c = rng.u32() % 1000;
  const std::vector<std::uint32_t> golden = step_golden(input, c);
  const auto compiled = gpup::rt::Context::compile(kStepSource);
  if (!tally.op(compiled.ok(), "ledger compile")) return;
  const gpup::isa::Program& program = compiled.value();

  // The layers take turns in blocks of kBlock reps: within a block each
  // layer runs warm, back to back, and the turns spread host drift over all
  // of them alike, so their differences stay meaningful.
  gpup::sim::Gpu gpu(gpup::sim::GpuConfig{});
  const std::uint32_t addr = gpu.try_alloc(kLaunchWords * 4).value();
  const std::vector<std::uint32_t> params = {kLaunchWords, addr, c};
  std::vector<std::uint32_t> out(kLaunchWords);

  gpup::rt::ContextOptions options;
  options.devices = {gpup::sim::GpuConfig{}};
  gpup::rt::Context context(std::move(options));
  gpup::rt::CommandQueue queue = context.create_queue();
  const auto buffer = queue.alloc_words(kLaunchWords);

  ServeRig rig(socket_path, 1, 1, seed, 0x1ed9e5, tally);
  if (!tally.op(buffer.ok(), "rt alloc") || !tally.op(rig.sessions() == 2, "ledger gpupd")) {
    return;
  }

  std::vector<double> sim_us, rt_us, serve_us, ping_us, xfer_us;
  for (int block = 0; block < kReps / kBlock; ++block) {
    for (int rep = 0; rep < kBlock; ++rep) {
      tally.op(gpu.try_write(addr, input).ok(), "sim write");
      const auto start = Clock::now();
      gpup::Result<gpup::sim::LaunchStats> run = gpup::Error{"not run", "perfbench"};
      {
        SpanScope span(tracer, "sim.try_launch");
        run = gpu.try_launch(program, params, kLaunchWords, 256);
      }
      sim_us.push_back(us_between(start, Clock::now()));
      if (tally.op(run.ok(), "sim launch")) {
        tally.gate(run.value().cycles == kPinnedStepCycles,
                   "step kernel cycles " + std::to_string(run.value().cycles) + " != pinned");
      }
      tally.op(gpu.try_read(addr, out).ok(), "sim read");
      tally.gate(out == golden, "sim read-back != host golden");
    }

    // Runtime: write + launch + read through rt::Context.
    for (int rep = 0; rep < kBlock; ++rep) {
      const auto start = Clock::now();
      gpup::rt::Event read;
      {
        SpanScope span(tracer, "rt.round");
        (void)queue.enqueue_write(buffer.value(), input);
        (void)queue.enqueue_kernel(program,
                                   gpup::rt::Args().add(kLaunchWords).add(buffer.value()).add(c),
                                   {kLaunchWords, 256}, gpup::rt::LaunchOptions{});
        read = queue.enqueue_read(buffer.value());
        tally.op(read.wait(), "rt round");
      }
      rt_us.push_back(us_between(start, Clock::now()));
      tally.gate(read.data() == golden, "rt read-back != host golden");
    }

    // Serving: launch rounds, pings and transfer rounds.
    for (int rep = 0; rep < kBlock; ++rep) {
      const double us = rig.round(0, tracer, tracer.next_id());
      if (us >= 0) serve_us.push_back(us);
    }
    for (int rep = 0; rep < kBlock; ++rep) {
      const auto start = Clock::now();
      tally.op(rig.ping(0).ok(), "gpupd ping");
      ping_us.push_back(us_between(start, Clock::now()));
    }
    for (int rep = 0; rep < kBlock; ++rep) {
      const double us = rig.round(1, tracer, tracer.next_id());
      if (us >= 0) xfer_us.push_back(us);
    }
  }
  tally.op(context.finish(), "rt finish");

  report.add("sim.launch_us", median(sim_us), "us");
  report.add("rt.round_us", median(rt_us), "us");
  report.add("rt.overhead_us", median(rt_us) - median(sim_us), "us");
  report.add("serve.round_us", median(serve_us), "us");
  report.add("serve.overhead_us", median(serve_us) - median(rt_us), "us");
  report.add("serve.ping_us", median(ping_us), "us");
  // A transfer round moves 64 KB each way.
  report.add("serve.xfer_us_per_mb",
             median(xfer_us) / (2.0 * kXferWords * 4 / (1024.0 * 1024.0)), "us/MB");
  // Per-call split of the launch rounds, from their spans.
  for (const char* call : {"write", "launch", "read", "wait"}) {
    report.add(std::string("serve.call_us.") + call,
               median(tracer.durations_us(std::string("serve.") + call, "serve.launch_round")),
               "us");
  }

  // ---- a tiny standalone launch vs one segment of a fused batch ----
  {
    std::vector<std::uint32_t> addrs;
    std::vector<std::vector<std::uint32_t>> params;
    for (int s = 0; s < kSegments; ++s) {
      addrs.push_back(gpu.try_alloc(kTinyItems * 4).value());
      params.push_back({kTinyItems, addrs.back(), c});
    }
    std::vector<gpup::sim::LaunchSegment> segments;
    for (const auto& p : params) segments.push_back({&p, kTinyItems, kTinyItems, nullptr});
    const std::vector<std::uint32_t> tiny_input(input.begin(), input.begin() + kTinyItems);
    const std::vector<std::uint32_t> tiny_golden(golden.begin(), golden.begin() + kTinyItems);
    std::vector<std::uint32_t> tiny_out(kTinyItems);

    std::vector<double> tiny_us;
    std::vector<double> segment_us;
    for (int rep = 0; rep < kReps; ++rep) {
      tally.op(gpu.try_write(addrs[0], tiny_input).ok(), "sim write");
      auto start = Clock::now();
      tally.op(gpu.try_launch(program, params[0], kTinyItems, kTinyItems).ok(), "sim tiny launch");
      tiny_us.push_back(us_between(start, Clock::now()));
      tally.op(gpu.try_read(addrs[0], tiny_out).ok(), "sim read");
      tally.gate(tiny_out == tiny_golden, "tiny launch read-back != host golden");

      for (const std::uint32_t segment_addr : addrs) {
        tally.op(gpu.try_write(segment_addr, tiny_input).ok(), "sim write");
      }
      start = Clock::now();
      std::vector<gpup::Result<gpup::sim::LaunchStats>> results;
      {
        SpanScope span(tracer, "sim.try_launch_batch");
        results = gpu.try_launch_batch(program, segments);
      }
      segment_us.push_back(us_between(start, Clock::now()) / kSegments);
      for (const auto& result : results) tally.op(result.ok(), "sim batch segment");
      for (const std::uint32_t segment_addr : addrs) {
        tally.op(gpu.try_read(segment_addr, tiny_out).ok(), "sim read");
        tally.gate(tiny_out == tiny_golden, "batch segment read-back != host golden");
      }
    }
    report.add("sim.tiny_launch_us", median(tiny_us), "us");
    report.add("sim.segment_us", median(segment_us), "us");
  }

  // ---- assembler: the step kernel and the seven Table III kernels ----
  {
    std::vector<std::string> sources = {kStepSource};
    for (const auto* bench : gpup::kern::all_benchmarks()) sources.push_back(bench->gpu_source());
    std::vector<double> us;
    for (int rep = 0; rep < kReps / 4; ++rep) {
      const auto start = Clock::now();
      for (const auto& source : sources) {
        SpanScope span(tracer, "isa.compile");
        tally.op(gpup::rt::Context::compile(source).ok(), "compile");
      }
      us.push_back(us_between(start, Clock::now()) / static_cast<double>(sources.size()));
    }
    report.add("isa.compile_us", median(us), "us");
  }
}

}  // namespace perfbench
