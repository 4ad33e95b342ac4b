// burst: an offline backlog of tiny `step` launches, gated and released at
// once. Runtime-bound: admission, event graph, the kFairShare scheduler's
// pop and batch assembly over a 2-device pool; simulator work per launch
// is small.

#include "phases.hpp"

namespace perfbench {

namespace {
constexpr int kTenants = 4;
constexpr std::uint32_t kItems = 32;
}  // namespace

BurstRig::BurstRig(int depth, std::uint64_t seed, std::uint64_t stream, Tally& tally,
                   Tracer& tracer)
    : tally_(tally) {
  gpup::rt::ContextOptions options;
  options.devices.assign(2, gpup::sim::GpuConfig{});
  options.threads = 2;
  options.scheduler.policy = gpup::rt::SchedulerPolicy::kFairShare;
  context_ = std::make_unique<gpup::rt::Context>(std::move(options));
  const auto program = gpup::rt::Context::compile(kStepSource);
  if (!tally_.op(program.ok(), "burst compile")) return;

  std::vector<gpup::rt::CommandQueue> queues;
  for (int t = 0; t < kTenants; ++t) {
    gpup::rt::QueueOptions queue_options;
    queue_options.mode = gpup::rt::QueueMode::kOutOfOrder;
    queue_options.tenant = static_cast<std::uint64_t>(t);
    queue_options.device = t % 2;
    auto created = context_->create_queue(queue_options);
    if (!tally_.op(created.ok(), "burst create_queue")) return;
    queues.push_back(created.value());
  }
  gate_ = context_->create_user_event();

  Rng rng(seed, stream);
  std::vector<std::uint32_t> constants(static_cast<std::size_t>(depth));
  launches_.resize(static_cast<std::size_t>(depth));
  {
    SpanScope span(tracer, "rt.backlog_upload");
    for (int i = 0; i < depth; ++i) {
      Launch& launch = launches_[static_cast<std::size_t>(i)];
      launch.queue = queues[static_cast<std::size_t>(i % kTenants)];
      auto buffer = launch.queue.alloc_words(kItems);
      if (!tally_.op(buffer.ok(), "burst alloc")) return;
      launch.buffer = buffer.value();
      auto words = rng.words(kItems);
      constants[static_cast<std::size_t>(i)] = rng.u32() % 1000;
      launch.golden = step_golden(words, constants[static_cast<std::size_t>(i)]);
      (void)launch.queue.enqueue_write(launch.buffer, std::move(words));
    }
    tally_.op(context_->finish(), "burst uploads");
  }
  for (int i = 0; i < depth; ++i) {
    Launch& launch = launches_[static_cast<std::size_t>(i)];
    SpanScope span(tracer, "rt.enqueue_kernel");
    launch.kernel = launch.queue.enqueue_kernel(
        program.value(),
        gpup::rt::Args().add(kItems).add(launch.buffer).add(constants[static_cast<std::size_t>(i)]),
        {kItems, kItems}, gpup::rt::LaunchOptions{}, {gate_.event()});
  }
}

BurstRig::~BurstRig() {
  // A rig that was never drained still holds gated commands: release them
  // so the context can settle before it is destroyed.
  if (context_ != nullptr) {
    if (gate_.valid()) gate_.complete();
    (void)context_->finish();
    launches_.clear();
  }
}

bool BurstRig::gauges_settled(const char* when) {
  const gpup::rt::Context::Gauges g = context_->snapshot();
  return tally_.gate(g.inflight_cycles == 0 && g.admission_pending == 0 &&
                         g.unsettled_commands == 0 && g.batches_inflight == 0,
                     std::string("burst context gauges non-zero ") + when);
}

double BurstRig::drain(Tracer& tracer) {
  if (launches_.empty() || !launches_.back().kernel.valid()) {
    tally_.gate(false, "burst backlog was not built");
    return 0.0;
  }
  const auto start = Clock::now();
  bool finished = false;
  {
    SpanScope span(tracer, "rt.burst_drain");
    gate_.complete();
    finished = context_->finish();
  }
  const double seconds = seconds_between(start, Clock::now());
  tally_.gate(finished, "burst finish() reported a failed command");
  gauges_settled("after finish()");
  gauges_ = context_->snapshot();

  std::vector<gpup::rt::Event> reads;
  reads.reserve(launches_.size());
  for (Launch& launch : launches_) {
    tally_.op(launch.kernel.status() == gpup::rt::EventStatus::kComplete, "burst launch");
    reads.push_back(launch.queue.enqueue_read(launch.buffer));
  }
  (void)context_->finish();
  bool goldens = true;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const bool read = tally_.op(reads[i].status() == gpup::rt::EventStatus::kComplete,
                                "burst read-back");
    goldens = goldens && read && reads[i].data() == launches_[i].golden;
  }
  tally_.gate(goldens, "burst read-back != host golden");
  gauges_settled("after read-back");
  reads.clear();
  launches_.clear();
  context_.reset();
  return seconds;
}

}  // namespace perfbench
