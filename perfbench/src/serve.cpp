// serve_mix: closed-loop gpupd sessions over a real Unix socket. Launch
// rounds (4 KB write, `step` launch at N = 1024, read, wait) are mostly
// simulator time; transfer rounds (64 KB write, 64 KB read, wait) are all
// wire encode/decode and copies.

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "phases.hpp"

namespace perfbench {

namespace {
constexpr int kVariants = 4;  // distinct seeded inputs per session, cycled
}  // namespace

struct ServeRig::Session {
  std::optional<gpup::serve::Client> client;
  bool launch = true;
  std::uint64_t program = 0;
  std::uint64_t buffer = 0;
  std::vector<std::vector<std::uint32_t>> inputs;
  std::vector<std::vector<std::uint32_t>> goldens;
  std::vector<std::uint32_t> constants;
  std::uint64_t rounds = 0;
};

ServeRig::ServeRig(const std::string& socket_path, int launch_sessions, int xfer_sessions,
                   std::uint64_t seed, std::uint64_t stream, Tally& tally)
    : tally_(tally) {
  sink_ = open_memstream(&sink_buf_, &sink_len_);
  gpup::serve::DaemonOptions options;
  options.socket_path = socket_path;
  options.context.devices.assign(2, gpup::sim::GpuConfig{});
  // One worker per device rather than one per host core: the same load on
  // every host, and no more runnable threads than the sessions can feed.
  options.context.threads = 2;
  options.stats_sink = sink_;
  daemon_ = std::make_unique<gpup::serve::Daemon>(options);
  if (!tally_.op(daemon_->start().ok(), "gpupd start")) return;

  const int total = launch_sessions + xfer_sessions;
  for (int s = 0; s < total; ++s) {
    auto session = std::make_unique<Session>();
    session->launch = s < launch_sessions;
    Rng rng(seed, stream * 64 + static_cast<std::uint64_t>(s));
    const std::uint32_t words = session->launch ? kLaunchWords : kXferWords;
    for (int v = 0; v < kVariants; ++v) {
      session->inputs.push_back(rng.words(words));
      session->constants.push_back(rng.u32() % 1000);
      session->goldens.push_back(session->launch
                                     ? step_golden(session->inputs.back(),
                                                   session->constants.back())
                                     : session->inputs.back());
    }
    gpup::serve::ClientOptions client_options;
    client_options.tenant = static_cast<std::uint64_t>(s);
    auto connected = gpup::serve::Client::connect(socket_path, client_options);
    if (!tally_.op(connected.ok(), "gpupd connect")) return;
    session->client.emplace(std::move(connected).value());
    const auto program = session->client->compile(kStepSource);
    const auto buffer = session->client->alloc_words(words);
    if (!tally_.op(program.ok(), "gpupd compile") || !tally_.op(buffer.ok(), "gpupd alloc")) {
      return;
    }
    session->program = program.value();
    session->buffer = buffer.value();
    sessions_.push_back(std::move(session));
  }
}

ServeRig::~ServeRig() {
  if (!stopped_) (void)stop();
}

bool ServeRig::is_launch_session(int s) const {
  return sessions_[static_cast<std::size_t>(s)]->launch;
}

double ServeRig::round(int s, Tracer& tracer, std::uint64_t request) {
  Session& session = *sessions_[static_cast<std::size_t>(s)];
  gpup::serve::Client& client = *session.client;
  const std::size_t v = session.rounds++ % kVariants;
  const auto start = Clock::now();
  SpanScope round_span(tracer, session.launch ? "serve.launch_round" : "serve.xfer_round", 0,
                       request);
  // Handles of the write and launch, collected after the round: the daemon
  // keeps an event handle until it is waited on.
  std::uint64_t handles[2] = {0, 0};
  int held = 0;
  {
    SpanScope span(tracer, "serve.write", round_span.id(), request);
    const auto write = client.write(session.buffer, session.inputs[v]);
    if (!tally_.op(write.ok(), "gpupd write")) return -1.0;
    handles[held++] = write.value();
  }
  if (session.launch) {
    gpup::serve::LaunchSpec spec;
    spec.program = session.program;
    spec.args = {{false, kLaunchWords}, {true, session.buffer}, {false, session.constants[v]}};
    spec.global_size = kLaunchWords;
    SpanScope span(tracer, "serve.launch", round_span.id(), request);
    const auto launch = client.launch(spec);
    if (!tally_.op(launch.ok(), "gpupd launch")) return -1.0;
    handles[held++] = launch.value();
  }
  gpup::Result<std::uint64_t> read = gpup::Error{"not sent", "perfbench"};
  {
    SpanScope span(tracer, "serve.read", round_span.id(), request);
    read = client.read(session.buffer);
  }
  if (!tally_.op(read.ok(), "gpupd read")) return -1.0;
  gpup::Result<gpup::serve::WaitOutcome> done = gpup::Error{"not sent", "perfbench"};
  {
    SpanScope span(tracer, "serve.wait", round_span.id(), request);
    done = client.wait(read.value(), 30'000);
  }
  const bool complete = done.ok() && done.value().result == gpup::rt::WaitResult::kComplete;
  if (!tally_.op(complete, "gpupd wait")) return -1.0;
  if (!tally_.gate(done.value().data == session.goldens[v],
                   session.launch ? "gpupd launch round read-back != host golden"
                                  : "gpupd transfer round read-back != written words")) {
    return -1.0;
  }
  const double us = us_between(start, Clock::now());
  // Outside the round's latency: the in-order queue ran the write and
  // launch before the read, so each wait answers (almost) at once and frees
  // the handle. Without it the daemon's handle table, and this process's
  // memory, grows with every round for the whole window.
  for (int h = 0; h < held; ++h) {
    const auto released = client.wait(handles[h], 30'000);
    tally_.op(released.ok() && released.value().result == gpup::rt::WaitResult::kComplete,
              "gpupd handle release");
  }
  return us;
}

void ServeRig::run_window(double seconds, Tracer& tracer, ServeSamples& samples) {
  const int count = this->sessions();
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(count));
  std::vector<Clock::time_point> ends(static_cast<std::size_t>(count));
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int s = 0; s < count; ++s) {
    threads.emplace_back([&, s] {
      auto& out = latencies[static_cast<std::size_t>(s)];
      out.reserve(1 << 16);
      while (Clock::now() < deadline) {
        const double us = round(s, tracer, tracer.enabled() ? tracer.next_id() : 0);
        if (us >= 0) {
          out.push_back(us);
        } else if (!sessions_[static_cast<std::size_t>(s)]->client->alive()) {
          break;
        }
      }
      ends[static_cast<std::size_t>(s)] = Clock::now();
    });
  }
  for (auto& thread : threads) thread.join();
  samples.window_s += seconds_between(start, *std::max_element(ends.begin(), ends.end()));
  for (int s = 0; s < count; ++s) {
    const auto& from = latencies[static_cast<std::size_t>(s)];
    auto& to = is_launch_session(s) ? samples.launch_us : samples.xfer_us;
    to.insert(to.end(), from.begin(), from.end());
    if (is_launch_session(s)) launch_rounds_ += from.size();
  }
}

gpup::Status ServeRig::ping(int s) { return sessions_[static_cast<std::size_t>(s)]->client->ping(); }

gpup::rt::Context::Gauges ServeRig::stop() {
  stopped_ = true;
  // Close the sessions first so drain() finds no live connection to wait
  // out its grace period for.
  sessions_.clear();
  daemon_->drain();
  const gpup::rt::Context::Gauges g = daemon_->context().snapshot();
  tally_.gate(g.inflight_cycles == 0 && g.admission_pending == 0 &&
                  g.unsettled_commands == 0 && g.batches_inflight == 0 && g.live_queues == 0,
              "gpupd context gauges non-zero after drain()");
  std::fclose(sink_);
  tally_.gate(sink_len_ > 0 && sink_buf_[0] == '{',
              "drain() did not flush its final metrics into the stats sink");
  std::free(sink_buf_);
  sink_ = nullptr;
  sink_buf_ = nullptr;
  daemon_.reset();
  return g;
}

}  // namespace perfbench
