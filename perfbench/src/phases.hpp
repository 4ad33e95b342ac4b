// The benchmark's phases. Each drives one layer stack through its public
// entry points only:
//
//   sweep   repro::run_cycle_matrix, kern::run_gpu, kern::run_riscv
//   serve   serve::Client calls against an in-process serve::Daemon
//   burst   rt::Context / CommandQueue over a gated backlog
//   ledger  the `step` kernel through bare sim::Gpu, rt::Context and one
//           gpupd session (traced runs only)
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "src/repro/repro.hpp"
#include "src/rt/runtime.hpp"
#include "src/serve/client.hpp"
#include "src/serve/daemon.hpp"

namespace perfbench {

// ---- dse_sweep --------------------------------------------------------

struct SweepResult {
  double wall_s = 0.0;
  std::vector<gpup::repro::CycleRow> rows;
  double table3_err_pct = 0.0;
};

/// One Table III sweep at paper sizes (scale 1) on kSweepThreads runtime
/// workers. Gates: every cell valid, simulated-cycle total pinned.
SweepResult run_sweep(Tally& tally, Tracer& tracer);

/// Per-cell host cost of the same matrix, cell by cell on this thread
/// (traced runs). Gates: each cell's cycles equal `reference` (the
/// parallel sweep's), summed PerfCounters equal their pinned values.
struct CellLedger {
  double gpu_s[4] = {0, 0, 0, 0};            ///< host seconds per CU config
  std::uint64_t gpu_cycles[4] = {0, 0, 0, 0};
  gpup::sim::PerfCounters gpu_counters;      ///< summed over the 28 G-GPU cells
  double rv_s = 0.0;
  std::uint64_t rv_cycles = 0;               ///< naive + optimized ports
  double critical_cell_s = 0.0;
  double cells_s = 0.0;                      ///< sum over all 42 cells
};
CellLedger run_sweep_cells(const std::vector<gpup::repro::CycleRow>& reference, Tally& tally,
                           Tracer& tracer);

inline constexpr unsigned kSweepThreads = 2;

// ---- serve_mix --------------------------------------------------------

struct ServeSamples {
  std::vector<double> launch_us;  ///< launch-round latencies
  std::vector<double> xfer_us;    ///< transfer-round latencies
  double window_s = 0.0;
};

/// An in-process gpupd (2 devices, 2 workers, default options otherwise) plus
/// connected, compiled and allocated sessions: `launch_sessions` that run
/// launch rounds and `xfer_sessions` that run transfer rounds.
class ServeRig {
 public:
  ServeRig(const std::string& socket_path, int launch_sessions, int xfer_sessions,
           std::uint64_t seed, std::uint64_t stream, Tally& tally);
  ~ServeRig();
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  [[nodiscard]] int sessions() const { return static_cast<int>(sessions_.size()); }
  [[nodiscard]] bool is_launch_session(int s) const;
  /// One closed-loop round on session `s`; returns its latency in µs, or
  /// a negative value if a request failed or a read-back was wrong.
  double round(int s, Tracer& tracer, std::uint64_t request);
  /// Every session runs rounds on its own thread for `seconds`.
  void run_window(double seconds, Tracer& tracer, ServeSamples& samples);
  [[nodiscard]] gpup::Status ping(int s);
  /// Drain the daemon (final metrics go to an in-memory sink) and gate the
  /// context gauges to zero. Returns the final snapshot.
  gpup::rt::Context::Gauges stop();
  [[nodiscard]] std::uint64_t launch_rounds() const { return launch_rounds_; }

 private:
  struct Session;
  Tally& tally_;
  std::unique_ptr<gpup::serve::Daemon> daemon_;
  std::vector<std::unique_ptr<Session>> sessions_;
  // DaemonOptions::stats_sink: drain()'s final metrics JSON lands here,
  // in memory, instead of on the benchmark's output.
  std::FILE* sink_ = nullptr;
  char* sink_buf_ = nullptr;
  std::size_t sink_len_ = 0;
  std::uint64_t launch_rounds_ = 0;
  bool stopped_ = false;
};

inline constexpr std::uint32_t kLaunchWords = 1024;       ///< 4 KB, N = 1024
inline constexpr std::uint32_t kXferWords = 64 * 1024 / 4;  ///< 64 KB

// ---- burst ------------------------------------------------------------

/// A gated offline backlog: 4 tenants on out-of-order queues over 2
/// devices under kFairShare with 2 runtime workers; `depth` tiny `step`
/// launches (32 items, one pre-written buffer each).
class BurstRig {
 public:
  BurstRig(int depth, std::uint64_t seed, std::uint64_t stream, Tally& tally, Tracer& tracer);
  ~BurstRig();
  BurstRig(const BurstRig&) = delete;
  BurstRig& operator=(const BurstRig&) = delete;
  /// Release the gate and finish(); returns the drain seconds. Then reads
  /// every buffer back against its golden and gates the gauges to zero.
  double drain(Tracer& tracer);
  [[nodiscard]] const gpup::rt::Context::Gauges& gauges() const { return gauges_; }

 private:
  bool gauges_settled(const char* when);

  Tally& tally_;
  std::unique_ptr<gpup::rt::Context> context_;
  gpup::rt::UserEvent gate_;
  struct Launch {
    gpup::rt::CommandQueue queue;
    gpup::rt::Buffer buffer;
    std::vector<std::uint32_t> golden;
    gpup::rt::Event kernel;
  };
  std::vector<Launch> launches_;
  gpup::rt::Context::Gauges gauges_;
};

inline constexpr int kBurstDepth = 20000;
inline constexpr int kBurstShallowDepth = 2000;

// ---- ledger -----------------------------------------------------------

/// The layer ledger and simulator/assembler micro-measurements (traced
/// runs only): adds sim.launch_us, rt.round_us, serve.* unloaded numbers,
/// sim.tiny_launch_us, sim.segment_us and isa.compile_us to `report`.
void run_ledger(const std::string& socket_path, std::uint64_t seed, Report& report,
                Tally& tally, Tracer& tracer);

}  // namespace perfbench
