// dse_sweep: the paper's Table III matrix — 7 kernels x {RISC-V naive,
// RISC-V optimized, G-GPU 1/2/4/8 CU} at paper input sizes. Every cell
// builds its own core or device, so caches start cold in every cell.

#include <cmath>

#include "phases.hpp"
#include "src/kern/benchmark.hpp"

namespace perfbench {
namespace {

// Simulated work of one scale-1 sweep. Deterministic: a change to any of
// these means simulated behaviour changed, not host speed.
constexpr std::uint64_t kPinnedSweepCycles = 20'070'020;  // RISC-V + G-GPU cells
constexpr std::uint64_t kPinnedRvCycles = 2'644'468;  // naive + optimized ports
struct PinnedCounters {
  std::uint64_t cycles, wf_instructions, stall_scoreboard, stall_mem_queue, stall_no_wavefront,
      cache_hits, cache_misses;
};
constexpr PinnedCounters kPinnedGpu = {
    17'425'552, 4'402'424, 1'766'971, 12'732'043, 1'753'515, 2'752'166, 597'578};

std::uint64_t sweep_cycles(const std::vector<gpup::repro::CycleRow>& rows) {
  std::uint64_t total = 0;
  for (const auto& row : rows) {
    total += row.riscv_cycles + row.riscv_optimized_cycles;
    for (const auto c : row.gpu_cycles) total += c;
  }
  return total;
}

/// Geometric-mean |log(sim / paper)| over the 28 G-GPU cells, as a
/// percentage: exp(mean |ln ratio|) - 1.
double table3_error_pct(const std::vector<gpup::repro::CycleRow>& rows, Tally& tally) {
  double sum = 0.0;
  int cells = 0;
  for (const auto& row : rows) {
    for (const auto& paper : gpup::repro::paper_table3()) {
      if (row.name != paper.name) continue;
      for (std::size_t i = 0; i < 4; ++i) {
        const double sim = static_cast<double>(row.gpu_cycles[i]);
        sum += std::fabs(std::log(sim / (paper.gpu_kcycles[i] * 1000.0)));
        ++cells;
      }
    }
  }
  tally.gate(cells == 28, "Table III comparison covers all 28 G-GPU cells");
  return cells == 0 ? 0.0 : (std::exp(sum / cells) - 1.0) * 100.0;
}

}  // namespace

SweepResult run_sweep(Tally& tally, Tracer& tracer) {
  SweepResult result;
  const auto start = Clock::now();
  {
    SpanScope span(tracer, "repro.run_cycle_matrix", 0, tracer.next_id());
    result.rows = gpup::repro::run_cycle_matrix(1, kSweepThreads);
  }
  result.wall_s = seconds_between(start, Clock::now());
  for (const auto& row : result.rows) {
    // The matrix reports validity per row (6 cells), so a bad cell fails
    // its whole row here; the traced cell pass counts cells one by one.
    for (int cell = 0; cell < 6; ++cell) tally.op(row.all_valid, "sweep cell");
    tally.gate(row.all_valid, "sweep row " + row.name + " valid against its host golden");
  }
  const std::uint64_t cycles = sweep_cycles(result.rows);
  tally.gate(cycles == kPinnedSweepCycles,
             "sweep simulated cycles " + std::to_string(cycles) + " != pinned " +
                 std::to_string(kPinnedSweepCycles));
  result.table3_err_pct = table3_error_pct(result.rows, tally);
  return result;
}

CellLedger run_sweep_cells(const std::vector<gpup::repro::CycleRow>& reference, Tally& tally,
                           Tracer& tracer) {
  CellLedger ledger;
  const auto& benchmarks = gpup::kern::all_benchmarks();
  const std::uint64_t parent = tracer.next_id();
  SpanScope sweep_span(tracer, "repro.cells", 0, parent);
  for (std::size_t b = 0; b < benchmarks.size() && b < reference.size(); ++b) {
    const auto& bench = *benchmarks[b];
    const auto& row = reference[b];
    for (const bool optimized : {false, true}) {
      const auto start = Clock::now();
      gpup::kern::RvRun run;
      {
        SpanScope span(tracer, "rv.run_riscv", sweep_span.id(), parent);
        run = gpup::kern::run_riscv(bench, row.riscv_input, optimized);
      }
      const double s = seconds_between(start, Clock::now());
      ledger.rv_s += s;
      ledger.cells_s += s;
      ledger.critical_cell_s = std::max(ledger.critical_cell_s, s);
      ledger.rv_cycles += run.stats.cycles;
      tally.op(run.valid, "RISC-V cell");
      tally.gate(run.stats.cycles ==
                     (optimized ? row.riscv_optimized_cycles : row.riscv_cycles),
                 "RISC-V cell " + bench.name() + " cycles differ from the sweep's");
    }
    for (std::size_t i = 0; i < 4; ++i) {
      gpup::sim::GpuConfig config;
      config.cu_count = gpup::repro::kCuConfigs[i];
      const auto start = Clock::now();
      gpup::kern::GpuRun run;
      {
        SpanScope span(tracer, "sim.run_gpu", sweep_span.id(), parent);
        run = gpup::kern::run_gpu(bench, config, row.gpu_input);
      }
      const double s = seconds_between(start, Clock::now());
      ledger.gpu_s[i] += s;
      ledger.cells_s += s;
      ledger.critical_cell_s = std::max(ledger.critical_cell_s, s);
      ledger.gpu_cycles[i] += run.stats.cycles;
      ledger.gpu_counters += run.stats.counters;
      tally.op(run.valid, "G-GPU cell");
      tally.gate(run.stats.cycles == row.gpu_cycles[i],
                 "G-GPU cell " + bench.name() + " cycles differ from the sweep's");
    }
  }
  const auto& c = ledger.gpu_counters;
  const PinnedCounters got = {c.cycles,          c.wf_instructions,    c.stall_scoreboard,
                              c.stall_mem_queue, c.stall_no_wavefront, c.cache_hits,
                              c.cache_misses};
  const bool pinned = got.cycles == kPinnedGpu.cycles &&
                      got.wf_instructions == kPinnedGpu.wf_instructions &&
                      got.stall_scoreboard == kPinnedGpu.stall_scoreboard &&
                      got.stall_mem_queue == kPinnedGpu.stall_mem_queue &&
                      got.stall_no_wavefront == kPinnedGpu.stall_no_wavefront &&
                      got.cache_hits == kPinnedGpu.cache_hits &&
                      got.cache_misses == kPinnedGpu.cache_misses;
  tally.gate(pinned,
             "summed G-GPU PerfCounters moved: cycles=" + std::to_string(got.cycles) +
                 " wf=" + std::to_string(got.wf_instructions) +
                 " sb=" + std::to_string(got.stall_scoreboard) +
                 " mq=" + std::to_string(got.stall_mem_queue) +
                 " nw=" + std::to_string(got.stall_no_wavefront) +
                 " hit=" + std::to_string(got.cache_hits) +
                 " miss=" + std::to_string(got.cache_misses));
  tally.gate(ledger.rv_cycles == kPinnedRvCycles,
             "RISC-V cycles " + std::to_string(ledger.rv_cycles) + " != pinned " +
                 std::to_string(kPinnedRvCycles));
  return ledger;
}

}  // namespace perfbench
