#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "pw/api/request.hpp"
#include "pw/api/solver.hpp"
#include "pw/decomp/decomposition.hpp"
#include "pw/obs/metrics.hpp"
#include "pw/shard/topology.hpp"

namespace pw::shard {

/// Tuning of one sharded solver: how many simulated device instances to
/// partition the grid over, how their halo traffic is costed, and how a
/// dead device is handled.
struct ShardOptions {
  /// Simulated device instances. The decomposition is auto_grid(dims,
  /// devices); when that cannot tile the grid (a prime count on a narrow
  /// grid), the solver steps the count down until it fits.
  std::size_t devices = 2;

  /// Interconnect topology + bandwidth/latency knobs for the modelled
  /// exchange cost (the compute and the exchanged bytes are measured; the
  /// wire time of the simulated links is modelled, like ocl::DeviceTiming).
  InterconnectModel interconnect;

  /// Resilience: when a device faults (its `shard.<id>.*` site armed with a
  /// hard kind), re-partition over the survivors and re-run; with no
  /// survivors left, fall back to a single-device CPU solve. Either path
  /// flags the result degraded. Disabled, the fault surfaces as
  /// kBackendFault.
  bool failover = true;

  /// External metrics sink; the solver uses a private registry when null.
  obs::MetricsRegistry* metrics = nullptr;

  /// Test hook: called with the device id on a shard's worker before each
  /// of its passes, concurrently across shards. What it throws is handled
  /// as the pass's own exception, so tests reach the typed-error paths
  /// with it.
  std::function<void(std::size_t device)> before_pass;
};

/// What one sharded solve actually did — the measured quantities the
/// scale-out bench gates on, plus enough structure for per-shard counters.
struct ShardRunReport {
  std::size_t devices_configured = 0;  ///< ShardOptions::devices
  std::size_t devices_used = 0;        ///< shards in the final partition
  std::size_t px = 0, py = 0;          ///< final process grid
  std::size_t sweeps = 0;              ///< stencil sweeps executed
  std::size_t exchanges = 0;           ///< halo exchanges performed
  std::size_t exchanged_fields = 0;    ///< fields per exchange (spec-derived)
  std::uint64_t halo_bytes = 0;        ///< cross-device bytes, all exchanges
  std::uint64_t halo_messages = 0;     ///< cross-device messages
  double exchange_model_s = 0.0;       ///< modelled wire time, all exchanges
  /// Measured halo copy time: per sweep the slowest worker's pull (the
  /// workers pull concurrently), summed over sweeps.
  double exchange_wall_s = 0.0;
  /// Per-shard compute: thread CPU seconds of each shard's sweep passes on
  /// its worker, scatter and halo pulls excluded (index = position in the
  /// final partition, not device id).
  std::vector<double> shard_cpu_s;
  std::vector<std::size_t> shard_device;  ///< device id per partition slot
  double max_shard_cpu_s = 0.0;  ///< slowest shard (compute critical path)
  double sum_shard_cpu_s = 0.0;  ///< total compute across shards
  /// Simulated cluster step time: compute critical path + exchange wire
  /// time. The scaling bench's efficiency numerator/denominator.
  double critical_path_s = 0.0;
  std::size_t repartitions = 0;   ///< device deaths survived
  bool cpu_failover = false;      ///< ladder bottomed out on the CPU path
};

/// Executes one solve across N simulated device shards: partition via
/// decomp::Decomposition (X/Y planes, full z columns, 1-deep halos — the
/// paper's Fig. 4 chunk-halo scheme lifted from on-chip chunks to devices),
/// scatter interiors, exchange halos per sweep through the HaloPlan (cost
/// modelled over per-device DMA schedulers), run the kernel's stencil pass
/// per shard on its own engine instance; the last pass writes each shard's
/// extent of the result in place, so there is no gather. Results are
/// bit-exact with the single-device pw::api::Solver for every registered
/// kernel and every backend, which the shard differential battery asserts.
///
/// The partition is resident, as a board keeps its fields in device memory
/// between kernel calls: the decomposition, the linted halo plan, each
/// shard's field buffers and halo pull list, and one worker thread per
/// shard are built once per (grid dims, alive devices) — counted by the
/// `shard.partitions_built` counter — and reused by every later solve of
/// that shape. A device death or a new grid shape drops the partition and
/// builds the next one.
///
/// A solve is one hand-off to the workers (counter `shard.handoffs`); the
/// calling thread then only waits. Each worker scatters its shard's
/// interior, then per sweep waits at a barrier, pulls its own halo columns
/// from its neighbours' interiors (every halo cell rewritten, the
/// Dirichlet zeros included) and runs its pass; the last pass writes the
/// shard's extent of the result in place, and the hand-off's completion
/// closes the last sweep. The result buffer is recycled: a solver keeps
/// one spare, to which a result's buffer returns when its last reference
/// drops (a result may outlive its solver).
///
/// Fault sites, consulted per shard: `shard.<device>.pass` before each
/// shard's sweep pass and `shard.<device>.exchange` before each sweep's
/// halo pulls, all exchange sites in device order on one thread. Device
/// ids are persistent across re-partitions, so a permanent rule keeps
/// killing the same simulated device while survivors keep their identity
/// (and their fault history). Only a fault::FaultError kills a device:
/// anything else a pass throws, or a failed partition build, returns
/// kInternal (counter `shard.internal_error`) and re-partitions nothing.
class ShardedSolver {
 public:
  explicit ShardedSolver(ShardOptions options = {});
  ~ShardedSolver();  ///< joins the resident partition's workers

  ShardedSolver(const ShardedSolver&) = delete;
  ShardedSolver& operator=(const ShardedSolver&) = delete;

  const ShardOptions& options() const noexcept { return options_; }
  ShardOptions& options() noexcept { return options_; }

  /// Blocking sharded solve. Never throws: a malformed request gets
  /// api::check_request's typed rejection, like the single-device facade,
  /// before any device runs, so a bad request kills no device. Not
  /// thread-safe: one solve at a time (the whole simulated device set
  /// cooperates on each solve).
  api::SolveResult solve(const api::SolveRequest& request);

  /// The measured report of the most recent solve() (valid until the next).
  const ShardRunReport& last_report() const noexcept { return report_; }

  /// Devices marked dead by faults so far; dead devices stay dead across
  /// solves (a killed simulated board does not heal between requests).
  std::size_t dead_devices() const noexcept;

  obs::MetricsRegistry& metrics() noexcept { return *metrics_; }

 private:
  class ResidentPartition;
  class ResultFreeList;

  api::SolveResult run_partition(const api::SolveRequest& request,
                                 const std::vector<std::size_t>& devices,
                                 std::size_t& faulted_device);

  ShardOptions options_;
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_;
  std::vector<bool> dead_;  ///< indexed by device id
  ShardRunReport report_;
  std::shared_ptr<ResultFreeList> results_;  ///< shared with result deleters
  std::unique_ptr<ResidentPartition> partition_;  ///< null until a solve
};

}  // namespace pw::shard
