#include "pw/shard/sharded_solver.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "pw/fault/injector.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/stencil/diffusion.hpp"
#include "pw/stencil/poisson.hpp"
#include "pw/stencil/spec.hpp"
#include "pw/util/timer.hpp"

namespace pw::shard {

namespace {

constexpr std::size_t kNoDevice = std::numeric_limits<std::size_t>::max();

/// One simulated device's slice of the grid, resident across solves like
/// data in a board's memory: its field buffers, plus the fault-site and
/// metric names it reports under, built once.
struct Shard {
  std::size_t device = 0;
  decomp::RankExtent extent;
  grid::WindState state;
  advect::SourceTerms out;
  std::string exchange_site;  ///< shard.<device>.exchange
  std::string pass_site;      ///< shard.<device>.pass
  std::string passes_metric;  ///< shard.<device>.passes
  std::string cpu_metric;     ///< shard.<device>.cpu_s

  Shard(std::size_t device_id, const decomp::RankExtent& e, std::size_t nz)
      : device(device_id),
        extent(e),
        state({e.nx(), e.ny(), nz}),
        out({e.nx(), e.ny(), nz}) {
    const std::string prefix = "shard." + std::to_string(device);
    exchange_site = prefix + ".exchange";
    pass_site = prefix + ".pass";
    passes_metric = prefix + ".passes";
    cpu_metric = prefix + ".cpu_s";
  }
};

/// Copies the interior of extent `e` from the whole-grid field into a
/// shard's field, one contiguous z-column per (i, j).
void scatter_columns(const grid::FieldD& whole, const decomp::RankExtent& e,
                     grid::FieldD& part) {
  const auto x0 = static_cast<std::ptrdiff_t>(e.x_begin);
  const auto y0 = static_cast<std::ptrdiff_t>(e.y_begin);
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(e.nx()); ++i) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(e.ny());
         ++j) {
      std::copy_n(&whole.at(x0 + i, y0 + j, 0), whole.nz(), &part.at(i, j, 0));
    }
  }
}

/// The inverse of scatter_columns: a shard's interior back into extent `e`
/// of the whole-grid field.
void gather_columns(const grid::FieldD& part, const decomp::RankExtent& e,
                    grid::FieldD& whole) {
  const auto x0 = static_cast<std::ptrdiff_t>(e.x_begin);
  const auto y0 = static_cast<std::ptrdiff_t>(e.y_begin);
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(e.nx()); ++i) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(e.ny());
         ++j) {
      std::copy_n(&part.at(i, j, 0), whole.nz(), &whole.at(x0 + i, y0 + j, 0));
    }
  }
}

/// The halo cells one piece covers, in dst-local coordinates: faces sweep
/// their edge, corners are single columns — exactly the cells the matching
/// HaloMessage accounts.
void piece_cells_local(decomp::HaloPiece piece, std::size_t nx,
                       std::size_t ny,
                       std::vector<std::pair<std::ptrdiff_t, std::ptrdiff_t>>&
                           cells) {
  cells.clear();
  const auto snx = static_cast<std::ptrdiff_t>(nx);
  const auto sny = static_cast<std::ptrdiff_t>(ny);
  switch (piece) {
    case decomp::HaloPiece::kWest:
      for (std::ptrdiff_t j = 0; j < sny; ++j) cells.emplace_back(-1, j);
      break;
    case decomp::HaloPiece::kEast:
      for (std::ptrdiff_t j = 0; j < sny; ++j) cells.emplace_back(snx, j);
      break;
    case decomp::HaloPiece::kSouth:
      for (std::ptrdiff_t i = 0; i < snx; ++i) cells.emplace_back(i, -1);
      break;
    case decomp::HaloPiece::kNorth:
      for (std::ptrdiff_t i = 0; i < snx; ++i) cells.emplace_back(i, sny);
      break;
    case decomp::HaloPiece::kSouthWest:
      cells.emplace_back(-1, -1);
      break;
    case decomp::HaloPiece::kSouthEast:
      cells.emplace_back(snx, -1);
      break;
    case decomp::HaloPiece::kNorthWest:
      cells.emplace_back(-1, sny);
      break;
    case decomp::HaloPiece::kNorthEast:
      cells.emplace_back(snx, sny);
      break;
  }
}

/// One bulk-synchronous halo exchange over `plan`: for every message, copy
/// the owning shard's interior columns into the receiving shard's halo.
/// Every x/y halo cell is written: the neighbour's data, under the periodic
/// rule the wrap at global edges (matching exchange_halo_periodic_xy on the
/// whole grid), under the Dirichlet rule 0.0 at global edges. Resident
/// buffers still hold the previous solve's halos, so no cell may be
/// skipped. z halos are never written: passes write interiors only, so
/// they keep the zero the buffers were built with. `fields` selects which
/// of u/v/w move — the kernel's written fields, derived from its spec.
void exchange_halos(const grid::GridDims& global, const decomp::HaloPlan& plan,
                    std::vector<Shard>& shards,
                    const std::vector<grid::FieldD grid::WindState::*>& fields,
                    bool periodic) {
  const auto NX = static_cast<std::ptrdiff_t>(global.nx);
  const auto NY = static_cast<std::ptrdiff_t>(global.ny);
  std::vector<std::pair<std::ptrdiff_t, std::ptrdiff_t>> cells;
  for (const decomp::HaloMessage& message : plan.messages) {
    Shard& dst = shards[message.dst];
    const Shard& src = shards[message.src];
    piece_cells_local(message.piece, dst.extent.nx(), dst.extent.ny(), cells);
    for (const auto& [li, lj] : cells) {
      const std::ptrdiff_t gx =
          static_cast<std::ptrdiff_t>(dst.extent.x_begin) + li;
      const std::ptrdiff_t gy =
          static_cast<std::ptrdiff_t>(dst.extent.y_begin) + lj;
      const bool zero =
          !periodic && (gx < 0 || gx >= NX || gy < 0 || gy >= NY);
      const auto si =
          (gx + NX) % NX - static_cast<std::ptrdiff_t>(src.extent.x_begin);
      const auto sj =
          (gy + NY) % NY - static_cast<std::ptrdiff_t>(src.extent.y_begin);
      for (grid::FieldD grid::WindState::* field : fields) {
        double* halo = &(dst.state.*field).at(li, lj, 0);
        if (zero) {
          std::fill_n(halo, global.nz, 0.0);
        } else {
          std::copy_n(&(src.state.*field).at(si, sj, 0), global.nz, halo);
        }
      }
    }
  }
}

}  // namespace

/// Everything a solve needs that depends only on (grid dims, alive
/// devices): the decomposition's extents and linted halo plan, each
/// device's resident shard and one worker thread per shard. A grid that
/// cannot be partitioned or a plan that fails its lint is kept as a
/// rejection, so it keeps rejecting without a rebuild.
class ShardedSolver::ResidentPartition {
 public:
  ResidentPartition(const grid::GridDims& grid_dims,
                    std::vector<std::size_t> alive);
  ~ResidentPartition() { stop(); }

  ResidentPartition(const ResidentPartition&) = delete;
  ResidentPartition& operator=(const ResidentPartition&) = delete;

  bool built_for(const grid::GridDims& grid_dims,
                 const std::vector<std::size_t>& alive) const {
    return grid_dims == dims && alive == devices;
  }

  /// Runs task(slot) for every shard on that shard's own worker and returns
  /// once all have finished. The caller and idle workers block on condition
  /// variables; nothing spins. `task` must not throw.
  template <typename Task>
  void run_on_workers(Task& task);

  const grid::GridDims dims;
  const std::vector<std::size_t> devices;  ///< the alive list of the key
  api::SolveError rejection = api::SolveError::kNone;
  std::string rejection_message;
  std::size_t px = 0, py = 0;
  decomp::HaloPlan plan;
  std::vector<Shard> shards;  ///< slot = rank in the decomposition

 private:
  void work(std::size_t slot);
  void stop();

  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable done_;
  void (*task_)(void*, std::size_t) = nullptr;
  void* task_context_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped once per run_on_workers
  std::size_t pending_ = 0;       ///< workers still running this generation
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

ShardedSolver::ResidentPartition::ResidentPartition(
    const grid::GridDims& grid_dims, std::vector<std::size_t> alive)
    : dims(grid_dims), devices(std::move(alive)) {
  // Largest prefix of the alive devices the grid can actually be tiled
  // over (auto_grid refuses partitions that would leave a rank empty).
  std::optional<decomp::Decomposition> decomposition;
  for (std::size_t used = devices.size(); used >= 1 && !decomposition;
       --used) {
    try {
      decomposition.emplace(decomp::Decomposition::auto_grid(dims, used));
    } catch (const std::invalid_argument&) {
    }
  }
  if (!decomposition) {
    rejection = api::SolveError::kEmptyGrid;
    rejection_message = "grid cannot be partitioned over any shard";
    return;
  }
  plan = decomp::build_halo_plan(*decomposition);
  const lint::LintReport exchange_lint = lint_exchange(*decomposition, plan);
  if (!exchange_lint.passed()) {
    rejection = api::SolveError::kRejectedByLint;
    rejection_message = exchange_lint.summary();
    return;
  }
  px = decomposition->px();
  py = decomposition->py();
  shards.reserve(decomposition->ranks());
  for (std::size_t slot = 0; slot < decomposition->ranks(); ++slot) {
    shards.emplace_back(devices[slot], decomposition->extent(slot), dims.nz);
  }
  try {
    for (std::size_t slot = 0; slot < shards.size(); ++slot) {
      workers_.emplace_back([this, slot] { work(slot); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

template <typename Task>
void ShardedSolver::ResidentPartition::run_on_workers(Task& task) {
  std::unique_lock lock(mutex_);
  task_ = [](void* context, std::size_t slot) {
    (*static_cast<Task*>(context))(slot);
  };
  task_context_ = &task;
  pending_ = workers_.size();
  ++generation_;
  start_.notify_all();
  done_.wait(lock, [this] { return pending_ == 0; });
}

void ShardedSolver::ResidentPartition::work(std::size_t slot) {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    start_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) {
      return;
    }
    seen = generation_;
    const auto task = task_;
    void* const context = task_context_;
    lock.unlock();
    task(context, slot);
    lock.lock();
    if (--pending_ == 0) {
      done_.notify_one();
    }
  }
}

void ShardedSolver::ResidentPartition::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  start_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

ShardedSolver::ShardedSolver(ShardOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &own_metrics_) {
  dead_.assign(std::max<std::size_t>(1, options_.devices), false);
}

ShardedSolver::~ShardedSolver() = default;

std::size_t ShardedSolver::dead_devices() const noexcept {
  std::size_t count = 0;
  for (const bool dead : dead_) {
    count += dead ? 1 : 0;
  }
  return count;
}

api::SolveResult ShardedSolver::run_partition(
    const api::SolveRequest& request, const std::vector<std::size_t>& devices,
    std::size_t& faulted_device) {
  faulted_device = kNoDevice;
  const api::SolverOptions& options = request.options;
  const api::Backend backend = options.backend.backend();
  const api::Kernel kernel = options.kernel_spec.kernel();
  const stencil::StencilSpec& spec =
      *stencil::find_stencil(api::to_string(kernel));
  const grid::WindState& state = *request.state;
  const grid::GridDims dims = state.u.dims();

  if (!partition_ || !partition_->built_for(dims, devices)) {
    partition_.reset();  // join the old workers before building anew
    partition_ = std::make_unique<ResidentPartition>(dims, devices);
    metrics_->counter_add("shard.partitions_built");
  }
  ResidentPartition& partition = *partition_;
  if (partition.rejection != api::SolveError::kNone) {
    return api::error_result(partition.rejection, backend,
                             partition.rejection_message);
  }
  std::vector<Shard>& shards = partition.shards;
  const std::size_t used = shards.size();
  report_.devices_used = used;
  report_.px = partition.px;
  report_.py = partition.py;
  report_.shard_cpu_s.assign(used, 0.0);
  report_.shard_device.clear();
  for (const Shard& shard : shards) {
    report_.shard_device.push_back(shard.device);
  }

  // Scatter: interiors only, each shard on its own worker. Halos are filled
  // by the exchange under the kernel's declared boundary rule, so the
  // sharded pass reads exactly what the whole-grid pass reads.
  const bool poisson = kernel == api::Kernel::kPoissonJacobi;
  auto scatter = [&](std::size_t slot) {
    Shard& shard = shards[slot];
    scatter_columns(state.u, shard.extent, shard.state.u);
    scatter_columns(state.v, shard.extent, shard.state.v);
    if (!poisson) {
      scatter_columns(state.w, shard.extent, shard.state.w);
    }
  };
  partition.run_on_workers(scatter);

  // Which fields each exchange must refresh: the kernel's written fields
  // (spec.fields_out). For Jacobi only the guess (u) changes per sweep; the
  // rhs (v) never moves after the scatter.
  std::vector<grid::FieldD grid::WindState::*> exchanged;
  exchanged.push_back(&grid::WindState::u);
  if (halo_exchange_fields(spec) >= 3) {
    exchanged.push_back(&grid::WindState::v);
    exchanged.push_back(&grid::WindState::w);
  }
  report_.exchanged_fields = exchanged.size();
  const bool periodic =
      spec.boundary == stencil::BoundaryRule::kPeriodicXY_RigidZ;

  const ExchangeCost per_exchange = model_exchange(
      partition.plan, exchanged.size(), options_.interconnect, used);

  std::size_t sweeps = 1;
  if (poisson) {
    const auto* poisson_options =
        options.kernel_spec.get_if<api::PoissonOptions>();
    sweeps = std::max<std::size_t>(1, poisson_options->iterations);
  }

  // The facade's backend -> engine map, without its metrics sink: the
  // solver reports per shard through metrics_ instead.
  const stencil::EngineConfig engine = api::engine_config(options);

  // One pass per shard, each on its own worker — the simulated device
  // instances compute concurrently, like the paper's one-rank-per-board
  // deployment. Faults are captured per shard and handled here once every
  // worker has finished the sweep.
  std::vector<std::exception_ptr> errors(used);
  auto pass = [&](std::size_t slot) {
    Shard& shard = shards[slot];
    const double cpu_begin = thread_cpu_seconds();
    try {
      fault::throw_if(shard.pass_site);
      switch (kernel) {
        case api::Kernel::kAdvectPw:
          stencil::run_advect(shard.state, *request.coefficients, shard.out,
                              engine);
          break;
        case api::Kernel::kDiffusion:
          stencil::run_diffusion(
              shard.state,
              *options.kernel_spec.get_if<api::DiffusionOptions>(),
              shard.out, engine);
          break;
        case api::Kernel::kPoissonJacobi:
          stencil::run_poisson_sweep(
              shard.state, *options.kernel_spec.get_if<api::PoissonOptions>(),
              shard.out, engine);
          break;
      }
    } catch (...) {
      errors[slot] = std::current_exception();
    }
    report_.shard_cpu_s[slot] += thread_cpu_seconds() - cpu_begin;
    if (poisson && !errors[slot]) {
      // The sweep's output becomes the next sweep's guess (ping-pong); the
      // next exchange rewrites its x/y halos.
      std::swap(shard.state.u, shard.out.su);
    }
  };

  util::WallTimer exchange_timer;
  double exchange_wall = 0.0;
  for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
    exchange_timer.reset();
    for (const Shard& shard : shards) {
      try {
        fault::throw_if(shard.exchange_site);
      } catch (const fault::FaultError& error) {
        faulted_device = shard.device;
        return api::error_result(api::SolveError::kBackendFault, backend,
                                 error.what());
      }
    }
    exchange_halos(dims, partition.plan, shards, exchanged, periodic);
    exchange_wall += exchange_timer.seconds();
    ++report_.exchanges;
    report_.halo_bytes += per_exchange.bytes;
    report_.halo_messages += per_exchange.messages;
    report_.exchange_model_s += per_exchange.seconds;

    partition.run_on_workers(pass);
    for (std::size_t slot = 0; slot < used; ++slot) {
      if (!errors[slot]) {
        continue;
      }
      faulted_device = shards[slot].device;
      try {
        std::rethrow_exception(errors[slot]);
      } catch (const std::exception& error) {
        return api::error_result(api::SolveError::kBackendFault, backend,
                                 error.what());
      }
    }
  }
  report_.exchange_wall_s = exchange_wall;
  report_.sweeps = sweeps;

  auto terms = std::make_shared<advect::SourceTerms>(dims);
  auto gather = [&](std::size_t slot) {
    const Shard& shard = shards[slot];
    if (poisson) {
      gather_columns(shard.state.u, shard.extent, terms->su);
    } else {
      gather_columns(shard.out.su, shard.extent, terms->su);
      gather_columns(shard.out.sv, shard.extent, terms->sv);
      gather_columns(shard.out.sw, shard.extent, terms->sw);
    }
  };
  partition.run_on_workers(gather);

  for (std::size_t slot = 0; slot < used; ++slot) {
    const double cpu = report_.shard_cpu_s[slot];
    report_.max_shard_cpu_s = std::max(report_.max_shard_cpu_s, cpu);
    report_.sum_shard_cpu_s += cpu;
    metrics_->counter_add(shards[slot].passes_metric, sweeps);
    metrics_->gauge_set(shards[slot].cpu_metric, cpu);
  }
  report_.critical_path_s =
      report_.max_shard_cpu_s + report_.exchange_model_s;
  metrics_->counter_add("shard.exchanges", report_.exchanges);
  metrics_->counter_add("shard.halo_bytes", report_.halo_bytes);
  metrics_->counter_add("shard.halo_messages", report_.halo_messages);
  metrics_->gauge_set("shard.devices_used", static_cast<double>(used));
  metrics_->gauge_set("shard.exchange_model_s", report_.exchange_model_s);
  metrics_->gauge_set("shard.critical_path_s", report_.critical_path_s);

  api::SolveResult result;
  result.backend = backend;
  result.terms = std::move(terms);
  return result;
}

api::SolveResult ShardedSolver::solve(const api::SolveRequest& request) {
  report_ = ShardRunReport{};
  report_.devices_configured = options_.devices;
  if (dead_.size() < options_.devices) {
    dead_.resize(options_.devices, false);
  }

  // A malformed request is rejected here, before any device runs, so it
  // can never be mistaken for a device fault.
  if (std::optional<api::SolveResult> rejection =
          api::check_request(request)) {
    return std::move(*rejection);
  }
  const api::SolverOptions& options = request.options;
  const api::Backend backend = options.backend.backend();
  const grid::GridDims dims = request.state->u.dims();

  std::vector<std::size_t> alive;
  for (std::size_t device = 0; device < options_.devices; ++device) {
    if (!dead_[device]) {
      alive.push_back(device);
    }
  }

  util::WallTimer timer;
  std::uint32_t attempts = 0;
  while (!alive.empty()) {
    ++attempts;
    std::size_t faulted = kNoDevice;
    api::SolveResult result = run_partition(request, alive, faulted);
    if (faulted == kNoDevice) {
      if (result.ok()) {
        result.seconds = timer.seconds();
        const double flops = static_cast<double>(
            api::total_flops(options.kernel_spec, dims));
        result.gflops =
            result.seconds > 0.0 ? flops / result.seconds / 1e9 : 0.0;
        result.attempts = attempts;
        // Degraded means a fault reduced the device set, not that the grid
        // happened to tile over fewer shards than configured.
        result.degraded = dead_devices() > 0;
        result.metrics = metrics_->snapshot();
      }
      return result;
    }
    // A simulated board died mid-solve. Mark it dead for good, drop the
    // partition it belonged to, surface the event, and (when allowed)
    // re-partition the grid over the survivors and restart the solve from
    // the pristine request — restarts are deterministic because nothing of
    // the failed attempt escapes.
    dead_[faulted] = true;
    partition_.reset();
    alive.erase(std::remove(alive.begin(), alive.end(), faulted),
                alive.end());
    ++report_.repartitions;
    metrics_->counter_add("shard." + std::to_string(faulted) + ".faults");
    metrics_->counter_add("shard.deaths");
    if (!options_.failover) {
      return api::error_result(
          api::SolveError::kBackendFault, backend,
          "shard " + std::to_string(faulted) + " faulted mid-solve");
    }
  }

  // Every simulated device is dead: bottom of the ladder, one plain CPU
  // solve (the same terminal rung the serve layer uses).
  if (!options_.failover) {
    return api::error_result(api::SolveError::kBackendFault, backend,
                             "no shard devices alive");
  }
  report_.cpu_failover = true;
  metrics_->counter_add("shard.cpu_failovers");
  api::SolveRequest fallback = request;
  fallback.options.backend = api::Backend::kCpuBaseline;
  api::Solver cpu;
  api::SolveResult result = cpu.solve(fallback);
  result.degraded = true;
  result.attempts += attempts;
  result.metrics = metrics_->snapshot();
  return result;
}

}  // namespace pw::shard
