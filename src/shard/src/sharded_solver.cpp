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

/// One halo column a shard fills before each of its passes, taken from the
/// HaloPlan message that covers it. Offsets count elements from a field's
/// interior cell (0, 0, 0), which every field of a shard shares: `halo` is
/// negative on the west and south faces. `column` is the interior column
/// of shard `src` that backs the halo under the periodic rule; `edge` marks
/// a column outside the global grid, which the Dirichlet rule fills with
/// 0.0 instead.
struct HaloPull {
  std::ptrdiff_t halo = 0;
  std::size_t src = 0;  ///< partition slot of the owning shard
  std::ptrdiff_t column = 0;
  bool edge = false;
};

/// One simulated device's slice of the grid, resident across solves like
/// data in a board's memory: its field buffers, its halo pull list, plus
/// the fault-site and metric names it reports under, built once. A pass
/// writes its output straight into the result's extent, so the only
/// output buffer a shard keeps is Poisson's next guess.
struct Shard {
  std::size_t device = 0;
  decomp::RankExtent extent;
  grid::WindState state;
  grid::FieldD next;            ///< Poisson's ping-pong partner of state.u
  std::vector<HaloPull> pulls;  ///< every x/y halo column, once
  std::string exchange_site;    ///< shard.<device>.exchange
  std::string pass_site;        ///< shard.<device>.pass
  std::string passes_metric;    ///< shard.<device>.passes
  std::string cpu_metric;       ///< shard.<device>.cpu_s

  Shard(std::size_t device_id, const decomp::RankExtent& e, std::size_t nz)
      : device(device_id),
        extent(e),
        state({e.nx(), e.ny(), nz}),
        next({e.nx(), e.ny(), nz}) {
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

/// Extent `e` of a whole-grid field as a view of its own: the shard that
/// owns `e` runs its pass over this view, so its output lands in place.
/// A pass writes interior cells only, so it never touches a neighbouring
/// extent through the view's halo.
grid::FieldView<double> extent_view(grid::FieldD& whole,
                                    const decomp::RankExtent& e) {
  grid::FieldView<double> view = whole.view();
  view.origin += static_cast<std::ptrdiff_t>(e.x_begin) * view.stride_i +
                 static_cast<std::ptrdiff_t>(e.y_begin) * view.stride_j;
  view.dims = {e.nx(), e.ny(), view.dims.nz};
  return view;
}

/// Zeroes the interior of extent `e` of the whole-grid field.
void zero_columns(const decomp::RankExtent& e, grid::FieldD& whole) {
  const auto x0 = static_cast<std::ptrdiff_t>(e.x_begin);
  const auto y0 = static_cast<std::ptrdiff_t>(e.y_begin);
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(e.nx()); ++i) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(e.ny());
         ++j) {
      std::fill_n(&whole.at(x0 + i, y0 + j, 0), whole.nz(), 0.0);
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

/// Builds every shard's pull list from `plan`: for each message, the halo
/// columns of the receiving shard and the owning shard's interior columns
/// behind them, wrapped at global edges (matching exchange_halo_periodic_xy
/// on the whole grid).
void build_pulls(const grid::GridDims& global, const decomp::HaloPlan& plan,
                 std::vector<Shard>& shards) {
  const auto NX = static_cast<std::ptrdiff_t>(global.nx);
  const auto NY = static_cast<std::ptrdiff_t>(global.ny);
  std::vector<std::pair<std::ptrdiff_t, std::ptrdiff_t>> cells;
  for (const decomp::HaloMessage& message : plan.messages) {
    Shard& dst = shards[message.dst];
    const auto dst_view = std::as_const(dst.state.u).view();
    const auto src_view = std::as_const(shards[message.src].state.u).view();
    const decomp::RankExtent& src = shards[message.src].extent;
    piece_cells_local(message.piece, dst.extent.nx(), dst.extent.ny(), cells);
    for (const auto& [li, lj] : cells) {
      const std::ptrdiff_t gx =
          static_cast<std::ptrdiff_t>(dst.extent.x_begin) + li;
      const std::ptrdiff_t gy =
          static_cast<std::ptrdiff_t>(dst.extent.y_begin) + lj;
      const std::ptrdiff_t si =
          (gx + NX) % NX - static_cast<std::ptrdiff_t>(src.x_begin);
      const std::ptrdiff_t sj =
          (gy + NY) % NY - static_cast<std::ptrdiff_t>(src.y_begin);
      dst.pulls.push_back({li * dst_view.stride_i + lj * dst_view.stride_j,
                           message.src,
                           si * src_view.stride_i + sj * src_view.stride_j,
                           gx < 0 || gx >= NX || gy < 0 || gy >= NY});
    }
  }
}

/// Fills every x/y halo column of `shard`'s `fields` through its pull list:
/// the owning neighbour's interior column, or 0.0 at a global edge under
/// the Dirichlet rule. Resident buffers still hold the previous solve's
/// halos, so every column is rewritten. z halos are never written: passes
/// write interiors only, so they keep the zero the buffers were built with.
/// Runs on the shard's own worker and reads only neighbours' interiors,
/// which no pass writes, so shards pull concurrently.
void pull_halos(Shard& shard, const std::vector<Shard>& shards,
                const std::vector<grid::FieldD grid::WindState::*>& fields,
                bool periodic) {
  const std::size_t nz = shard.state.u.nz();
  for (grid::FieldD grid::WindState::* field : fields) {
    double* const origin = (shard.state.*field).view().origin;
    for (const HaloPull& pull : shard.pulls) {
      double* const halo = origin + pull.halo;
      if (pull.edge && !periodic) {
        std::fill_n(halo, nz, 0.0);
      } else {
        const double* const column =
            (shards[pull.src].state.*field).view().origin + pull.column;
        std::copy_n(column, nz, halo);
      }
    }
  }
}

/// What a shard's failed pass or exchange check means for the solve: a
/// fault::FaultError is its device dying (kBackendFault, with `device`
/// stored in `faulted_device` so the solve re-partitions without it);
/// anything else is kInternal and kills no device.
api::SolveResult shard_failure(const std::exception_ptr& error,
                               std::size_t device, api::Backend backend,
                               std::size_t& faulted_device) {
  try {
    std::rethrow_exception(error);
  } catch (const fault::FaultError& fault) {
    faulted_device = device;
    return api::error_result(api::SolveError::kBackendFault, backend,
                             fault.what());
  } catch (const std::exception& other) {
    return api::error_result(api::SolveError::kInternal, backend,
                             other.what());
  } catch (...) {
    return api::error_result(api::SolveError::kInternal, backend,
                             "a shard threw an object that is not an "
                             "exception");
  }
}

}  // namespace

/// Result buffers for a solver's solves, so a solve writes into memory it
/// has used before instead of a fresh, zero-filled 3-field result. It keeps
/// at most one buffer: the partition is resident for one shape at a time,
/// and one extra result on the benchmark shape is 7.8 MB. The deleter of a
/// published result returns its buffer here; it reaches the list through a
/// weak reference, so a result may outlive its solver (its buffer is then
/// freed). Thread-safe: results are dropped on any thread.
class ShardedSolver::ResultFreeList
    : public std::enable_shared_from_this<ResultFreeList> {
 public:
  /// A buffer of `dims`: the spare one when it has that shape (`recycled`
  /// true: its interiors hold an earlier result), else a fresh, zeroed one.
  std::unique_ptr<advect::SourceTerms> take(const grid::GridDims& dims,
                                            bool& recycled) {
    {
      std::lock_guard lock(mutex_);
      if (spare_ && spare_->su.dims() == dims) {
        recycled = true;
        return std::move(spare_);
      }
    }
    recycled = false;
    return std::make_unique<advect::SourceTerms>(dims);
  }

  /// `buffer` as a result's terms, handed back here when the last
  /// reference drops.
  std::shared_ptr<const advect::SourceTerms> publish(
      std::unique_ptr<advect::SourceTerms> buffer) {
    auto hand_back = [home = weak_from_this()](advect::SourceTerms* terms) {
      std::unique_ptr<advect::SourceTerms> owned(terms);
      if (const std::shared_ptr<ResultFreeList> list = home.lock()) {
        list->give_back(std::move(owned));
      }
    };
    return std::shared_ptr<const advect::SourceTerms>(buffer.release(),
                                                      std::move(hand_back));
  }

  /// Keeps the newest buffer; one it replaces is freed outside the lock.
  void give_back(std::unique_ptr<advect::SourceTerms> buffer) {
    std::lock_guard lock(mutex_);
    std::swap(spare_, buffer);
  }

 private:
  std::mutex mutex_;
  std::unique_ptr<advect::SourceTerms> spare_;
};

/// Everything a solve needs that depends only on (grid dims, alive
/// devices): the decomposition's extents and linted halo plan, each
/// device's resident shard with its pull list, and one worker thread per
/// shard. A grid that cannot be partitioned or a plan that fails its lint
/// is kept as a rejection, so it keeps rejecting without a rebuild.
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

  /// The one hand-off of a solve: runs task(slot) for every shard on that
  /// shard's own worker and returns once all have finished. The caller and
  /// idle workers block on condition variables; nothing spins. `task` must
  /// not throw.
  template <typename Task>
  void run_on_workers(Task& task);

  /// The per-sweep barrier of a run_on_workers task, which every worker
  /// must reach equally often: blocks until all have arrived. The last to
  /// arrive runs step() alone first, while the others wait, and every
  /// worker returns its verdict (false: stop the task). `step` must not
  /// throw.
  template <typename Step>
  bool arrive_and_wait(Step& step);

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
  std::condition_variable swept_;
  void (*task_)(void*, std::size_t) = nullptr;
  void* task_context_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped once per run_on_workers
  std::size_t pending_ = 0;       ///< workers still running this generation
  std::uint64_t phase_ = 0;       ///< bumped once per completed barrier
  std::size_t arrived_ = 0;       ///< workers waiting at this phase
  bool proceed_ = true;           ///< the last barrier step's verdict
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
  build_pulls(dims, plan, shards);
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

template <typename Step>
bool ShardedSolver::ResidentPartition::arrive_and_wait(Step& step) {
  std::unique_lock lock(mutex_);
  if (++arrived_ == workers_.size()) {
    arrived_ = 0;
    proceed_ = step();
    ++phase_;
    const bool proceed = proceed_;
    lock.unlock();
    swept_.notify_all();
    return proceed;
  }
  const std::uint64_t phase = phase_;
  swept_.wait(lock, [&] { return phase_ != phase; });
  // No later step can run before this worker arrives again.
  return proceed_;
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
                                           : &own_metrics_),
      results_(std::make_shared<ResultFreeList>()) {
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

  // Which fields each sweep's pulls must refresh: the kernel's written
  // fields (spec.fields_out). For Jacobi only the guess (u) changes per
  // sweep; the rhs (v) never moves after the scatter.
  const bool poisson = kernel == api::Kernel::kPoissonJacobi;
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

  // A recycled buffer's interiors hold an earlier result. Every pass
  // rewrites its extent of the fields it writes; Poisson writes su only,
  // so its sv and sw extents are zeroed.
  bool recycled = false;
  std::unique_ptr<advect::SourceTerms> terms = results_->take(dims, recycled);
  if (recycled) {
    metrics_->counter_add("shard.results_recycled");
  }

  // Per shard: its pass's exception, if any, and its last pull's wall time.
  std::vector<std::exception_ptr> errors(used);
  std::vector<double> pull_s(used, 0.0);
  api::SolveResult failure;
  std::size_t opened = 0;  ///< sweeps opened so far

  // Opens the next sweep with the `shard.<id>.exchange` checks, in device
  // order on one thread, so a seeded plan fires at the same hits whatever
  // the thread timing.
  auto open_sweep = [&]() -> bool {
    for (const Shard& shard : shards) {
      try {
        fault::throw_if(shard.exchange_site);
      } catch (...) {
        failure = shard_failure(std::current_exception(), shard.device,
                                backend, faulted_device);
        return false;
      }
    }
    ++opened;
    ++report_.exchanges;
    report_.halo_bytes += per_exchange.bytes;
    report_.halo_messages += per_exchange.messages;
    report_.exchange_model_s += per_exchange.seconds;
    return true;
  };
  // Closes the sweep just run: its slowest pull, its pass failures (the
  // lowest slot's wins) and, when another sweep follows, the Poisson
  // ping-pong, whose guess swap must not race a neighbour's pull.
  auto close_sweep = [&]() -> bool {
    report_.exchange_wall_s += *std::max_element(pull_s.begin(), pull_s.end());
    for (std::size_t slot = 0; slot < used; ++slot) {
      if (errors[slot]) {
        failure = shard_failure(errors[slot], shards[slot].device, backend,
                                faulted_device);
        return false;
      }
    }
    if (poisson && opened < sweeps) {
      for (Shard& shard : shards) {
        std::swap(shard.state.u, shard.next);
      }
    }
    return true;
  };
  // Runs alone at each sweep's barrier, on whichever worker arrives last.
  auto before_sweep = [&] {
    return (opened == 0 || close_sweep()) && open_sweep();
  };

  // The whole solve of one shard, on its own worker — the simulated device
  // instances compute concurrently, like the paper's one-rank-per-board
  // deployment. Scatter its interior, then per sweep wait for the others,
  // pull its halos and run its pass. The last pass writes the shard's
  // extent of the result in place; the hand-off's completion is the last
  // sweep's barrier. Halos are filled under the kernel's declared boundary
  // rule, so the sharded pass reads exactly what the whole-grid pass reads.
  auto solve_shard = [&](std::size_t slot) {
    Shard& shard = shards[slot];
    scatter_columns(state.u, shard.extent, shard.state.u);
    scatter_columns(state.v, shard.extent, shard.state.v);
    if (!poisson) {
      scatter_columns(state.w, shard.extent, shard.state.w);
    } else if (recycled) {
      zero_columns(shard.extent, terms->sv);
      zero_columns(shard.extent, terms->sw);
    }
    const kernel::OutViews<3> result{extent_view(terms->su, shard.extent),
                                     extent_view(terms->sv, shard.extent),
                                     extent_view(terms->sw, shard.extent)};
    for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
      if (!partition.arrive_and_wait(before_sweep)) {
        return;
      }
      const util::WallTimer pull_timer;
      pull_halos(shard, shards, exchanged, periodic);
      pull_s[slot] = pull_timer.seconds();
      const double cpu_begin = thread_cpu_seconds();
      try {
        fault::throw_if(shard.pass_site);
        if (options_.before_pass) {
          options_.before_pass(shard.device);
        }
        switch (kernel) {
          case api::Kernel::kAdvectPw:
            stencil::run_pass(stencil::advect_spec(),
                              kernel::inputs<3>(shard.state), result,
                              stencil::AdvectOp(*request.coefficients, dims.nz),
                              engine);
            break;
          case api::Kernel::kDiffusion:
            stencil::run_pass(
                stencil::diffusion_spec(), kernel::inputs<3>(shard.state),
                result,
                stencil::DiffusionOp(
                    *options.kernel_spec.get_if<api::DiffusionOptions>()),
                engine);
            break;
          case api::Kernel::kPoissonJacobi:
            stencil::run_pass(
                stencil::poisson_spec(), kernel::inputs<2>(shard.state),
                {sweep + 1 == sweeps ? result[0] : shard.next.view()},
                stencil::PoissonOp(
                    *options.kernel_spec.get_if<api::PoissonOptions>()),
                engine);
            break;
        }
      } catch (...) {
        errors[slot] = std::current_exception();
      }
      report_.shard_cpu_s[slot] += thread_cpu_seconds() - cpu_begin;
    }
  };
  partition.run_on_workers(solve_shard);
  metrics_->counter_add("shard.handoffs");
  if (!failure.ok() || !close_sweep()) {
    results_->give_back(std::move(terms));  // the retry's buffer
    return failure;
  }
  report_.sweeps = sweeps;

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
  result.terms = results_->publish(std::move(terms));
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
    api::SolveResult result;
    try {
      result = run_partition(request, alive, faulted);
    } catch (const std::exception& error) {
      // Building the partition or the result buffer failed (allocation,
      // a worker thread that could not start): no device is at fault.
      result = api::error_result(api::SolveError::kInternal, backend,
                                 error.what());
    }
    if (result.error == api::SolveError::kInternal) {
      // Only a fault::FaultError is a device dying; anything else a pass
      // throws is a typed error that kills no device and re-partitions
      // nothing.
      metrics_->counter_add("shard.internal_error");
      result.metrics = metrics_->snapshot();
      return result;
    }
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
