#include "pw/shard/sharded_solver.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
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

/// Device id out of a "shard.<id>.<op>" fault site (kNoDevice otherwise).
std::size_t device_of_site(const std::string& site) {
  if (site.rfind("shard.", 0) != 0) {
    return kNoDevice;
  }
  try {
    return std::stoul(site.substr(6));
  } catch (const std::exception&) {
    return kNoDevice;
  }
}

/// One simulated device's slice of the solve.
struct Shard {
  std::size_t device = 0;
  decomp::RankExtent extent;
  grid::WindState state;
  advect::SourceTerms out;

  Shard(std::size_t device_id, const decomp::RankExtent& e, std::size_t nz)
      : device(device_id),
        extent(e),
        state({e.nx(), e.ny(), nz}),
        out({e.nx(), e.ny(), nz}) {}
};

void copy_interior(const grid::FieldD& src, const decomp::RankExtent& e,
                   grid::FieldD& dst) {
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(e.nx()); ++i) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(e.ny());
         ++j) {
      for (std::ptrdiff_t k = 0;
           k < static_cast<std::ptrdiff_t>(src.dims().nz); ++k) {
        dst.at(i, j, k) =
            src.at(static_cast<std::ptrdiff_t>(e.x_begin) + i,
                   static_cast<std::ptrdiff_t>(e.y_begin) + j, k);
      }
    }
  }
}

void gather_interior(const grid::FieldD& src, const decomp::RankExtent& e,
                     grid::FieldD& dst) {
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(e.nx()); ++i) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(e.ny());
         ++j) {
      for (std::ptrdiff_t k = 0;
           k < static_cast<std::ptrdiff_t>(dst.dims().nz); ++k) {
        dst.at(static_cast<std::ptrdiff_t>(e.x_begin) + i,
               static_cast<std::ptrdiff_t>(e.y_begin) + j, k) =
            src.at(i, j, k);
      }
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
/// Under the periodic rule global-edge halos wrap (matching
/// exchange_halo_periodic_xy on the whole grid); under Dirichlet they stay
/// at the zero the shard fields were constructed with. `fields` selects
/// which of u/v/w move — the kernel's written fields, derived from its
/// spec. Consults `shard.<device>.exchange` once per receiving device.
void exchange_halos(const decomp::Decomposition& decomposition,
                    const decomp::HaloPlan& plan, std::vector<Shard>& shards,
                    const std::vector<grid::FieldD grid::WindState::*>& fields,
                    stencil::BoundaryRule rule) {
  const auto NX = static_cast<std::ptrdiff_t>(decomposition.global_dims().nx);
  const auto NY = static_cast<std::ptrdiff_t>(decomposition.global_dims().ny);
  const auto nz = static_cast<std::ptrdiff_t>(decomposition.global_dims().nz);
  const bool periodic = rule == stencil::BoundaryRule::kPeriodicXY_RigidZ;

  for (Shard& shard : shards) {
    fault::throw_if("shard." + std::to_string(shard.device) + ".exchange");
  }

  std::vector<std::pair<std::ptrdiff_t, std::ptrdiff_t>> cells;
  for (const decomp::HaloMessage& message : plan.messages) {
    Shard& dst = shards[message.dst];
    piece_cells_local(message.piece, dst.extent.nx(), dst.extent.ny(), cells);
    for (const auto& [li, lj] : cells) {
      std::ptrdiff_t gx = static_cast<std::ptrdiff_t>(dst.extent.x_begin) + li;
      std::ptrdiff_t gy = static_cast<std::ptrdiff_t>(dst.extent.y_begin) + lj;
      if (!periodic && (gx < 0 || gx >= NX || gy < 0 || gy >= NY)) {
        continue;  // Dirichlet: true domain edges keep their zero halos
      }
      gx = (gx + NX) % NX;
      gy = (gy + NY) % NY;
      const Shard& src = shards[message.src];
      const auto si = gx - static_cast<std::ptrdiff_t>(src.extent.x_begin);
      const auto sj = gy - static_cast<std::ptrdiff_t>(src.extent.y_begin);
      for (grid::FieldD grid::WindState::* field : fields) {
        grid::FieldD& d = dst.state.*field;
        const grid::FieldD& s = src.state.*field;
        for (std::ptrdiff_t k = 0; k < nz; ++k) {
          d.at(li, lj, k) = s.at(si, sj, k);
        }
      }
    }
  }
}

}  // namespace

ShardedSolver::ShardedSolver(ShardOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &own_metrics_) {
  dead_.assign(std::max<std::size_t>(1, options_.devices), false);
}

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
  const api::Kernel kernel = options.kernel_spec.kernel();
  const stencil::StencilSpec& spec =
      *stencil::find_stencil(api::to_string(kernel));
  const grid::WindState& state = *request.state;
  const grid::GridDims dims = state.u.dims();

  // Largest prefix of the alive devices the grid can actually be tiled
  // over (auto_grid refuses partitions that would leave a rank empty).
  std::size_t used = devices.size();
  std::unique_ptr<decomp::Decomposition> decomposition;
  while (used >= 1) {
    try {
      decomposition = std::make_unique<decomp::Decomposition>(
          decomp::Decomposition::auto_grid(dims, used));
      break;
    } catch (const std::invalid_argument&) {
      --used;
    }
  }
  if (!decomposition) {
    return api::error_result(api::SolveError::kEmptyGrid,
                             options.backend.backend(),
                             "grid cannot be partitioned over any shard");
  }

  const decomp::HaloPlan plan = decomp::build_halo_plan(*decomposition);
  const lint::LintReport exchange_lint = lint_exchange(*decomposition, plan);
  if (!exchange_lint.passed()) {
    return api::error_result(api::SolveError::kRejectedByLint,
                             options.backend.backend(),
                             exchange_lint.summary());
  }

  report_.devices_used = used;
  report_.px = decomposition->px();
  report_.py = decomposition->py();

  std::vector<Shard> shards;
  shards.reserve(used);
  for (std::size_t slot = 0; slot < used; ++slot) {
    shards.emplace_back(devices[slot], decomposition->extent(slot), dims.nz);
  }
  report_.shard_cpu_s.assign(used, 0.0);
  report_.shard_device.clear();
  for (const Shard& shard : shards) {
    report_.shard_device.push_back(shard.device);
  }

  // Scatter: interiors only. Halos are filled by the exchange under the
  // kernel's declared boundary rule, so the sharded pass reads exactly what
  // the whole-grid pass reads.
  const bool poisson = kernel == api::Kernel::kPoissonJacobi;
  for (Shard& shard : shards) {
    copy_interior(state.u, shard.extent, shard.state.u);
    copy_interior(state.v, shard.extent, shard.state.v);
    if (!poisson) {
      copy_interior(state.w, shard.extent, shard.state.w);
    }
  }

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

  const ExchangeCost per_exchange =
      model_exchange(plan, exchanged.size(), options_.interconnect, used);

  std::size_t sweeps = 1;
  if (poisson) {
    const auto* poisson_options =
        options.kernel_spec.get_if<api::PoissonOptions>();
    sweeps = std::max<std::size_t>(1, poisson_options->iterations);
  }

  // The facade's backend -> engine map, without its metrics sink: the
  // solver reports per shard through metrics_ instead.
  const stencil::EngineConfig engine = api::engine_config(options);
  util::WallTimer exchange_timer;
  double exchange_wall = 0.0;

  for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
    exchange_timer.reset();
    try {
      exchange_halos(*decomposition, plan, shards, exchanged, spec.boundary);
    } catch (const fault::FaultError& error) {
      const std::size_t device = device_of_site(error.site());
      faulted_device = device != kNoDevice ? device : shards.front().device;
      return api::error_result(api::SolveError::kBackendFault,
                               options.backend.backend(), error.what());
    }
    exchange_wall += exchange_timer.seconds();
    ++report_.exchanges;
    report_.halo_bytes += per_exchange.bytes;
    report_.halo_messages += per_exchange.messages;
    report_.exchange_model_s += per_exchange.seconds;

    // One pass per shard, each on its own thread — the simulated device
    // instances compute concurrently, like the paper's one-rank-per-board
    // deployment. Faults are captured per shard and re-raised after the
    // join so a dying device cannot leave detached threads behind.
    std::vector<std::exception_ptr> errors(used);
    std::vector<std::thread> threads;
    threads.reserve(used);
    for (std::size_t slot = 0; slot < used; ++slot) {
      threads.emplace_back([&, slot] {
        const double cpu_begin = thread_cpu_seconds();
        try {
          Shard& shard = shards[slot];
          fault::throw_if("shard." + std::to_string(shard.device) + ".pass");
          switch (kernel) {
            case api::Kernel::kAdvectPw:
              stencil::run_advect(shard.state, *request.coefficients,
                                  shard.out, engine);
              break;
            case api::Kernel::kDiffusion:
              stencil::run_diffusion(
                  shard.state,
                  *options.kernel_spec.get_if<api::DiffusionOptions>(),
                  shard.out, engine);
              break;
            case api::Kernel::kPoissonJacobi:
              stencil::run_poisson_sweep(
                  shard.state,
                  *options.kernel_spec.get_if<api::PoissonOptions>(),
                  shard.out, engine);
              break;
          }
        } catch (...) {
          errors[slot] = std::current_exception();
        }
        report_.shard_cpu_s[slot] += thread_cpu_seconds() - cpu_begin;
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (std::size_t slot = 0; slot < used; ++slot) {
      if (!errors[slot]) {
        continue;
      }
      faulted_device = shards[slot].device;
      try {
        std::rethrow_exception(errors[slot]);
      } catch (const std::exception& error) {
        return api::error_result(api::SolveError::kBackendFault,
                                 options.backend.backend(), error.what());
      }
    }

    if (poisson) {
      // The sweep's output becomes the next sweep's guess (ping-pong). The
      // next exchange refreshes its internal halos; its z and domain-edge
      // halos stay zero, as passes write interiors only.
      for (Shard& shard : shards) {
        std::swap(shard.state.u, shard.out.su);
      }
    }
  }
  report_.exchange_wall_s = exchange_wall;
  report_.sweeps = sweeps;

  auto terms = std::make_shared<advect::SourceTerms>(dims);
  for (const Shard& shard : shards) {
    if (poisson) {
      gather_interior(shard.state.u, shard.extent, terms->su);
    } else {
      gather_interior(shard.out.su, shard.extent, terms->su);
      gather_interior(shard.out.sv, shard.extent, terms->sv);
      gather_interior(shard.out.sw, shard.extent, terms->sw);
    }
  }

  for (std::size_t slot = 0; slot < used; ++slot) {
    const double cpu = report_.shard_cpu_s[slot];
    report_.max_shard_cpu_s = std::max(report_.max_shard_cpu_s, cpu);
    report_.sum_shard_cpu_s += cpu;
    const std::string prefix =
        "shard." + std::to_string(shards[slot].device);
    metrics_->counter_add(prefix + ".passes", sweeps);
    metrics_->gauge_set(prefix + ".cpu_s", cpu);
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
  result.backend = options.backend.backend();
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
    // A simulated board died mid-solve. Mark it dead for good, surface the
    // event, and (when allowed) re-partition the grid over the survivors
    // and restart the solve from the pristine request — restarts are
    // deterministic because nothing of the failed attempt escapes.
    dead_[faulted] = true;
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
