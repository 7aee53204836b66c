// distributed_ranks: MONC's parallel setting around the paper's kernel —
// the horizontal domain is decomposed over ranks (as MPI would), halos are
// exchanged, and every rank runs its own FPGA-style dataflow datapath on
// its patch, as if each rank drove its own accelerator. The ranks are the
// simulated devices of a pw::shard::ShardedSolver (lint-checked halo plan,
// one fused-engine pass per shard). Verifies the decomposed result is
// bit-identical to a single global pass and demonstrates checkpointing via
// the snapshot format.
//
//   ./distributed_ranks [--nx=32 --ny=32 --nz=16 --ranks=4
//                        --checkpoint=/tmp/pw_state.bin]
#include <iostream>

#include "pw/advect/reference.hpp"
#include "pw/api/request.hpp"
#include "pw/grid/compare.hpp"
#include "pw/io/field_io.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/util/cli.hpp"
#include "pw/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);
  const grid::GridDims dims{
      static_cast<std::size_t>(cli.get_int("nx", 32)),
      static_cast<std::size_t>(cli.get_int("ny", 32)),
      static_cast<std::size_t>(cli.get_int("nz", 16))};
  const auto ranks = static_cast<std::size_t>(cli.get_int("ranks", 4));

  grid::WindState state(dims);
  grid::init_taylor_green(state, 4.0);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 50.0));

  // Optional checkpoint round-trip (the snapshot format).
  if (auto path = cli.get("checkpoint")) {
    io::save_state(state, *path);
    state = io::load_state(*path);
    std::cout << "checkpoint round-tripped through " << *path << "\n";
  }

  advect::SourceTerms global_out(dims);
  util::WallTimer timer;
  advect::advect_reference(state, coefficients, global_out);
  std::cout << "global single-rank pass:  " << timer.milliseconds()
            << " ms\n";

  api::SolverOptions options;
  options.backend = api::Backend::kFused;
  options.kernel.chunk_y = 16;
  shard::ShardOptions shard_options;
  shard_options.devices = ranks;
  shard::ShardedSolver solver(shard_options);
  timer.reset();
  const api::SolveResult result =
      solver.solve(api::borrow_request(state, coefficients, options));
  if (!result.ok()) {
    std::cerr << "distributed solve failed: " << result.message << "\n";
    return 1;
  }
  const shard::ShardRunReport& report = solver.last_report();
  std::cout << "distributed dataflow pass: " << timer.milliseconds()
            << " ms over " << report.devices_used << " ranks ("
            << report.px << "x" << report.py
            << " process grid), each driving its own dataflow kernel\n";

  const bool identical =
      grid::compare_interior(global_out.su, result.terms->su).bit_equal() &&
      grid::compare_interior(global_out.sv, result.terms->sv).bit_equal() &&
      grid::compare_interior(global_out.sw, result.terms->sw).bit_equal();
  std::cout << "results " << (identical ? "bit-identical" : "DIFFER")
            << " across the decomposition\n";
  return identical ? 0 : 1;
}
