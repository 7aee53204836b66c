#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pw/advect/coefficients.hpp"
#include "pw/api/request.hpp"
#include "pw/decomp/decomposition.hpp"
#include "pw/decomp/halo_plan.hpp"
#include "pw/grid/compare.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/util/rng.hpp"

namespace pw::decomp {
namespace {

TEST(Decomposition, CoversDomainWithoutOverlap) {
  const grid::GridDims dims{13, 9, 4};
  Decomposition d(dims, 3, 2);
  EXPECT_EQ(d.ranks(), 6u);
  std::vector<int> covered(dims.nx * dims.ny, 0);
  for (std::size_t r = 0; r < d.ranks(); ++r) {
    const RankExtent& e = d.extent(r);
    for (std::size_t x = e.x_begin; x < e.x_end; ++x) {
      for (std::size_t y = e.y_begin; y < e.y_end; ++y) {
        ++covered[x * dims.ny + y];
      }
    }
  }
  for (int c : covered) {
    EXPECT_EQ(c, 1);
  }
}

TEST(Decomposition, RaggedSplitBalanced) {
  Decomposition d({10, 10, 2}, 3, 1);
  EXPECT_EQ(d.extent(0).nx(), 4u);
  EXPECT_EQ(d.extent(1).nx(), 3u);
  EXPECT_EQ(d.extent(2).nx(), 3u);
}

TEST(Decomposition, NeighbourTopologyPeriodic) {
  Decomposition d({8, 8, 2}, 2, 2);
  // Rank layout: 0 1 / 2 3 (y-major rows).
  EXPECT_EQ(d.neighbour(0, +1, 0), 1u);
  EXPECT_EQ(d.neighbour(0, -1, 0), 1u);  // wraps
  EXPECT_EQ(d.neighbour(0, 0, +1), 2u);
  EXPECT_EQ(d.neighbour(3, +1, +1), 0u);
  EXPECT_EQ(d.neighbour(1, 0, 0), 1u);
}

TEST(Decomposition, AutoGridNearSquare) {
  const auto d = Decomposition::auto_grid({64, 64, 4}, 12);
  EXPECT_EQ(d.ranks(), 12u);
  // 4x3 or 3x4 beats 12x1.
  EXPECT_LE(std::max(d.px(), d.py()), 4u);
}

TEST(Decomposition, InvalidConfigurationsThrow) {
  EXPECT_THROW(Decomposition({4, 4, 2}, 0, 1), std::invalid_argument);
  EXPECT_THROW(Decomposition({4, 4, 2}, 5, 1), std::invalid_argument);
  EXPECT_THROW(Decomposition::auto_grid({2, 2, 2}, 0), std::invalid_argument);
  // 7 ranks can only factor as 7x1/1x7; neither fits a 4x4 grid.
  EXPECT_THROW(Decomposition::auto_grid({4, 4, 2}, 7), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Randomized property battery for auto_grid: ~200 seeded (dims, ranks)
// draws. For every decomposition auto_grid accepts, the extents must tile
// the plane exactly, every rank must be wide enough for a 1-deep (radius-1)
// halo, and the advertised per-field exchange bytes must equal the bytes
// actually carried by the generated halo plan. Draws auto_grid rejects must
// genuinely have no feasible factor pair.

TEST(AutoGridProperty, RandomDrawsTileExactlyAndMatchHaloPlan) {
  util::Rng rng(20260807);
  constexpr int kDraws = 200;
  int accepted = 0;
  for (int draw = 0; draw < kDraws; ++draw) {
    const grid::GridDims dims{1 + rng.next_below(40), 1 + rng.next_below(40),
                              1 + rng.next_below(8)};
    const std::size_t ranks = 1 + rng.next_below(12);
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " +
                 std::to_string(dims.nx) + "x" + std::to_string(dims.ny) +
                 "x" + std::to_string(dims.nz) + " over " +
                 std::to_string(ranks) + " ranks");

    // Feasibility oracle: some factor pair px*py == ranks fits the grid
    // (every rank needs >= 1 cell per split axis).
    bool feasible = false;
    for (std::size_t px = 1; px <= ranks; ++px) {
      if (ranks % px == 0 && px <= dims.nx && ranks / px <= dims.ny) {
        feasible = true;
      }
    }
    if (!feasible) {
      EXPECT_THROW(Decomposition::auto_grid(dims, ranks),
                   std::invalid_argument);
      continue;
    }
    ++accepted;
    const Decomposition d = Decomposition::auto_grid(dims, ranks);
    ASSERT_EQ(d.ranks(), ranks);
    EXPECT_EQ(d.px() * d.py(), ranks);

    // Exact tiling: every (x, y) column owned by exactly one rank.
    std::vector<int> covered(dims.nx * dims.ny, 0);
    for (std::size_t r = 0; r < d.ranks(); ++r) {
      const RankExtent& e = d.extent(r);
      // Radius-1 halos need every rank at least one cell wide per axis so
      // a halo column always maps to the immediate neighbour's interior.
      ASSERT_GE(e.nx(), 1u);
      ASSERT_GE(e.ny(), 1u);
      ASSERT_LE(e.x_end, dims.nx);
      ASSERT_LE(e.y_end, dims.ny);
      const grid::GridDims local = d.local_dims(r);
      EXPECT_EQ(local.nx, e.nx());
      EXPECT_EQ(local.ny, e.ny());
      EXPECT_EQ(local.nz, dims.nz);
      for (std::size_t x = e.x_begin; x < e.x_end; ++x) {
        for (std::size_t y = e.y_begin; y < e.y_end; ++y) {
          ++covered[x * dims.ny + y];
        }
      }
    }
    for (int c : covered) {
      ASSERT_EQ(c, 1);
    }

    // The advertised exchange volume equals the plan's actual bytes, which
    // in turn must equal the sum of the per-piece message sizes.
    const HaloPlan plan = build_halo_plan(d);
    EXPECT_EQ(plan.messages.size(), d.ranks() * 8);
    std::size_t plan_bytes = 0;
    for (const HaloMessage& message : plan.messages) {
      EXPECT_EQ(message.cells,
                halo_piece_cells(message.piece, d.extent(message.dst),
                                 dims.nz));
      plan_bytes += message.bytes();
    }
    EXPECT_EQ(plan_bytes, plan.bytes_per_field());
    EXPECT_EQ(plan.bytes_per_field(), d.halo_exchange_bytes_per_field());
  }
  // The draw ranges are tuned so the battery exercises both branches.
  EXPECT_GT(accepted, 100);
  EXPECT_LT(accepted, kDraws);
}

struct AdvectHarness {
  grid::GridDims dims;
  std::unique_ptr<grid::WindState> state;
  advect::PwCoefficients coefficients;
  std::unique_ptr<advect::SourceTerms> reference;

  explicit AdvectHarness(grid::GridDims d) : dims(d) {
    state = std::make_unique<grid::WindState>(dims);
    grid::init_random(*state, 55);
    coefficients = advect::PwCoefficients::from_geometry(
        grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));
    reference = std::make_unique<advect::SourceTerms>(dims);
    advect::advect_reference(*state, coefficients, *reference);
  }
};

/// One sharded advection solve of `h` over `devices` simulated devices.
api::SolveResult sharded_advection(const AdvectHarness& h,
                                   std::size_t devices,
                                   const api::SolverOptions& options,
                                   shard::ShardRunReport& report) {
  shard::ShardOptions shard_options;
  shard_options.devices = devices;
  shard::ShardedSolver solver(shard_options);
  api::SolveResult result =
      solver.solve(api::borrow_request(*h.state, h.coefficients, options));
  report = solver.last_report();
  return result;
}

class ProcessGridSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Each px x py split runs as a ShardedSolver over px*py devices. auto_grid
// picks the most nearly square split that fits the grid and breaks a tie
// between transposes towards the smaller px, so a split with px > py runs
// on a grid only py cells deep, where its transpose does not fit. The
// transposed split runs too, so every split is covered in both
// orientations.
TEST_P(ProcessGridSweep, DistributedAdvectionBitExact) {
  const auto [px, py] = GetParam();
  std::vector<std::pair<std::size_t, std::size_t>> splits{
      {static_cast<std::size_t>(px), static_cast<std::size_t>(py)}};
  if (px != py) {
    splits.emplace_back(py, px);
  }
  for (const auto& [sx, sy] : splits) {
    AdvectHarness h({12, sx > sy ? sy : 12, 8});
    shard::ShardRunReport report;
    const api::SolveResult out =
        sharded_advection(h, sx * sy, api::SolverOptions{}, report);
    ASSERT_TRUE(out.ok()) << out.message;
    EXPECT_EQ(report.px, sx);
    EXPECT_EQ(report.py, sy);
    EXPECT_TRUE(
        grid::compare_interior(h.reference->su, out.terms->su).bit_equal());
    EXPECT_TRUE(
        grid::compare_interior(h.reference->sv, out.terms->sv).bit_equal());
    EXPECT_TRUE(
        grid::compare_interior(h.reference->sw, out.terms->sw).bit_equal());
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, ProcessGridSweep,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1},
                                           std::tuple{1, 2}, std::tuple{2, 2},
                                           std::tuple{3, 2}, std::tuple{4, 3},
                                           std::tuple{12, 12}));

TEST(DistributedAdvection, DataflowBackendPerRank) {
  // Each rank drives its own (software) FPGA datapath — the scale-out
  // arrangement the paper's MONC setting implies.
  AdvectHarness h({10, 8, 6});
  api::SolverOptions options;
  options.backend = api::Backend::kFused;
  options.kernel.chunk_y = 4;
  shard::ShardRunReport report;
  const api::SolveResult out = sharded_advection(h, 4, options, report);
  ASSERT_TRUE(out.ok()) << out.message;
  EXPECT_EQ(report.px, 2u);
  EXPECT_EQ(report.py, 2u);
  EXPECT_TRUE(
      grid::compare_interior(h.reference->su, out.terms->su).bit_equal());
  EXPECT_TRUE(
      grid::compare_interior(h.reference->sw, out.terms->sw).bit_equal());
}

}  // namespace
}  // namespace pw::decomp
