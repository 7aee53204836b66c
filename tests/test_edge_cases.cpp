// Edge-case coverage across the smaller surfaces: unusual halos, degenerate
// shapes, boundary parameter values and formatting corners that the main
// suites do not touch.
#include <gtest/gtest.h>

#include <sstream>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/flops.hpp"
#include "pw/advect/reference.hpp"
#include "pw/fpga/perf_model.hpp"
#include "pw/grid/field3d.hpp"
#include "pw/grid/geometry.hpp"
#include "pw/grid/init.hpp"
#include "pw/hls/shift_register.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/util/stats.hpp"
#include "pw/util/table.hpp"

namespace pw {
namespace {

TEST(EdgeField3D, HaloDepthTwo) {
  grid::Field3D<double> f({3, 3, 3}, 2, 1.0);
  f.at(-2, -2, -2) = 5.0;
  f.at(4, 4, 4) = 6.0;
  EXPECT_DOUBLE_EQ(f.at(-2, -2, -2), 5.0);
  EXPECT_DOUBLE_EQ(f.at(4, 4, 4), 6.0);
  EXPECT_THROW(f.checked(-3, 0, 0), std::out_of_range);
  EXPECT_NO_THROW(f.checked(4, 4, 4));

  // Periodic exchange with depth-2 halos wraps two shells.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t k = 0; k < 3; ++k) {
        f.at(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j),
             static_cast<std::ptrdiff_t>(k)) =
            static_cast<double>(i * 9 + j * 3 + k);
      }
    }
  }
  f.exchange_halo_periodic_xy();
  EXPECT_DOUBLE_EQ(f.at(-2, 1, 1), f.at(1, 1, 1));
  EXPECT_DOUBLE_EQ(f.at(-1, 1, 1), f.at(2, 1, 1));
  EXPECT_DOUBLE_EQ(f.at(1, 4, 1), f.at(1, 1, 1));
}

TEST(EdgeField3D, SingleCellGrid) {
  grid::Field3D<double> f({1, 1, 1}, 1, 7.0);
  EXPECT_DOUBLE_EQ(f.at(0, 0, 0), 7.0);
  f.exchange_halo_periodic_xy();
  EXPECT_DOUBLE_EQ(f.at(-1, 0, 0), 7.0);
  EXPECT_DOUBLE_EQ(f.at(1, 1, 0), 7.0);
}

TEST(EdgeField3D, FloatInstantiation) {
  grid::Field3D<float> f({2, 2, 2}, 1, 0.5f);
  f.at(1, 1, 1) = 2.5f;
  EXPECT_FLOAT_EQ(f.at(1, 1, 1), 2.5f);
  EXPECT_EQ(f.raw().size(), 4u * 4 * 4);
}

TEST(EdgeChunkPlan, ChunkWiderThanDomain) {
  kernel::ChunkPlan plan({4, 5, 6}, 100);
  ASSERT_EQ(plan.chunks().size(), 1u);
  EXPECT_EQ(plan.chunks()[0].width(), 5u);
  EXPECT_EQ(plan.overlap_values_per_field(), 0u);
}

TEST(EdgeChunkPlan, WidthOneChunks) {
  kernel::ChunkPlan plan({2, 5, 3}, 1);
  EXPECT_EQ(plan.chunks().size(), 5u);
  // Each chunk streams 3 columns for 1 interior: 3x overall in y.
  EXPECT_EQ(plan.streamed_values_per_field(), 4u * 15 * 5);
}

TEST(EdgeFlops, SingleLevelColumn) {
  // nz = 1: the only cell is the top cell.
  EXPECT_EQ(advect::flops_per_cell(0, 1), advect::kFlopsPerCellTop);
  EXPECT_EQ(advect::total_flops({2, 2, 1}), 4u * 55);
  EXPECT_DOUBLE_EQ(advect::flops_per_cycle(1), 55.0);
}

TEST(EdgeGeometry, StretchedZeroStretchIsUniform) {
  const auto stretched = grid::VerticalGrid::stretched(6, 10.0, 0.0);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_DOUBLE_EQ(stretched.dz(k), 10.0);
  }
}

TEST(EdgeStats, SingleElement) {
  const double one[] = {3.5};
  const auto s = util::summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.median, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(EdgeStats, GeometricMeanLargeValues) {
  // Log-domain accumulation avoids overflow that a naive product would hit.
  const double values[] = {1e200, 1e200, 1e-100};
  EXPECT_NEAR(util::geometric_mean(values) / 1e100, 1.0, 1e-10);
}

TEST(EdgeTable, NoHeaderStillPrints) {
  util::Table t("bare");
  t.row({"a", "b"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("bare"), std::string::npos);
  EXPECT_NE(os.str().find("| a"), std::string::npos);
}

TEST(EdgeTable, CsvEscapesQuotes) {
  util::Table t("q");
  t.header({"v"});
  t.row({"say \"hi\""});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(EdgeAdvectOp, CoefficientLevelsMustMatchTheGrid) {
  // The machine's advection op converts the per-level coefficients when it
  // is built: a level count other than nz is rejected there, as
  // advect_reference rejects it, instead of being read out of range.
  const grid::GridDims dims{4, 4, 6};
  grid::WindState state(dims);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform({4, 4, 5}, 100.0, 100.0, 25.0));
  advect::SourceTerms out(dims);
  stencil::EngineConfig config;
  config.engine = stencil::Engine::kFused;
  EXPECT_THROW(stencil::run_advect(state, coefficients, out, config),
               std::invalid_argument);
  EXPECT_THROW(advect::advect_reference(state, coefficients, out),
               std::invalid_argument);
}

TEST(EdgeShiftRegister, SizeOne) {
  hls::ShiftRegister<int, 1> reg;
  EXPECT_EQ(reg.shift_in(5), 0);
  EXPECT_EQ(reg.shift_in(6), 5);
  EXPECT_EQ(reg[0], 6);
}

TEST(EdgePerfModel, SingleColumnGrid) {
  // nx = ny = 1: halos dominate the stream; the model must stay sane.
  fpga::KernelOnlyInput input;
  input.dims = {1, 1, 8};
  input.config.chunk_y = 0;
  input.kernels = 1;
  input.clock_hz = 300e6;
  input.memory.per_kernel_sustained_gbps = 100.0;
  input.memory.system_sustained_gbps = 100.0;
  const auto result = fpga::model_kernel_only(input);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.gflops, 0.0);
  // 3x3x10 streamed for 8 interior cells: efficiency is tiny, as it
  // should be for a degenerate domain.
  EXPECT_LT(result.efficiency, 0.1);
}

TEST(EdgePerfModel, MoreKernelsThanPlanes) {
  fpga::KernelOnlyInput input;
  input.dims = {2, 8, 8};
  input.kernels = 6;  // partition_x clamps to 2
  input.clock_hz = 300e6;
  input.memory.per_kernel_sustained_gbps = 100.0;
  input.memory.system_sustained_gbps = 600.0;
  EXPECT_NO_THROW(fpga::model_kernel_only(input));
}

TEST(EdgeTransferBytes, TinyGrid) {
  const auto bytes = fpga::transfer_bytes({1, 1, 1});
  EXPECT_EQ(bytes.host_to_device, 24u);
  EXPECT_EQ(bytes.device_to_host, 24u);
}

}  // namespace
}  // namespace pw
