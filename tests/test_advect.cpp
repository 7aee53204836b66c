#include <gtest/gtest.h>

#include <cmath>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/cpu_baseline.hpp"
#include "pw/advect/flops.hpp"
#include "pw/advect/reference.hpp"
#include "pw/advect/scheme.hpp"
#include "pw/grid/compare.hpp"
#include "pw/util/thread_pool.hpp"

namespace pw::advect {
namespace {

grid::Geometry small_geometry(grid::GridDims dims) {
  return grid::Geometry::uniform(dims, 100.0, 100.0, 50.0);
}

TEST(Coefficients, UniformReducesToQuarterReciprocal) {
  const auto geometry = small_geometry({4, 4, 8});
  const auto c = PwCoefficients::from_geometry(geometry);
  EXPECT_DOUBLE_EQ(c.tcx, 0.25 / 100.0);
  EXPECT_DOUBLE_EQ(c.tcy, 0.25 / 100.0);
  ASSERT_EQ(c.tzc1.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_DOUBLE_EQ(c.tzc1[k], 0.25 / 50.0);
    EXPECT_DOUBLE_EQ(c.tzc2[k], 0.25 / 50.0);
    EXPECT_DOUBLE_EQ(c.tzd1[k], 0.25 / 50.0);
    EXPECT_DOUBLE_EQ(c.tzd2[k], 0.25 / 50.0);
  }
}

TEST(Coefficients, MismatchedVerticalThrows) {
  grid::Geometry g = small_geometry({4, 4, 8});
  g.vertical = grid::VerticalGrid::uniform(4, 50.0);
  EXPECT_THROW(PwCoefficients::from_geometry(g), std::invalid_argument);
}

TEST(Coefficients, StretchedVariesWithLevel) {
  grid::Geometry g = small_geometry({4, 4, 8});
  g.vertical = grid::VerticalGrid::stretched(8, 10.0, 2.0);
  const auto c = PwCoefficients::from_geometry(g);
  EXPECT_GT(c.tzc1[0], c.tzc1[7]);  // wider spacing aloft -> smaller coeff
}

TEST(Flops, PaperAccounting) {
  EXPECT_EQ(kFlopsPerCell, 63u);
  EXPECT_EQ(kFlopsPerCellTop, 55u);
  EXPECT_EQ(flops_per_cell(0, 64), 63u);
  EXPECT_EQ(flops_per_cell(63, 64), 55u);
  // Paper §III: 300 MHz, 64-level column -> 18.86 GFLOPS theoretical.
  const double gflops = flops_per_cycle(64) * 300e6 / 1e9;
  EXPECT_NEAR(gflops, 18.86, 0.005);
  // And the Intel single-kernel clock of 398 MHz -> 25.02 GFLOPS.
  EXPECT_NEAR(flops_per_cycle(64) * 398e6 / 1e9, 25.02, 0.01);
}

TEST(Flops, TotalMatchesPerColumn) {
  const grid::GridDims dims{10, 20, 64};
  EXPECT_EQ(total_flops(dims), 10u * 20u * (63u * 63u + 55u));
}

class AdvectFixture : public ::testing::Test {
protected:
  void init(grid::GridDims dims, std::uint64_t seed = 42) {
    state_ = std::make_unique<grid::WindState>(dims);
    grid::init_random(*state_, seed);
    geometry_ = small_geometry(dims);
    coefficients_ = PwCoefficients::from_geometry(geometry_);
    out_ = std::make_unique<SourceTerms>(dims);
  }

  std::unique_ptr<grid::WindState> state_;
  grid::Geometry geometry_;
  PwCoefficients coefficients_;
  std::unique_ptr<SourceTerms> out_;
};

TEST_F(AdvectFixture, StencilFormulationBitExactWithDirect) {
  init({6, 5, 7});
  advect_reference(*state_, coefficients_, *out_);
  SourceTerms stencil_out({6, 5, 7});
  advect_reference_stencil(*state_, coefficients_, stencil_out);
  EXPECT_TRUE(grid::compare_interior(out_->su, stencil_out.su).bit_equal());
  EXPECT_TRUE(grid::compare_interior(out_->sv, stencil_out.sv).bit_equal());
  EXPECT_TRUE(grid::compare_interior(out_->sw, stencil_out.sw).bit_equal());
}

TEST_F(AdvectFixture, CpuBaselineBitExactWithReference) {
  init({16, 12, 8});
  advect_reference(*state_, coefficients_, *out_);
  util::ThreadPool pool(4);
  CpuAdvectorBaseline baseline(pool);
  SourceTerms threaded_out({16, 12, 8});
  const auto stats = baseline.run(*state_, coefficients_, threaded_out);
  EXPECT_GT(stats.gflops, 0.0);
  EXPECT_TRUE(grid::compare_interior(out_->su, threaded_out.su).bit_equal());
  EXPECT_TRUE(grid::compare_interior(out_->sv, threaded_out.sv).bit_equal());
  EXPECT_TRUE(grid::compare_interior(out_->sw, threaded_out.sw).bit_equal());
}

TEST_F(AdvectFixture, CpuBaselineRejectsCoefficientMismatch) {
  // 7 levels for an 8-level grid: the baseline used to read past the
  // per-level vectors; it now runs advect_reference's shape check first.
  init({8, 8, 8});
  coefficients_ = PwCoefficients::from_geometry(small_geometry({8, 8, 7}));
  util::ThreadPool pool(2);
  EXPECT_THROW(CpuAdvectorBaseline(pool).run(*state_, coefficients_, *out_),
               std::invalid_argument);
}

TEST_F(AdvectFixture, UniformFlowHasZeroHorizontalSourceTerms) {
  // With constant u=v=w over the periodic interior the flux differences
  // cancel except where the z boundary enters.
  init({6, 6, 6});
  grid::init_constant(*state_, 2.0, 2.0, 0.0);
  advect_reference(*state_, coefficients_, *out_);
  for (std::ptrdiff_t i = 0; i < 6; ++i) {
    for (std::ptrdiff_t j = 0; j < 6; ++j) {
      // Away from the vertical boundaries everything cancels.
      for (std::ptrdiff_t k = 1; k < 5; ++k) {
        EXPECT_NEAR(out_->su.at(i, j, k), 0.0, 1e-14);
        EXPECT_NEAR(out_->sv.at(i, j, k), 0.0, 1e-14);
        EXPECT_NEAR(out_->sw.at(i, j, k), 0.0, 1e-14);
      }
    }
  }
}

TEST_F(AdvectFixture, ZeroWindGivesZeroSources) {
  init({4, 4, 4});
  grid::init_constant(*state_, 0.0, 0.0, 0.0);
  advect_reference(*state_, coefficients_, *out_);
  EXPECT_DOUBLE_EQ(grid::interior_sum(out_->su), 0.0);
  EXPECT_DOUBLE_EQ(grid::interior_sum(out_->sv), 0.0);
  EXPECT_DOUBLE_EQ(grid::interior_sum(out_->sw), 0.0);
}

TEST_F(AdvectFixture, ScalingLinearity) {
  // PW source terms are quadratic in the wind: scaling the state by s
  // scales every source term by s^2.
  init({5, 5, 5}, 7);
  advect_reference(*state_, coefficients_, *out_);

  grid::WindState scaled({5, 5, 5});
  const double s = 3.0;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      for (std::size_t k = 0; k < 5; ++k) {
        const auto ii = static_cast<std::ptrdiff_t>(i);
        const auto jj = static_cast<std::ptrdiff_t>(j);
        const auto kk = static_cast<std::ptrdiff_t>(k);
        scaled.u.at(ii, jj, kk) = s * state_->u.at(ii, jj, kk);
        scaled.v.at(ii, jj, kk) = s * state_->v.at(ii, jj, kk);
        scaled.w.at(ii, jj, kk) = s * state_->w.at(ii, jj, kk);
      }
    }
  }
  grid::refresh_halos(scaled);
  SourceTerms scaled_out({5, 5, 5});
  advect_reference(scaled, coefficients_, scaled_out);
  for (std::ptrdiff_t i = 0; i < 5; ++i) {
    for (std::ptrdiff_t j = 0; j < 5; ++j) {
      for (std::ptrdiff_t k = 0; k < 5; ++k) {
        EXPECT_NEAR(scaled_out.su.at(i, j, k), s * s * out_->su.at(i, j, k),
                    1e-10);
        EXPECT_NEAR(scaled_out.sw.at(i, j, k), s * s * out_->sw.at(i, j, k),
                    1e-10);
      }
    }
  }
}

TEST_F(AdvectFixture, HorizontalTranslationEquivariance) {
  // Shifting the periodic input one cell in x shifts the output one cell.
  init({6, 4, 4}, 11);
  advect_reference(*state_, coefficients_, *out_);

  grid::WindState shifted({6, 4, 4});
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 4; ++k) {
        const auto src_i = static_cast<std::ptrdiff_t>((i + 5) % 6);
        const auto ii = static_cast<std::ptrdiff_t>(i);
        const auto jj = static_cast<std::ptrdiff_t>(j);
        const auto kk = static_cast<std::ptrdiff_t>(k);
        shifted.u.at(ii, jj, kk) = state_->u.at(src_i, jj, kk);
        shifted.v.at(ii, jj, kk) = state_->v.at(src_i, jj, kk);
        shifted.w.at(ii, jj, kk) = state_->w.at(src_i, jj, kk);
      }
    }
  }
  grid::refresh_halos(shifted);
  SourceTerms shifted_out({6, 4, 4});
  advect_reference(shifted, coefficients_, shifted_out);
  for (std::ptrdiff_t i = 0; i < 6; ++i) {
    for (std::ptrdiff_t j = 0; j < 4; ++j) {
      for (std::ptrdiff_t k = 0; k < 4; ++k) {
        const auto src_i = (i + 5) % 6;
        EXPECT_DOUBLE_EQ(shifted_out.su.at(i, j, k),
                         out_->su.at(src_i, j, k));
        EXPECT_DOUBLE_EQ(shifted_out.sv.at(i, j, k),
                         out_->sv.at(src_i, j, k));
        EXPECT_DOUBLE_EQ(shifted_out.sw.at(i, j, k),
                         out_->sw.at(src_i, j, k));
      }
    }
  }
}

TEST_F(AdvectFixture, TopCellDropsTzc2Term) {
  // Hand-check the Listing 1 top-of-column branch: modify u at k+1 of the
  // top cell (which does not exist) — instead verify that su at the top is
  // insensitive to w at the top level's own height, unlike interior cells.
  init({4, 4, 4}, 3);
  advect_reference(*state_, coefficients_, *out_);
  const double su_top_before = out_->su.at(1, 1, 3);

  // Changing w at (i,j,nz-1) would enter su(k=nz-1) only through the tzc2
  // term, which the top branch omits. But it *does* enter sw; so su stays.
  state_->w.at(1, 1, 3) += 10.0;
  state_->w.exchange_halo_periodic_xy();
  SourceTerms after({4, 4, 4});
  advect_reference(*state_, coefficients_, after);
  EXPECT_DOUBLE_EQ(after.su.at(1, 1, 3), su_top_before);
  EXPECT_NE(after.sw.at(1, 1, 3), out_->sw.at(1, 1, 3));
}

TEST_F(AdvectFixture, SchemeHelpersMatchReferenceCell) {
  init({4, 4, 4}, 21);
  advect_reference(*state_, coefficients_, *out_);

  // Build the stencils by hand for one interior cell and compare.
  CellStencils s;
  const std::ptrdiff_t I = 2, J = 1, K = 2;
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        s.u.at(dx, dy, dz) = state_->u.at(I + dx, J + dy, K + dz);
        s.v.at(dx, dy, dz) = state_->v.at(I + dx, J + dy, K + dz);
        s.w.at(dx, dy, dz) = state_->w.at(I + dx, J + dy, K + dz);
      }
    }
  }
  const ZCoeffs z{coefficients_.tzc1[K], coefficients_.tzc2[K],
                  coefficients_.tzd1[K], coefficients_.tzd2[K]};
  EXPECT_DOUBLE_EQ(advect_u_cell(s, coefficients_.tcx, coefficients_.tcy, z,
                                 false),
                   out_->su.at(I, J, K));
  EXPECT_DOUBLE_EQ(advect_v_cell(s, coefficients_.tcx, coefficients_.tcy, z,
                                 false),
                   out_->sv.at(I, J, K));
  EXPECT_DOUBLE_EQ(advect_w_cell(s, coefficients_.tcx, coefficients_.tcy, z),
                   out_->sw.at(I, J, K));
}

TEST_F(AdvectFixture, ShapeMismatchThrows) {
  init({4, 4, 4});
  SourceTerms wrong({4, 4, 5});
  EXPECT_THROW(advect_reference(*state_, coefficients_, wrong),
               std::invalid_argument);
}

}  // namespace
}  // namespace pw::advect
