#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "pw/grid/field3d.hpp"
#include "pw/kernel/shift_buffer.hpp"
#include "pw/util/rng.hpp"

namespace pw::kernel {
namespace {

/// Streams a padded (nxp x nyp x nzp) volume of synthetic values through a
/// ShiftBuffer3D and checks every emitted stencil against direct indexing.
/// A second buffer is fed the same values through advance(): at every step
/// it must complete exactly when push() emits, its in-place window() must
/// match direct indexing, and push()'s copy must equal that window. A third
/// is fed whole columns through advance_column(): after each column it must
/// have completed exactly the windows push() emitted during that column,
/// each matching direct indexing.
void check_volume(std::size_t nxp, std::size_t nyp, std::size_t nzp,
                  std::uint64_t seed) {
  // Synthetic volume with unique values per position.
  std::vector<double> volume(nxp * nyp * nzp);
  util::Rng rng(seed);
  for (auto& v : volume) {
    v = rng.uniform(-10.0, 10.0);
  }
  auto at = [&](std::size_t i, std::size_t j, std::size_t k) {
    return volume[(i * nyp + j) * nzp + k];
  };

  ShiftBuffer3D buffer(nyp, nzp);
  ShiftBuffer3D stepped(nyp, nzp);
  ShiftBuffer3D columns(nyp, nzp);
  std::size_t emitted = 0;
  std::size_t expected_next = 0;
  // Expected emission order: centres in raster order over the interior.
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> centres;
  for (std::size_t i = 1; i + 1 < nxp; ++i) {
    for (std::size_t j = 1; j + 1 < nyp; ++j) {
      for (std::size_t k = 1; k + 1 < nzp; ++k) {
        centres.emplace_back(i, j, k);
      }
    }
  }

  for (std::size_t i = 0; i < nxp; ++i) {
    for (std::size_t j = 0; j < nyp; ++j) {
      const bool column_complete =
          columns.advance_column(&volume[(i * nyp + j) * nzp]);
      // Centres push() emits during this column.
      std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> emits;
      for (std::size_t k = 0; k < nzp; ++k) {
        const bool complete = stepped.advance(at(i, j, k));
        auto out = buffer.push(at(i, j, k));
        ASSERT_EQ(complete, out.has_value())
            << "step (" << i << "," << j << "," << k << ")";
        if (!out) {
          continue;
        }
        ASSERT_LT(expected_next, centres.size());
        const auto [ci, cj, ck] = centres[expected_next++];
        EXPECT_EQ(out->ci, ci);
        EXPECT_EQ(out->cj, cj);
        EXPECT_EQ(out->ck, ck);
        emits.emplace_back(out->ci, out->cj, out->ck);
        const auto window = stepped.window();
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
              const double expected =
                  at(ci + static_cast<std::size_t>(dx),
                     cj + static_cast<std::size_t>(dy),
                     ck + static_cast<std::size_t>(dz));
              ASSERT_DOUBLE_EQ(out->stencil.at(dx, dy, dz), expected)
                  << "centre (" << ci << "," << cj << "," << ck << ") offset ("
                  << dx << "," << dy << "," << dz << ")";
              ASSERT_DOUBLE_EQ(window.at(dx, dy, dz), expected)
                  << "window() at centre (" << ci << "," << cj << "," << ck
                  << ") offset (" << dx << "," << dy << "," << dz << ")";
              ASSERT_EQ(out->stencil.at(dx, dy, dz), window.at(dx, dy, dz))
                  << "push() vs advance()+window() at centre (" << ci << ","
                  << cj << "," << ck << ") offset (" << dx << "," << dy
                  << "," << dz << ")";
            }
          }
        }
        ++emitted;
      }

      // The column feed completes the same windows, in the same order.
      std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
          column_windows;
      if (column_complete) {
        for (std::size_t ck = 1; ck + 1 < nzp; ++ck) {
          column_windows.emplace_back(i - 1, j - 1, ck);
        }
      }
      ASSERT_EQ(column_windows, emits) << "column (" << i << "," << j << ")";
      for (const auto& [ci, cj, ck] : column_windows) {
        const auto window = columns.column_window(ck);
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
              ASSERT_EQ(window.at(dx, dy, dz),
                        at(ci + static_cast<std::size_t>(dx),
                           cj + static_cast<std::size_t>(dy),
                           ck + static_cast<std::size_t>(dz)))
                  << "column_window() at centre (" << ci << "," << cj << ","
                  << ck << ") offset (" << dx << "," << dy << "," << dz
                  << ")";
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(emitted, (nxp - 2) * (nyp - 2) * (nzp - 2));
}

TEST(ShiftBuffer3D, MinimalVolume) { check_volume(3, 3, 3, 1); }

TEST(ShiftBuffer3D, TallColumn) { check_volume(4, 3, 10, 2); }

TEST(ShiftBuffer3D, WideFace) { check_volume(3, 9, 4, 3); }

TEST(ShiftBuffer3D, LongStream) { check_volume(12, 5, 6, 4); }

TEST(ShiftBuffer3D, MoncShapedChunk) { check_volume(6, 18, 66, 5); }

class ShiftBufferSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ShiftBufferSweep, EmitsCorrectStencils) {
  const auto [nxp, nyp, nzp] = GetParam();
  check_volume(static_cast<std::size_t>(nxp), static_cast<std::size_t>(nyp),
               static_cast<std::size_t>(nzp),
               static_cast<std::uint64_t>(nxp * 100 + nyp * 10 + nzp));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShiftBufferSweep,
    ::testing::Values(std::tuple{3, 3, 4}, std::tuple{3, 4, 3},
                      std::tuple{4, 3, 3}, std::tuple{5, 5, 5},
                      std::tuple{7, 4, 9}, std::tuple{9, 7, 4},
                      std::tuple{4, 9, 7}, std::tuple{10, 10, 3},
                      std::tuple{3, 10, 10}, std::tuple{10, 3, 10}));

TEST(ShiftBuffer3D, RejectsTooSmallFace) {
  EXPECT_THROW(ShiftBuffer3D(2, 3), std::invalid_argument);
  EXPECT_THROW(ShiftBuffer3D(3, 2), std::invalid_argument);
}

TEST(ShiftBuffer3D, ResetRestartsRaster) {
  ShiftBuffer3D buffer(3, 3);
  // Fill enough to start emitting.
  for (int n = 0; n < 27; ++n) {
    buffer.push(static_cast<double>(n));
  }
  buffer.reset();
  // After reset no emission until the third plane again.
  std::size_t emissions = 0;
  for (int n = 0; n < 2 * 9; ++n) {
    if (buffer.push(1.0)) {
      ++emissions;
    }
  }
  EXPECT_EQ(emissions, 0u);
  std::size_t late = 0;
  for (int n = 0; n < 9; ++n) {
    if (buffer.push(1.0)) {
      ++late;
    }
  }
  EXPECT_EQ(late, 1u);  // exactly the single interior centre of a 3x3x3
}

TEST(ShiftBuffer3D, AdvanceColumnNeedsAColumnStart) {
  ShiftBuffer3D buffer(3, 4);
  const double column[4] = {1.0, 2.0, 3.0, 4.0};
  buffer.advance(0.0);
  EXPECT_THROW(buffer.advance_column(column), std::logic_error);
  for (int n = 1; n < 4; ++n) {
    buffer.advance(0.0);
  }
  EXPECT_FALSE(buffer.advance_column(column));  // second column of plane 0
}

TEST(ShiftBuffer3D, NextWouldEmitPredictsEmission) {
  ShiftBuffer3D buffer(3, 4);
  for (int n = 0; n < 100; ++n) {
    const bool predicted = buffer.next_would_emit();
    const bool emitted = buffer.push(0.0).has_value();
    EXPECT_EQ(predicted, emitted) << "at beat " << n;
  }
}

TEST(ShiftBuffer3D, ResourceAccounting) {
  ShiftBuffer3D buffer(18, 66);
  EXPECT_EQ(buffer.slab_doubles(), 3u * 18 * 66);
  EXPECT_EQ(buffer.window_doubles(), 3u * 3 * 66);
  EXPECT_EQ(ShiftBuffer3D::register_doubles(), 27u);
}

TEST(TripleShiftBuffer, EmitsAllThreeFields) {
  const std::size_t nyp = 4, nzp = 5, nxp = 4;
  TripleShiftBuffer buffer(nyp, nzp);
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < nxp; ++i) {
    for (std::size_t j = 0; j < nyp; ++j) {
      for (std::size_t k = 0; k < nzp; ++k) {
        const double base =
            static_cast<double>((i * nyp + j) * nzp + k);
        auto out = buffer.push(base, base + 1000.0, base + 2000.0);
        if (out) {
          ++emitted;
          // The three stencils carry the same positions offset by the
          // field tag, so cross-check a couple of taps.
          EXPECT_DOUBLE_EQ(out->stencils.v.centre(),
                           out->stencils.u.centre() + 1000.0);
          EXPECT_DOUBLE_EQ(out->stencils.w.centre(),
                           out->stencils.u.centre() + 2000.0);
        }
      }
    }
  }
  EXPECT_EQ(emitted, (nxp - 2) * (nyp - 2) * (nzp - 2));
}

TEST(TripleShiftBuffer, ResourceTotalsCoverThreeFields) {
  TripleShiftBuffer buffer(10, 12);
  const std::size_t per_field = 3 * 10 * 12 + 3 * 3 * 12 + 27;
  EXPECT_EQ(buffer.total_doubles(), 3 * per_field);
}

}  // namespace
}  // namespace pw::kernel
