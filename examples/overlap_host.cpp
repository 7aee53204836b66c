// overlap_host: the paper's §IV host-side technique, written against the
// OpenCL-style shim — chunk the domain in X, bulk-register every chunk's
// H2D writes, kernel launch and D2H reads with event dependencies, and let
// the in-order engines overlap transfers with compute. Prints the modelled
// timeline both ways and verifies the results are identical.
//
//   ./overlap_host [--nx=64 --ny=32 --nz=32 --chunks=8 --device=alveo]
#include <cstdio>
#include <iostream>

#include "pw/advect/flops.hpp"
#include "pw/advect/reference.hpp"
#include "pw/exp/devices.hpp"
#include "pw/fpga/perf_model.hpp"
#include "pw/grid/compare.hpp"
#include "pw/ocl/host_driver.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);
  const grid::GridDims dims{
      static_cast<std::size_t>(cli.get_int("nx", 64)),
      static_cast<std::size_t>(cli.get_int("ny", 32)),
      static_cast<std::size_t>(cli.get_int("nz", 32))};
  const auto chunks = static_cast<std::size_t>(cli.get_int("chunks", 8));
  const std::string device_name = cli.get_string("device", "alveo");

  const auto devices = exp::paper_devices();
  const auto& device =
      device_name == "stratix" ? devices.stratix : devices.alveo;

  grid::WindState state(dims);
  grid::init_taylor_green(state, 3.0);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 50.0));

  // Kernel timing comes from the device's performance model; transfer
  // timing from its PCIe personality. Each chunk's kernel is the fused
  // machine pass.
  ocl::HostOptions config;
  config.x_chunks = chunks;
  config.timing.full_duplex = device.pcie.full_duplex;
  const stencil::EngineConfig engine{.engine = stencil::Engine::kFused,
                                     .chunk_y = 16};
  config.kernel_time_model = [&](const grid::GridDims& slab) {
    fpga::KernelOnlyInput input;
    input.dims = slab;
    input.config.chunk_y = 16;
    input.kernels = device.paper_kernel_count;
    input.clock_hz = device.clock_hz(input.kernels);
    input.memory = device.memories.front();
    return fpga::model_kernel_only(input).seconds;
  };

  auto run = [&](bool overlapped) {
    config.overlapped = overlapped;
    config.timing.h2d_gbps = overlapped ? device.pcie.overlapped_gbps()
                                        : device.pcie.single_stream_gbps();
    config.timing.d2h_gbps = config.timing.h2d_gbps;
    advect::SourceTerms out(dims);
    const auto result = ocl::HostDriver(config, engine)
                            .run(stencil::advect_spec(),
                                 kernel::inputs<3>(state),
                                 kernel::outputs<3>(out),
                                 stencil::AdvectOp(coefficients, dims.nz));
    const double gflops = static_cast<double>(advect::total_flops(dims)) /
                          result.seconds / 1e9;
    std::printf(
        "%-11s %2zu chunk(s): %8.3f ms  (%6.2f modelled GFLOPS; kernel "
        "busy %3.0f%%, DMA busy %3.0f%%)\n",
        overlapped ? "overlapped" : "sequential", result.chunks,
        result.seconds * 1e3, gflops,
        100.0 * result.timeline.utilisation(xfer::Engine::kKernel),
        100.0 * std::max(
                    result.timeline.utilisation(xfer::Engine::kHostToDevice),
                    result.timeline.utilisation(xfer::Engine::kDeviceToHost)));
    return out;
  };

  std::cout << "host-side transfer/compute overlap on " << device.name
            << " (" << dims.nx << "x" << dims.ny << "x" << dims.nz
            << " grid)\n\n";
  const auto sequential = run(false);
  const auto overlapped = run(true);

  const bool identical =
      grid::compare_interior(sequential.su, overlapped.su).bit_equal() &&
      grid::compare_interior(sequential.sv, overlapped.sv).bit_equal() &&
      grid::compare_interior(sequential.sw, overlapped.sw).bit_equal();
  std::cout << "\nresults " << (identical ? "bit-identical" : "DIFFER")
            << " between the two schedules\n";
  return identical ? 0 : 1;
}
