// perfbench: runs one workload of the repository benchmark and prints its
// metrics, then one JSON result line.
//
//   perfbench --workload solve|serve|sharded --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload untraced, then traced (for the tracing overhead), then
// the other two workloads briefly under the same tracer so every layer's
// metrics are present, and prints the per-layer metrics; --trace-out
// writes the spans and the per-layer summary as JSON.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pw/obs/export.hpp"
#include "sys.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Length of each other workload's run inside a traced run.
constexpr double kProbeSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string trace_out;
};

using Runner = std::function<RunResult(const RunOptions&)>;

const std::map<std::string, Runner>& runners() {
  static const std::map<std::string, Runner> kRunners = {
      {"solve", run_solve},
      {"serve", run_serve},
      {"sharded", run_sharded},
  };
  return kRunners;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload solve|serve|sharded --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0' && value[0] != '-';
      if (!have_seed) {
        usage("--seed must be a non-negative integer");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown argument " + std::string(flag));
    }
  }
  if (runners().count(args.workload) == 0) {
    usage("--workload must be solve, serve or sharded");
  }
  if (!have_seed || args.seconds <= 0.0) {
    usage("--seed and --seconds are required");
  }
  return args;
}

void print_metrics(const std::string& heading, const MetricMap& metrics) {
  std::printf("%s\n", heading.c_str());
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-44s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void print_result_line(bool correct, std::size_t attempted,
                       std::size_t failed, const MetricMap& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", attempted, failed,
      metrics_json(metrics).c_str());
  std::fflush(stdout);
}

void write_trace(const std::string& path, const Args& args,
                 const std::vector<SpanRecord>& spans,
                 const std::map<std::string, LayerSummary>& layers,
                 const MetricMap& metrics) {
  std::string out = "{\"workload\": ";
  pw::obs::append_json_string(out, args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": ";
  append_json_number(out, args.seconds);
  out += ",\n\"layers\": {";
  bool first = true;
  for (const auto& [layer, summary] : layers) {
    out += first ? "" : ", ";
    first = false;
    pw::obs::append_json_string(out, layer);
    out += ": {\"count\": " + std::to_string(summary.count) +
           ", \"self_ms\": ";
    append_json_number(out, summary.self_s * 1e3);
    out += ", \"wait_ms\": ";
    append_json_number(out, summary.wait_s * 1e3);
    out += ", \"failures\": " + std::to_string(summary.failures) + "}";
  }
  out += "},\n\"metrics\": " + metrics_json(metrics);
  // Spans: [id, parent, request, layer, name, start_us, duration_us, wait,
  // failed], times relative to the earliest span.
  double origin = spans.empty() ? 0.0 : spans.front().start_s;
  for (const SpanRecord& span : spans) {
    origin = std::min(origin, span.start_s);
  }
  out += ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    out += '[';
    for (const std::uint64_t field : {span.id, span.parent, span.request}) {
      out += std::to_string(field);
      out += ',';
    }
    pw::obs::append_json_string(out, span.layer);
    out += ",";
    pw::obs::append_json_string(out, span.name);
    out += ",";
    append_json_number(out, (span.start_s - origin) * 1e6);
    out += ",";
    append_json_number(out, (span.end_s - span.start_s) * 1e6);
    out += span.wait ? ",1" : ",0";
    out += span.failed ? ",1]" : ",0]";
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  std::ofstream file(path);
  file << out;
  if (!file) {
    std::cerr << "perfbench: could not write " << path << "\n";
    std::exit(1);
  }
}

int run_traced(const Args& args) {
  const Runner& own = runners().at(args.workload);
  const RunResult untraced = own({args.seed, args.seconds, nullptr});

  Tracer tracer;
  const RunResult traced = own({args.seed, args.seconds, &tracer});
  std::size_t attempted = untraced.attempted + traced.attempted;
  std::size_t failed = untraced.failed + traced.failed;
  MetricMap metrics = traced.layers;
  for (const auto& [name, runner] : runners()) {
    if (name == args.workload) {
      continue;
    }
    const RunResult probe = runner({args.seed, kProbeSeconds, &tracer});
    attempted += probe.attempted;
    failed += probe.failed;
    for (const auto& [metric, value] : probe.layers) {
      metrics.emplace(metric, value);  // the workload's own values win
    }
  }

  const std::vector<SpanRecord> spans = tracer.spans();
  const auto layers = summarise_layers(spans);
  for (const auto& [name, metric] : untraced.end_to_end) {
    const auto it = traced.end_to_end.find(name);
    if (it != traced.end_to_end.end() && metric.value != 0.0) {
      metrics["trace.overhead." + name] = {
          it->second.value / metric.value - 1.0, "ratio"};
    }
  }
  for (const auto& [phase, share] : unattributed_shares(spans)) {
    metrics["trace.unattributed." + phase] = {share, "ratio"};
  }

  std::printf("workload %s, seed %llu, traced\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  for (const std::string& note : traced.notes) {
    std::printf("  %s\n", note.c_str());
  }
  print_metrics("end-to-end, untraced:", untraced.end_to_end);
  print_metrics("end-to-end, traced:", traced.end_to_end);
  std::printf("layers (from spans):\n  %-10s %8s %12s %12s %8s\n", "layer",
              "count", "self_ms", "wait_ms", "failures");
  for (const auto& [layer, summary] : layers) {
    std::printf("  %-10s %8zu %12.3f %12.3f %8zu\n", layer.c_str(),
                summary.count, summary.self_s * 1e3, summary.wait_s * 1e3,
                summary.failures);
  }
  print_metrics("per-layer metrics:", metrics);
  if (!args.trace_out.empty()) {
    write_trace(args.trace_out, args, spans, layers, metrics);
    std::printf("spans: %zu written to %s\n", spans.size(),
                args.trace_out.c_str());
  }
  print_result_line(failed == 0 && attempted > 0, attempted, failed, metrics);
  return 0;
}

int run_untraced(const Args& args) {
  const RunResult result =
      runners().at(args.workload)({args.seed, args.seconds, nullptr});
  std::printf("workload %s, seed %llu\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  print_metrics("end-to-end:", result.end_to_end);
  print_result_line(result.failed == 0 && result.attempted > 0,
                    result.attempted, result.failed, result.end_to_end);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  return args.trace == 1 ? run_traced(args) : run_untraced(args);
}
