#include "pw/fault/fault.hpp"

#include <sstream>

namespace pw::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStreamStall:
      return "stream_stall";
    case FaultKind::kStreamClose:
      return "stream_close";
    case FaultKind::kTransferFailure:
      return "transfer_failure";
    case FaultKind::kKernelTimeout:
      return "kernel_timeout";
    case FaultKind::kAllocFailure:
      return "alloc_failure";
    case FaultKind::kSpuriousLatency:
      return "spurious_latency";
  }
  return "unknown";
}

std::optional<FaultKind> parse_fault_kind(std::string_view name) {
  for (const FaultKind kind : kAllFaultKinds) {
    if (name == to_string(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

namespace {

void append_double(std::string& out, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  out += os.str();
}

constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

}  // namespace

std::string to_string(const FaultPlan& plan) {
  std::string out = "seed " + std::to_string(plan.seed) + "\n";
  for (const FaultRule& rule : plan.rules) {
    out += "rule site=" + rule.site + " kind=" + to_string(rule.kind) +
           " prob=";
    append_double(out, rule.probability);
    out += " after=" + std::to_string(rule.after) + " count=";
    out += rule.count == kNoLimit ? "inf" : std::to_string(rule.count);
    out += " latency_s=";
    append_double(out, rule.latency_s);
    out += "\n";
  }
  return out;
}

bool parse_plan(const std::string& text, FaultPlan& out, std::string& error) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& message) {
    error = "line " + std::to_string(line_no) + ": " + message;
    return false;
  };
  while (std::getline(lines, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head) || head[0] == '#') {
      continue;  // blank or comment
    }
    if (head == "seed") {
      if (!(tokens >> plan.seed)) {
        return fail("seed expects an unsigned integer");
      }
      continue;
    }
    if (head != "rule") {
      return fail("expected 'seed', 'rule' or '#', got '" + head + "'");
    }
    FaultRule rule;
    bool have_site = false;
    std::string pair;
    while (tokens >> pair) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return fail("expected key=value, got '" + pair + "'");
      }
      const std::string key = pair.substr(0, eq);
      const std::string value = pair.substr(eq + 1);
      std::istringstream parse(value);
      if (key == "site") {
        rule.site = value;
        have_site = !value.empty();
      } else if (key == "kind") {
        const auto kind = parse_fault_kind(value);
        if (!kind) {
          return fail("unknown fault kind '" + value + "'");
        }
        rule.kind = *kind;
      } else if (key == "prob") {
        if (!(parse >> rule.probability)) {
          return fail("prob expects a number");
        }
      } else if (key == "after") {
        if (!(parse >> rule.after)) {
          return fail("after expects an unsigned integer");
        }
      } else if (key == "count") {
        if (value == "inf") {
          rule.count = kNoLimit;
        } else if (!(parse >> rule.count)) {
          return fail("count expects an unsigned integer or 'inf'");
        }
      } else if (key == "latency_s") {
        if (!(parse >> rule.latency_s)) {
          return fail("latency_s expects a number");
        }
      } else if (key == "latency_ms") {
        double ms = 0.0;
        if (!(parse >> ms)) {
          return fail("latency_ms expects a number");
        }
        rule.latency_s = ms / 1e3;
      } else {
        return fail("unknown key '" + key + "'");
      }
    }
    if (!have_site) {
      return fail("rule needs a site=");
    }
    // The injector matches a trailing '*' as a prefix and anything else
    // literally, so a '*' elsewhere would arm a rule that never fires.
    if (rule.site.find('*') < rule.site.size() - 1) {
      return fail("rule site=" + rule.site +
                  ": '*' is a wildcard only as the last character");
    }
    plan.rules.push_back(std::move(rule));
  }
  out = std::move(plan);
  error.clear();
  return true;
}

}  // namespace pw::fault
