// pw::check test battery (`ctest -L check`):
//
//   - the production shim is literally std::atomic (zero overhead proof);
//   - the sequential Referee model agrees with the real MutexStream on
//     random operation scripts (the linearizability spec is honest);
//   - the linearizability and invariant oracles accept good histories and
//     reject classic broken ones (duplication, invention, loss);
//   - the scheduler exhausts the bounded-preemption schedule space of the
//     positive scenarios with zero violations;
//   - the two negative scenarios (seeded relaxed-publish race, wedged
//     producer) are caught, and the printed schedule replays the race
//     deterministically in a single execution.
#include <atomic>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "pw/check/history.hpp"
#include "pw/check/report.hpp"
#include "pw/check/scenario.hpp"
#include "pw/check/sched.hpp"
#include "pw/check/shim.hpp"
#include "pw/dataflow/mutex_stream.hpp"
#include "pw/obs/metrics.hpp"

namespace {

using pw::check::CheckOptions;
using pw::check::History;
using pw::check::InvariantPolicy;
using pw::check::JudgedOutcome;
using pw::check::OpKind;
using pw::check::Referee;
using pw::check::ScenarioOutcome;

// ---- shim: this TU is a production TU -----------------------------------

// The whole deal: without PW_CHECK the shim must alias std::atomic — the
// shipped fabric carries zero instrumentation overhead.
static_assert(
    std::is_same_v<pw::check::atomic<std::uint64_t>,
                   std::atomic<std::uint64_t>>,
    "production pw::check::atomic must be std::atomic verbatim");
static_assert(std::is_same_v<pw::check::atomic<bool>, std::atomic<bool>>,
              "production pw::check::atomic must be std::atomic verbatim");
static_assert(pw::check::publish_order() == std::memory_order_release,
              "production publish order is a compile-time release");

TEST(Shim, ProductionTuIsUninstrumented) {
  EXPECT_FALSE(pw::check::under_checker());
  // data annotations and yields must be free no-ops here.
  int dummy = 0;
  pw::check::data_read(&dummy);
  pw::check::data_write(&dummy);
  pw::check::spin_yield();
}

// ---- Referee vs the real MutexStream ------------------------------------

TEST(Referee, MatchesMutexStreamOnRandomScripts) {
  std::mt19937 rng(20260807);
  for (int script = 0; script < 64; ++script) {
    const std::size_t capacity = 1 + rng() % 4;
    Referee referee(capacity);
    pw::dataflow::MutexStream<long long> subject(
        pw::dataflow::StreamOptions{.capacity = capacity});
    long long next = 1;
    for (int step = 0; step < 128; ++step) {
      switch (rng() % 8) {
        case 0:
        case 1:
          // Blocking push, guarded so the sequential subject cannot hang.
          if (referee.push_ready()) {
            EXPECT_EQ(subject.push(next), referee.push(next));
            ++next;
          }
          break;
        case 2:
        case 3:
          EXPECT_EQ(subject.try_push(next), referee.try_push(next));
          ++next;
          break;
        case 4:
        case 5:
          if (referee.pop_ready()) {
            EXPECT_EQ(subject.pop(), referee.pop());
          }
          break;
        case 6: {
          long long out = 0;
          const int status = referee.try_pop(&out);
          const std::optional<long long> legacy = subject.try_pop();
          // The legacy optional flavour conflates empty (1) and closed
          // (2); value presence and the value itself must still agree.
          EXPECT_EQ(legacy.has_value(), status == 0);
          if (status == 0) {
            EXPECT_EQ(*legacy, out);
          }
          break;
        }
        default:
          if (rng() % 16 == 0) {
            subject.close();
            referee.close();
          }
          break;
      }
      ASSERT_EQ(subject.size(), referee.size());
      ASSERT_EQ(subject.closed(), referee.closed());
    }
  }
}

// ---- linearizability oracle ---------------------------------------------

struct HistoryBuilder {
  History history;

  void push(int thread, long long value, bool ok) {
    const std::size_t op = history.begin(thread, OpKind::kPush);
    history.end_push(op, value, ok);
  }
  void pop(int thread, std::optional<long long> value) {
    const std::size_t op = history.begin(thread, OpKind::kPop);
    history.end_pop(op, value);
  }
  void close(int thread) {
    const std::size_t op = history.begin(thread, OpKind::kClose);
    history.end_close(op);
  }
};

TEST(Linearizability, AcceptsSequentialFifoHistory) {
  HistoryBuilder h;
  h.push(0, 1, true);
  h.push(0, 2, true);
  h.pop(1, 1);
  h.pop(1, 2);
  h.close(0);
  h.pop(1, std::nullopt);
  std::string why;
  EXPECT_TRUE(pw::check::linearizable(h.history.ops(), 2, &why)) << why;
}

TEST(Linearizability, AcceptsOverlappingOps) {
  // push(1) and pop(1) overlap in real time: the pop may linearise after
  // the push even though its response lands first.
  History history;
  const std::size_t push_op = history.begin(0, OpKind::kPush);
  const std::size_t pop_op = history.begin(1, OpKind::kPop);
  history.end_pop(pop_op, 1);
  history.end_push(push_op, 1, true);
  std::string why;
  EXPECT_TRUE(pw::check::linearizable(history.ops(), 1, &why)) << why;
}

TEST(Linearizability, RejectsDuplicateDelivery) {
  HistoryBuilder h;
  h.push(0, 1, true);
  h.pop(1, 1);
  h.pop(1, 1);  // the same element twice: no sequential witness
  std::string why;
  EXPECT_FALSE(pw::check::linearizable(h.history.ops(), 4, &why));
  EXPECT_FALSE(why.empty());
}

TEST(Linearizability, RejectsInventedElement) {
  HistoryBuilder h;
  h.push(0, 1, true);
  h.pop(1, 7);  // 7 was never pushed
  std::string why;
  EXPECT_FALSE(pw::check::linearizable(h.history.ops(), 4, &why));
}

TEST(Linearizability, RespectsRealTimeOrder) {
  // pop -> nullopt completed strictly before close was invoked: illegal,
  // a blocking pop only returns nullopt on a closed stream.
  HistoryBuilder h;
  h.push(0, 1, true);
  h.pop(1, 1);
  h.pop(1, std::nullopt);
  h.close(0);
  std::string why;
  EXPECT_FALSE(pw::check::linearizable(h.history.ops(), 4, &why));
}

// ---- conservation / close-contract invariants ---------------------------

TEST(Invariants, CleanHistoryPasses) {
  HistoryBuilder h;
  h.push(0, 1, true);
  h.push(0, 2, true);
  h.close(0);
  h.pop(1, 1);
  h.pop(1, 2);
  h.pop(1, std::nullopt);
  EXPECT_TRUE(
      pw::check::check_invariants(h.history, InvariantPolicy{}).empty());
}

TEST(Invariants, LeftoverElementsBalanceTheBooks) {
  HistoryBuilder h;
  h.push(0, 1, true);
  h.push(0, 2, true);
  h.close(0);
  h.pop(1, 1);
  EXPECT_FALSE(
      pw::check::check_invariants(h.history, InvariantPolicy{}).empty())
      << "element 2 vanished: neither delivered nor drained";
  h.history.set_leftover({2});
  EXPECT_TRUE(
      pw::check::check_invariants(h.history, InvariantPolicy{}).empty());
}

TEST(Invariants, FlagsDuplicateAndInventedDeliveries) {
  HistoryBuilder duplicated;
  duplicated.push(0, 1, true);
  duplicated.close(0);
  duplicated.pop(1, 1);
  duplicated.pop(1, 1);
  EXPECT_FALSE(pw::check::check_invariants(duplicated.history,
                                           InvariantPolicy{})
                   .empty());

  HistoryBuilder invented;
  invented.push(0, 1, true);
  invented.close(0);
  invented.pop(1, 7);
  EXPECT_FALSE(
      pw::check::check_invariants(invented.history, InvariantPolicy{})
          .empty());
}

TEST(Invariants, FlagsPerProducerReordering) {
  HistoryBuilder h;
  h.push(0, 1, true);
  h.push(0, 2, true);
  h.close(0);
  h.pop(1, 2);  // one consumer seeing a later element first: FIFO broken
  h.pop(1, 1);
  EXPECT_FALSE(
      pw::check::check_invariants(h.history, InvariantPolicy{}).empty());
}

TEST(Invariants, FlagsRejectionWithoutClose) {
  HistoryBuilder h;
  h.push(0, 1, false);  // blocking push refused but nobody ever closed
  EXPECT_FALSE(
      pw::check::check_invariants(h.history, InvariantPolicy{}).empty());
}

TEST(Invariants, FailedExpectationIsReported) {
  History history;
  history.expect(0, false, "exhausted() after TryPop::kClosed");
  const std::vector<std::string> violations =
      pw::check::check_invariants(history, InvariantPolicy{});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("exhausted()"), std::string::npos);
}

// ---- schedule trace syntax ----------------------------------------------

TEST(ScheduleTrace, RoundTrips) {
  const std::vector<int> schedule = {0, 1, 0, 2, 1};
  EXPECT_EQ(pw::check::format_schedule(schedule), "0,1,0,2,1");
  EXPECT_EQ(pw::check::parse_schedule("0,1,0,2,1"), schedule);
  EXPECT_TRUE(pw::check::parse_schedule("").empty());
}

// ---- end-to-end: the scenario suite under the real scheduler ------------

ScenarioOutcome explore(const std::string& name, CheckOptions options) {
  const pw::check::ScenarioSpec* spec = pw::check::find_scenario(name);
  EXPECT_NE(spec, nullptr) << name;
  return pw::check::run_scenario(*spec, options);
}

std::string diags_text(const ScenarioOutcome& outcome) {
  std::string text;
  for (const auto& diag : outcome.diagnostics) {
    text += diag.check + ": " + diag.message + "\n";
  }
  return text;
}

bool has_check(const ScenarioOutcome& outcome, const std::string& check) {
  for (const auto& diag : outcome.diagnostics) {
    if (diag.check == check) {
      return true;
    }
  }
  return false;
}

TEST(Scenarios, PositiveSuiteExhaustsClean) {
  for (const char* name :
       {"spsc.relay", "spsc.wraparound", "spsc.try_flavors",
        "spsc.close_while_blocked", "spsc.batch"}) {
    CheckOptions options;  // default divergence budget: 2 preemptions
    const ScenarioOutcome outcome = explore(name, options);
    EXPECT_FALSE(outcome.violation) << name << "\n" << diags_text(outcome);
    EXPECT_FALSE(outcome.truncated)
        << name << " did not exhaust its schedule space";
    // Exhaustive means many schedules, not one lucky run.
    EXPECT_GT(outcome.executions, 30u) << name;
    EXPECT_GT(outcome.decisions, 100u) << name;
  }
}

TEST(Scenarios, RandomWalkModeStaysClean) {
  CheckOptions options;
  options.max_preemptions = 4;
  options.random_walks = 500;
  options.seed = 99;
  const ScenarioOutcome outcome = explore("spsc.relay", options);
  EXPECT_FALSE(outcome.violation) << diags_text(outcome);
  EXPECT_EQ(outcome.executions, 500u);
}

TEST(Scenarios, SeededRelaxedPublishIsCaughtAndReplays) {
  CheckOptions options;
  const ScenarioOutcome outcome =
      explore("spsc.seeded_relaxed_publish", options);
  ASSERT_TRUE(outcome.violation)
      << "the planted relaxed-publish bug escaped the checker";
  EXPECT_TRUE(has_check(outcome, "check.data_race")) << diags_text(outcome);
  ASSERT_FALSE(outcome.failing_schedule.empty());
  for (const auto& diag : outcome.diagnostics) {
    EXPECT_NE(diag.fix_hint.find("--replay="), std::string::npos)
        << "violations must carry a replayable schedule trace";
  }

  // The printed schedule is a deterministic repro: one execution, same
  // race.
  CheckOptions replay;
  replay.replay = outcome.failing_schedule;
  const ScenarioOutcome again =
      explore("spsc.seeded_relaxed_publish", replay);
  EXPECT_TRUE(again.violation);
  EXPECT_EQ(again.executions, 1u);
  EXPECT_TRUE(has_check(again, "check.data_race")) << diags_text(again);
}

TEST(Scenarios, WedgedProducerIsReportedAsDeadlock) {
  CheckOptions options;
  const ScenarioOutcome outcome = explore("spsc.wedged", options);
  ASSERT_TRUE(outcome.violation);
  EXPECT_TRUE(has_check(outcome, "check.deadlock")) << diags_text(outcome);
}

TEST(Scenarios, ExecutionBudgetTruncatesInsteadOfHanging) {
  CheckOptions options;
  options.max_executions = 1;
  const ScenarioOutcome outcome = explore("spsc.relay", options);
  EXPECT_EQ(outcome.executions, 1u);
  EXPECT_TRUE(outcome.truncated);
  EXPECT_FALSE(outcome.violation) << diags_text(outcome);
}

// ---- exporters ----------------------------------------------------------

TEST(Report, JudgesOutcomesAgainstExpectations) {
  ScenarioOutcome caught;
  caught.scenario = "negative";
  caught.violation = true;
  pw::lint::Diagnostic race;
  race.severity = pw::lint::Severity::kError;
  race.check = "check.data_race";
  race.stage = "negative";
  race.message = "data race on ring cell";
  caught.diagnostics.push_back(race);

  ScenarioOutcome missed;
  missed.scenario = "negative.missed";
  missed.violation = false;

  ScenarioOutcome clean;
  clean.scenario = "positive";
  clean.executions = 10;

  const std::vector<JudgedOutcome> judged = {
      {caught, true},   // planted bug caught: pass, race demoted to info
      {missed, true},   // planted bug escaped: fail
      {clean, false},   // clean positive: pass
  };
  EXPECT_TRUE(judged[0].passed());
  EXPECT_FALSE(judged[1].passed());
  EXPECT_TRUE(judged[2].passed());

  const pw::lint::LintReport report = pw::check::to_lint_report(judged);
  ASSERT_EQ(report.errors(), 1u);  // only the missed-bug verdict
  bool saw_demoted = false;
  bool saw_verdict = false;
  for (const auto& diag : report.diagnostics) {
    if (diag.check == "check.data_race") {
      saw_demoted = true;
      EXPECT_EQ(diag.severity, pw::lint::Severity::kInfo);
      EXPECT_EQ(diag.message.rfind("expected: ", 0), 0u);
    }
    if (diag.check == "check.verdict") {
      saw_verdict = true;
      EXPECT_EQ(diag.severity, pw::lint::Severity::kError);
      EXPECT_EQ(diag.stage, "negative.missed");
    }
  }
  EXPECT_TRUE(saw_demoted);
  EXPECT_TRUE(saw_verdict);

  pw::obs::MetricsRegistry registry;
  pw::check::publish(judged, registry, "check");
  EXPECT_EQ(registry.counter("check.scenarios"), 3u);
  EXPECT_EQ(registry.counter("check.failed"), 1u);
  EXPECT_EQ(registry.gauge("check.passed"), 0.0);
  EXPECT_EQ(registry.gauge("check.negative.passed"), 1.0);
  EXPECT_EQ(registry.counter("check.positive.executions"), 10u);
}

}  // namespace
