// Sweep determinism suite (ISSUE 3): the same benchmark run sequentially,
// with 8 jobs, and against a warm cache must produce byte-identical result
// tables and fault/backoff schedules, with results in expansion order
// regardless of completion order. Also covers the SweepCache JSONL format's
// crash tolerance and the workpackage fingerprint.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "jube/jube.hpp"
#include "jube/sweep.hpp"
#include "util/error.hpp"

namespace caraml::jube {
namespace {

std::string temp_path(const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove(path);
  return path.string();
}

/// 8 workpackages (shard 0..7) whose action output is a pure function of the
/// context — identical across any execution order.
Benchmark shard_benchmark() {
  Benchmark benchmark("sweep-demo");
  ParameterSet set;
  set.name = "p";
  set.parameters.push_back(
      Parameter{"shard", {"0", "1", "2", "3", "4", "5", "6", "7"}, ""});
  benchmark.add_parameter_set(set);
  benchmark.add_step(Step{"work", {}, "compute", ""});
  benchmark.add_pattern(Pattern{"value", R"(value:\s*(\w+))"});
  return benchmark;
}

ActionRegistry deterministic_registry(std::atomic<int>* executions = nullptr) {
  ActionRegistry registry;
  registry.register_action("compute", [executions](const Context& context) {
    if (executions != nullptr) executions->fetch_add(1);
    return "value: v" + context.at("shard") + "\n";
  });
  return registry;
}

std::string render(const RunResult& result) {
  return result.table({"shard", "value", "status"}).render();
}

// --- determinism across job counts ------------------------------------------------

TEST(Sweep, ParallelTableMatchesSequential) {
  const Benchmark benchmark = shard_benchmark();
  const ActionRegistry registry = deterministic_registry();

  const RunResult sequential = benchmark.run(registry, {});
  SweepOptions parallel;
  parallel.jobs = 8;
  const RunResult concurrent = benchmark.run(registry, {}, parallel);

  EXPECT_EQ(render(sequential), render(concurrent));
  ASSERT_EQ(concurrent.workpackages.size(), 8u);
  // Results land in expansion order regardless of completion order.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(concurrent.workpackages[i].context.at("shard"),
              std::to_string(i));
  }
}

TEST(Sweep, JobsZeroUsesHardwareThreads) {
  const Benchmark benchmark = shard_benchmark();
  SweepOptions sweep;
  sweep.jobs = 0;
  const RunResult result =
      benchmark.run(deterministic_registry(), {}, sweep);
  EXPECT_EQ(render(benchmark.run(deterministic_registry(), {})),
            render(result));
}

// Per-workpackage retry jitter streams are derived from (seed, expansion
// index), so attempts and backoff schedules are byte-identical between
// jobs=1 and jobs=8 even though completion order differs.
TEST(Sweep, FaultSchedulesIdenticalAcrossJobCounts) {
  const auto run_flaky = [](int jobs) {
    Benchmark benchmark = shard_benchmark();
    // Every shard's first two attempts fail; per-shard counters make the
    // failure pattern a function of the context, not of global order.
    auto counters = std::make_shared<std::map<std::string, int>>();
    auto mutex = std::make_shared<std::mutex>();
    ActionRegistry registry;
    registry.register_action(
        "compute", [counters, mutex](const Context& context) -> std::string {
          {
            std::lock_guard<std::mutex> lock(*mutex);
            if ((*counters)[context.at("shard")]++ < 2) {
              throw Error("transient");
            }
          }
          return "value: v" + context.at("shard") + "\n";
        });
    RunOptions options;
    options.retry.max_attempts = 4;
    options.retry.seed = 1234;
    options.sleeper = [](double) {};  // no real sleeping
    SweepOptions sweep;
    sweep.jobs = jobs;
    return benchmark.run(registry, {}, options, sweep);
  };

  const RunResult sequential = run_flaky(1);
  const RunResult concurrent = run_flaky(8);
  ASSERT_EQ(sequential.workpackages.size(), concurrent.workpackages.size());
  for (std::size_t i = 0; i < sequential.workpackages.size(); ++i) {
    const auto& seq = sequential.workpackages[i].step_outcomes;
    const auto& par = concurrent.workpackages[i].step_outcomes;
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t s = 0; s < seq.size(); ++s) {
      EXPECT_EQ(seq[s].status, par[s].status);
      EXPECT_EQ(seq[s].attempts, par[s].attempts);
      EXPECT_DOUBLE_EQ(seq[s].backoff_s, par[s].backoff_s);  // byte-identical
    }
  }
  EXPECT_EQ(render(sequential), render(concurrent));
}

// A strict parallel run drains all in-flight workpackages, then rethrows the
// error of the lowest expansion index — the same failure a sequential run
// hits first.
TEST(Sweep, StrictParallelRethrowsLowestExpansionIndexError) {
  Benchmark benchmark = shard_benchmark();
  ActionRegistry registry;
  registry.register_action("compute",
                           [](const Context& context) -> std::string {
                             const std::string& shard = context.at("shard");
                             if (shard == "2" || shard == "6") {
                               throw Error("boom shard " + shard);
                             }
                             return "value: v" + shard + "\n";
                           });
  SweepOptions sweep;
  sweep.jobs = 8;
  try {
    benchmark.run(registry, {}, sweep);
    FAIL() << "expected Error from failing workpackage";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom shard 2");
  }
}

// --- result cache -----------------------------------------------------------------

TEST(Sweep, WarmCacheSkipsAllCompletedWorkpackages) {
  const std::string cache = temp_path("caraml_sweep_cache.jsonl");
  const Benchmark benchmark = shard_benchmark();
  SweepOptions sweep;
  sweep.jobs = 4;
  sweep.cache_path = cache;

  std::atomic<int> executions{0};
  const RunResult cold =
      benchmark.run(deterministic_registry(&executions), {}, sweep);
  EXPECT_EQ(executions.load(), 8);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 8u);

  const RunResult warm =
      benchmark.run(deterministic_registry(&executions), {}, sweep);
  EXPECT_EQ(executions.load(), 8) << "warm run must not re-execute";
  EXPECT_EQ(warm.cache_hits, 8u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(render(cold), render(warm));
  for (const auto& wp : warm.workpackages) {
    EXPECT_TRUE(wp.from_cache);
  }
}

TEST(Sweep, FailedWorkpackagesAreRetriedNotCached) {
  const std::string cache = temp_path("caraml_sweep_failcache.jsonl");
  Benchmark benchmark = shard_benchmark();
  // Shard 3 fails on the first sweep only; all other shards succeed.
  auto first_pass = std::make_shared<std::atomic<bool>>(true);
  ActionRegistry registry;
  registry.register_action(
      "compute", [first_pass](const Context& context) -> std::string {
        if (context.at("shard") == "3" && first_pass->load()) {
          throw Error("transient outage");
        }
        return "value: v" + context.at("shard") + "\n";
      });
  RunOptions options;
  options.retry.max_attempts = 1;
  options.sleeper = [](double) {};
  SweepOptions sweep;
  sweep.cache_path = cache;

  const RunResult first = benchmark.run(registry, {}, options, sweep);
  EXPECT_EQ(first.workpackages[3].status, "failed");

  first_pass->store(false);
  const RunResult second = benchmark.run(registry, {}, options, sweep);
  EXPECT_EQ(second.cache_hits, 7u) << "only completed workpackages cached";
  EXPECT_EQ(second.cache_misses, 1u);
  EXPECT_EQ(second.workpackages[3].status, "ok");
  EXPECT_FALSE(second.workpackages[3].from_cache);
}

TEST(Sweep, CacheSkipsMalformedLines) {
  const std::string path = temp_path("caraml_sweep_torn.jsonl");
  {
    SweepCache cache(path);
    Workpackage wp;
    wp.status = "ok";
    wp.outputs["work"] = "value: 1\n";
    cache.append("fp-keep", "demo", wp);
  }
  {
    // Simulate a line torn by a crashed writer.
    std::ofstream out(path, std::ios::app);
    out << "{\"schema_version\":1,\"fingerpr\n";
  }
  SweepCache reopened(path);
  EXPECT_EQ(reopened.size(), 1u);
  Workpackage out;
  EXPECT_TRUE(reopened.lookup("fp-keep", out));
  EXPECT_TRUE(out.from_cache);
  EXPECT_EQ(out.outputs.at("work"), "value: 1\n");
}

// --- fingerprints -----------------------------------------------------------------

TEST(Sweep, FingerprintSensitiveToEveryIdentityField) {
  const Context context{{"shard", "0"}};
  const std::vector<std::pair<std::string, std::string>> steps = {
      {"work", "compute"}};
  const std::string base =
      workpackage_fingerprint("demo", context, steps, "");
  EXPECT_EQ(base, workpackage_fingerprint("demo", context, steps, ""));
  EXPECT_NE(base, workpackage_fingerprint("other", context, steps, ""));
  EXPECT_NE(base, workpackage_fingerprint("demo", {{"shard", "1"}}, steps, ""));
  EXPECT_NE(base, workpackage_fingerprint("demo", context,
                                          {{"work", "other_action"}}, ""));
  EXPECT_NE(base, workpackage_fingerprint("demo", context, steps, "fault-x"));
  // Adjacent fields must not alias.
  EXPECT_NE(workpackage_fingerprint("ab", {{"c", "d"}}, {}, ""),
            workpackage_fingerprint("a", {{"bc", "d"}}, {}, ""));
}

TEST(Sweep, GoldenFingerprintIsPinned) {
  // Keys the on-disk sweep cache: a change invalidates every cache.
  EXPECT_EQ(workpackage_fingerprint("demo", {{"shard", "0"}, {"system", "A100"}},
                                    {{"work", "compute"}}, "fault-x"),
            "022932398c586426");
  EXPECT_EQ(workpackage_fingerprint("", {}, {}, ""), "9abe0000c590d8b1");
}

// --- wall-clock speedup -----------------------------------------------------------

TEST(Sweep, ParallelSweepIsFasterThanSequential) {
  Benchmark benchmark = shard_benchmark();
  ActionRegistry registry;
  registry.register_action("compute", [](const Context& context) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return "value: v" + context.at("shard") + "\n";
  });
  SweepOptions sweep;
  sweep.jobs = 8;
  const auto start = std::chrono::steady_clock::now();
  const RunResult result = benchmark.run(registry, {}, sweep);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(result.workpackages.size(), 8u);
  // Sequential would be ~0.8 s; 8 jobs should land near 0.1 s. The loose
  // bound keeps the assertion robust on loaded CI machines.
  EXPECT_LT(elapsed, 0.45);
}

}  // namespace
}  // namespace caraml::jube
