// End-to-end tests of the `caraml` and `jpwr` command-line binaries, run as
// subprocesses (paths injected by CMake).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(CaramlCli, SystemsListsAllTags) {
  const auto result = run_command(std::string(CARAML_CLI_PATH) + " systems");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  for (const char* tag :
       {"JEDI", "GH200", "H100", "WAIH100", "MI250", "GC200", "A100"}) {
    EXPECT_NE(result.output.find(tag), std::string::npos) << tag;
  }
}

TEST(CaramlCli, LlmPointPrintsMetrics) {
  const auto result = run_command(std::string(CARAML_CLI_PATH) +
                                  " llm --system GH200 --batch 512");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("tokens/s/GPU"), std::string::npos);
  EXPECT_NE(result.output.find("tokens/Wh"), std::string::npos);
}

TEST(CaramlCli, IpuPathViaGc200Tag) {
  const auto result = run_command(std::string(CARAML_CLI_PATH) +
                                  " llm --system GC200 --batch 1024");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Wh/epoch/IPU"), std::string::npos);
}

TEST(CaramlCli, OomReportedWithNonZeroExit) {
  const auto result = run_command(
      std::string(CARAML_CLI_PATH) +
      " resnet --system A100 --batch 2048 --devices 1");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("OOM"), std::string::npos);
}

TEST(CaramlCli, TelemetryFlagsProduceTraceMetricsAndManifest) {
  const std::string dir = ::testing::TempDir() + "caraml_cli_telemetry";
  run_command("rm -rf " + dir + " && mkdir -p " + dir);
  const auto result = run_command(
      std::string(CARAML_CLI_PATH) +
      " llm --system GH200 --batch 512 --trace-out " + dir +
      "/trace.json --metrics-out " + dir + "/out --log-format json");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("tokens/s/GPU"), std::string::npos);

  // Chrome trace contains both complete spans and power counter events.
  std::ifstream trace(dir + "/trace.json");
  ASSERT_TRUE(trace.good());
  std::stringstream trace_text;
  trace_text << trace.rdbuf();
  EXPECT_NE(trace_text.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("traceEvents"), std::string::npos);

  // Metrics include the simulator event-loop counters and the PowerScope
  // jitter histogram; the energy CSV and manifest land beside them.
  std::ifstream metrics(dir + "/out/metrics.csv");
  ASSERT_TRUE(metrics.good());
  std::stringstream metrics_text;
  metrics_text << metrics.rdbuf();
  EXPECT_NE(metrics_text.str().find("sim/events_processed"),
            std::string::npos);
  EXPECT_NE(metrics_text.str().find("power/sample_jitter_ms"),
            std::string::npos);
  EXPECT_TRUE(std::ifstream(dir + "/out/energy.csv").good());
  std::ifstream manifest(dir + "/out/manifest.jsonl");
  ASSERT_TRUE(manifest.good());
  std::string line;
  ASSERT_TRUE(std::getline(manifest, line));
  EXPECT_NE(line.find("\"command\":\"llm\""), std::string::npos);
  EXPECT_NE(line.find("\"system_tag\":\"GH200\""), std::string::npos);
  EXPECT_NE(line.find("\"power_samples\""), std::string::npos);
}

TEST(CaramlCli, JsonLogFormatRejected) {
  const auto result = run_command(std::string(CARAML_CLI_PATH) +
                                  " llm --system GH200 --batch 512 "
                                  "--log-format yaml");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("log format"), std::string::npos);
}

TEST(CaramlCli, UnknownCommandFails) {
  const auto result = run_command(std::string(CARAML_CLI_PATH) + " frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown command"), std::string::npos);
}

TEST(CaramlCli, HelpListsSubcommands) {
  const auto result = run_command(std::string(CARAML_CLI_PATH) + " --help");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* cmd :
       {"systems", "run", "llm", "resnet", "inference", "tts", "combine",
        "export"}) {
    EXPECT_NE(result.output.find(cmd), std::string::npos) << cmd;
  }
}

TEST(CaramlCli, AnalyseTraceRanksLoadImbalanceOnDeratedRun) {
  const std::string dir = ::testing::TempDir() + "caraml_cli_analyse";
  run_command("rm -rf " + dir + " && mkdir -p " + dir);
  const auto run = run_command(
      std::string(CARAML_CLI_PATH) +
      " llm --system A100 --batch 256 --devices 4 --derate-device 0:3"
      " --trace-out " + dir + "/trace.json");
  ASSERT_EQ(run.exit_code, 0) << run.output;

  const auto analyse = run_command(
      std::string(CARAML_CLI_PATH) + " analyse-trace " + dir +
      "/trace.json --format json --json-out " + dir + "/analysis.json");
  EXPECT_EQ(analyse.exit_code, 0) << analyse.output;
  // One device derated 3x must rank as the top bottleneck, with skew
  // quantified in the metrics.
  const std::string expected_first = "\"rule\":\"analysis/load-imbalance\"";
  const std::string::size_type first_rule = analyse.output.find("\"rule\":");
  ASSERT_NE(first_rule, std::string::npos) << analyse.output;
  EXPECT_EQ(analyse.output.compare(first_rule, expected_first.size(),
                                   expected_first),
            0)
      << analyse.output;
  EXPECT_NE(analyse.output.find("\"skew\":"), std::string::npos);
  EXPECT_NE(analyse.output.find("\"version\":1"), std::string::npos);
  // --json-out mirrors the document regardless of --format.
  std::ifstream json_file(dir + "/analysis.json");
  ASSERT_TRUE(json_file.good());
  std::stringstream json_text;
  json_text << json_file.rdbuf();
  EXPECT_NE(json_text.str().find("analysis/load-imbalance"),
            std::string::npos);

  const auto human =
      run_command(std::string(CARAML_CLI_PATH) + " analyse-trace " + dir +
                  "/trace.json");
  EXPECT_EQ(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("[warning] load-imbalance"), std::string::npos)
      << human.output;
}

TEST(CaramlCli, AnalyseTraceListDetectors) {
  const auto result = run_command(std::string(CARAML_CLI_PATH) +
                                  " analyse-trace --list-detectors");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  for (const char* rule :
       {"analysis/critical-path", "analysis/pipeline-bubble",
        "analysis/comm-pattern", "analysis/load-imbalance",
        "analysis/queue-wait", "analysis/energy-attribution"}) {
    EXPECT_NE(result.output.find(rule), std::string::npos) << rule;
  }
}

TEST(CaramlCli, AnalyseTraceReportsMalformedJsonWithOffset) {
  const std::string dir = ::testing::TempDir() + "caraml_cli_badtrace";
  run_command("rm -rf " + dir + " && mkdir -p " + dir);
  {
    std::ofstream bad(dir + "/bad.json");
    bad << "{\"traceEvents\":[{\"ph\":\"X\",";
  }
  const auto result = run_command(std::string(CARAML_CLI_PATH) +
                                  " analyse-trace " + dir + "/bad.json");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("bad.json"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("at offset"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("analysis/trace-error"), std::string::npos)
      << result.output;
}

TEST(CaramlCli, AnalyseTraceJsonOutKeepsEveryTrace) {
  const std::string dir = ::testing::TempDir() + "caraml_cli_two_traces";
  run_command("rm -rf " + dir + " && mkdir -p " + dir);
  const auto run = run_command(std::string(CARAML_CLI_PATH) +
                               " llm --system A100 --batch 256 --devices 4"
                               " --derate-device 0:3 --trace-out " + dir +
                               "/good.json");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  {
    std::ofstream bad(dir + "/bad.json");
    bad << "{\"traceEvents\":[";
  }
  // The malformed trace comes first: its document must survive the second.
  const auto result = run_command(
      std::string(CARAML_CLI_PATH) + " analyse-trace " + dir + "/bad.json " +
      dir + "/good.json --json-out " + dir + "/both.json");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  std::ifstream json_file(dir + "/both.json");
  ASSERT_TRUE(json_file.good());
  std::stringstream json_text;
  json_text << json_file.rdbuf();
  const std::string text = json_text.str();
  const std::string::size_type error = text.find("analysis/trace-error");
  const std::string::size_type finding = text.find("analysis/load-imbalance");
  ASSERT_NE(error, std::string::npos) << text;
  ASSERT_NE(finding, std::string::npos) << text;
  EXPECT_LT(error, finding) << "documents must follow argument order";
}

TEST(CaramlCli, FailedRunStillFlushesTraceAndMetrics) {
  const std::string dir = ::testing::TempDir() + "caraml_cli_failflush";
  run_command("rm -rf " + dir + " && mkdir -p " + dir);
  // batch 250 is not divisible into 8 micro-batches: the run throws after
  // telemetry is armed, and the trace/metrics/manifest must flush anyway.
  const auto result = run_command(
      std::string(CARAML_CLI_PATH) + " llm --system GH200 --batch 250"
      " --trace-out " + dir + "/trace.json --metrics-out " + dir + "/out");
  EXPECT_EQ(result.exit_code, 1) << result.output;

  EXPECT_TRUE(std::ifstream(dir + "/trace.json").good());
  EXPECT_TRUE(std::ifstream(dir + "/out/metrics.csv").good());
  std::ifstream manifest(dir + "/out/manifest.jsonl");
  ASSERT_TRUE(manifest.good());
  std::string line;
  ASSERT_TRUE(std::getline(manifest, line));
  EXPECT_NE(line.find("\"status\":\"failed\""), std::string::npos) << line;
}

TEST(CaramlCli, SweepAnalyseAnnotatesWorkpackages) {
  const auto result = run_command(
      std::string(CARAML_CLI_PATH) + " run --script " + CARAML_CONFIG_DIR +
      "/llm_benchmark_nvidia_amd.yaml --tag A100 --analyse");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("top_bottleneck"), std::string::npos)
      << result.output;
  // Every workpackage row carries a ranked bottleneck annotation.
  EXPECT_NE(result.output.find("analysis/"), std::string::npos)
      << result.output;
}

TEST(JpwrCli, WrapsCommandAndReportsEnergy) {
  const auto result = run_command(std::string(CARAML_JPWR_PATH) +
                                  " --methods synthetic --interval 5 sleep "
                                  "0.05");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("jpwr energy report"), std::string::npos);
  EXPECT_NE(result.output.find("synthetic:synthetic0"), std::string::npos);
}

TEST(JpwrCli, PropagatesChildExitCode) {
  const auto result = run_command(std::string(CARAML_JPWR_PATH) +
                                  " --methods synthetic false");
  EXPECT_EQ(result.exit_code, 1);
}

TEST(JpwrCli, MissingCommandFails) {
  const auto result =
      run_command(std::string(CARAML_JPWR_PATH) + " --methods synthetic");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("no command given"), std::string::npos);
}

}  // namespace
