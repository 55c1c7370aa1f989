// End-to-end tests of the reprofind CLI binary (path injected by CMake).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifndef REPRO_CLI_PATH
#error "REPRO_CLI_PATH must be defined by the build"
#endif

namespace {

struct RunResult {
  int status = -1;
  std::string out;
};

RunResult run_cli(const std::string& args) {
  const std::string cmd = std::string(REPRO_CLI_PATH) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
    result.out.append(buffer.data(), n);
  result.status = pclose(pipe);
  return result;
}

/// The whole file at `path`; empty when it cannot be read.
std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string temp_fasta() {
  // Per-test file: gtest_discover_tests registers each TEST as its own ctest
  // entry, and a parallel ctest run must not let one test's `generate`
  // truncate a FASTA another test is reading.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("reprofind_cli_") + info->name() + ".fa";
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Cli, InfoListsEngines) {
  const RunResult r = run_cli("info");
  EXPECT_EQ(r.status, 0) << r.out;
  EXPECT_NE(r.out.find("scalar"), std::string::npos);
  EXPECT_NE(r.out.find("default engine"), std::string::npos);
}

TEST(Cli, NoArgsPrintsUsage) {
  const RunResult r = run_cli("");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const RunResult r = run_cli("frobnicate");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateThenFindTextRoundTrip) {
  const std::string fasta = temp_fasta();
  const RunResult gen = run_cli(
      "generate --kind dna --length 400 --unit 15 --copies 8 --out " + fasta);
  ASSERT_EQ(gen.status, 0) << gen.out;
  ASSERT_TRUE(std::filesystem::exists(fasta));

  const RunResult find = run_cli("find --fasta " + fasta +
                                 " --alphabet dna --tops 6 --repeats "
                                 "--min-score 16");
  EXPECT_EQ(find.status, 0) << find.out;
  EXPECT_NE(find.out.find("top alignments"), std::string::npos);
  EXPECT_NE(find.out.find("repeat region"), std::string::npos);
  EXPECT_NE(find.out.find("consensus"), std::string::npos);
}

TEST(Cli, JsonOutputIsWellFormedish) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind dna --length 300 --unit 12 --copies 6 "
                    "--out " + fasta).status, 0);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --alphabet dna --tops 3 --format json");
  EXPECT_EQ(r.status, 0) << r.out;
  const auto open_braces = std::count(r.out.begin(), r.out.end(), '{');
  const auto close_braces = std::count(r.out.begin(), r.out.end(), '}');
  EXPECT_GT(open_braces, 0);
  EXPECT_EQ(open_braces, close_braces);
  EXPECT_NE(r.out.find("\"top_alignments\""), std::string::npos);
}

TEST(Cli, CsvOutputHasHeaderAndRows) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind dna --length 300 --unit 12 --copies 6 "
                    "--out " + fasta).status, 0);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --alphabet dna --tops 2 --format csv");
  EXPECT_EQ(r.status, 0) << r.out;
  EXPECT_NE(r.out.find("sequence,top,r,score"), std::string::npos);
  EXPECT_NE(r.out.find(",1,"), std::string::npos);
}

TEST(Cli, LowMemoryAndLinearTracebackFlags) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 300 --out " + fasta).status, 0);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --tops 4 --low-memory");
  EXPECT_EQ(r.status, 0) << r.out;
  EXPECT_NE(r.out.find("top alignments"), std::string::npos);
}

TEST(Cli, RejectsLinearTracebackFlag) {
  const RunResult r =
      run_cli("find --fasta " + temp_fasta() + " --linear-traceback");
  EXPECT_NE(r.status, 0) << r.out;
  EXPECT_NE(r.out.find("unknown option --linear-traceback"), std::string::npos)
      << r.out;
}

// Every finder option runs in every driver, with the sequential tops.
class CliDriverOptions
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(CliDriverOptions, AgreeWithSequential) {
  const auto [driver, option] = GetParam();
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 400 --out " + fasta).status, 0);
  const std::string find =
      "find --fasta " + fasta + " --tops 5 --format csv " + option;
  const RunResult seq = run_cli(find);
  const RunResult run = run_cli(find + " " + driver);
  EXPECT_EQ(seq.status, 0) << seq.out;
  EXPECT_EQ(run.status, 0) << run.out;
  EXPECT_EQ(seq.out, run.out);
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, CliDriverOptions,
    ::testing::Values(
        std::pair<std::string, std::string>{"--threads 2", "--low-memory"},
        std::pair<std::string, std::string>{"--threads 2", "--checkpoint-mem 0"},
        std::pair<std::string, std::string>{"--ranks 3", "--low-memory"},
        std::pair<std::string, std::string>{"--ranks 3", "--checkpoint-mem 0"}),
    [](const auto& info) {
      std::string name = info.param.first + info.param.second;
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

TEST(Cli, ParallelThreadsAgreeWithSequential) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 260 --out " + fasta).status, 0);
  const RunResult seq = run_cli("find --fasta " + fasta +
                                " --tops 5 --engine scalar --format csv");
  const RunResult par = run_cli("find --fasta " + fasta +
                                " --tops 5 --engine scalar --threads 3 "
                                "--format csv");
  EXPECT_EQ(seq.status, 0);
  EXPECT_EQ(par.status, 0);
  EXPECT_EQ(seq.out, par.out);
}

TEST(Cli, ClusterRanksAgreeWithSequentialEvenUnderFaults) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 260 --out " + fasta).status, 0);
  const RunResult seq = run_cli("find --fasta " + fasta +
                                " --tops 5 --engine scalar --format csv");
  const RunResult clu = run_cli("find --fasta " + fasta +
                                " --tops 5 --engine scalar --ranks 3 "
                                "--row-storage partitioned --format csv");
  const RunResult faulted = run_cli("find --fasta " + fasta +
                                    " --tops 5 --engine scalar --ranks 3 "
                                    "--fault-seed 7 --format csv");
  EXPECT_EQ(seq.status, 0);
  EXPECT_EQ(clu.status, 0) << clu.out;
  EXPECT_EQ(faulted.status, 0) << faulted.out;
  EXPECT_EQ(seq.out, clu.out);
  EXPECT_EQ(seq.out, faulted.out);
}

TEST(Cli, FaultFlagsRequireClusterRun) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 200 --out " + fasta)
                .status, 0);
  const RunResult r =
      run_cli("find --fasta " + fasta + " --tops 2 --fault-seed 3");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("--ranks"), std::string::npos) << r.out;
  const RunResult bad_plan = run_cli("find --fasta " + fasta +
                                     " --tops 2 --ranks 3 --fault-plan "
                                     "crash:rank=0,op=1");
  EXPECT_NE(bad_plan.status, 0) << bad_plan.out;
}

TEST(Cli, MissingFastaFails) {
  const RunResult r = run_cli("find --tops 3");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.out.find("--fasta is required"), std::string::npos);
}

TEST(Cli, BadEngineNameFails) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind dna --length 200 --unit 10 --copies 5 "
                    "--out " + fasta).status, 0);
  // The fixed-u8 and generic-twin kinds are library-internal now; the CLI
  // offers scalar, striped, simd8x32 and auto.
  for (const std::string name : {"warp9", "simd16x8", "auto-generic"}) {
    const RunResult r = run_cli("find --fasta " + fasta +
                                " --alphabet dna --engine " + name);
    EXPECT_NE(r.status, 0) << name;
    EXPECT_NE(r.out.find("unknown engine"), std::string::npos) << r.out;
  }
}

TEST(Cli, RejectsPrecisionFlag) {
  // auto already runs u8 lanes and escalates to i16 only where needed, so
  // there is no precision to pick by hand.
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 200 --out " + fasta)
                .status, 0);
  for (const std::string flags : {"--precision i16",
                                   "--engine scalar --precision i16"}) {
    const RunResult r = run_cli("find --fasta " + fasta + " " + flags);
    EXPECT_NE(r.status, 0) << flags;
    EXPECT_NE(r.out.find("unknown option --precision"), std::string::npos)
        << r.out;
  }
}

TEST(Cli, I16GuardDoesNotBlockSafeRuns) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 300 --out " + fasta)
                .status, 0);
  const RunResult r =
      run_cli("find --fasta " + fasta + " --tops 2 --engine scalar");
  EXPECT_EQ(r.status, 0) << r.out;
}

TEST(Cli, MetricsJsonWritesPerfRecord) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 300 --out " + fasta)
                .status, 0);
  const auto metrics_path =
      (std::filesystem::temp_directory_path() / "reprofind_metrics_test.json")
          .string();
  std::filesystem::remove(metrics_path);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --tops 3 --engine scalar --metrics-json " +
                              metrics_path);
  ASSERT_EQ(r.status, 0) << r.out;
  const std::string doc = read_file(metrics_path);
  ASSERT_FALSE(doc.empty()) << "metrics file was not written";
  EXPECT_NE(doc.find("\"schema\":\"repro-metrics-v1\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"name\":\"reprofind.find\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"engine\":\"scalar\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"cells\":"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"tracebacks\":"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"idle_seconds\":"), std::string::npos) << doc;
  EXPECT_EQ(doc.find("\"registry\""), std::string::npos) << doc;
  const auto open_braces = std::count(doc.begin(), doc.end(), '{');
  const auto close_braces = std::count(doc.begin(), doc.end(), '}');
  EXPECT_EQ(open_braces, close_braces);
}

// The value of integer key `key` in a metrics JSON document.
std::uint64_t counter_value(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = doc.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing: " << doc;
  if (at == std::string::npos) return 0;
  return std::stoull(doc.substr(at + needle.size()));
}

TEST(Cli, ClusterMetricsJsonCountsMessagesPerRank) {
  const std::string fasta = temp_fasta();
  ASSERT_EQ(run_cli("generate --kind titin --length 300 --out " + fasta)
                .status, 0);
  const auto metrics_path = (std::filesystem::temp_directory_path() /
                             "reprofind_cluster_metrics_test.json")
                                .string();
  std::filesystem::remove(metrics_path);
  const RunResult r = run_cli("find --fasta " + fasta +
                              " --tops 3 --engine scalar --ranks 3"
                              " --metrics-json " + metrics_path);
  ASSERT_EQ(r.status, 0) << r.out;
  const std::string doc = read_file(metrics_path);
  ASSERT_FALSE(doc.empty()) << "metrics file was not written";
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  for (int rank = 0; rank < 3; ++rank) {
    const std::string k = std::to_string(rank);
    messages += counter_value(doc, "cluster_messages_rank" + k);
    words += counter_value(doc, "cluster_payload_words_rank" + k);
  }
  EXPECT_EQ(doc.find("\"cluster_messages_rank3\""), std::string::npos) << doc;
  EXPECT_GT(messages, 0u);
  EXPECT_EQ(messages, counter_value(doc, "cluster_messages"));
  EXPECT_EQ(words, counter_value(doc, "cluster_payload_words"));
}

}  // namespace
