// End-to-end test of the `manymap` CLI binary: simulate -> index -> map
// in both output formats, exercising the tool exactly as a user would.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/paf.hpp"

#ifndef MANYMAP_CLI_PATH
#define MANYMAP_CLI_PATH "../tools/manymap"
#endif
#ifndef MANYMAP_SERVE_PATH
#define MANYMAP_SERVE_PATH "../tools/manymap_serve"
#endif

namespace manymap {
namespace {

std::string tmp(const char* name) { return ::testing::TempDir() + "/" + name; }

int run_cli(const std::string& args) {
  const std::string cmd = std::string(MANYMAP_CLI_PATH) + " " + args + " 2>/dev/null";
  return std::system(cmd.c_str());
}

int run_serve(const std::string& args) {
  const std::string cmd = std::string(MANYMAP_SERVE_PATH) + " " + args + " >/dev/null 2>&1";
  return std::system(cmd.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Cli, SimulateIndexMapRoundTrip) {
  const std::string ref = tmp("cli_ref.fa");
  const std::string reads = tmp("cli_reads.fq");
  const std::string index = tmp("cli_ref.mmi");
  const std::string paf = tmp("cli_out.paf");
  const std::string sam = tmp("cli_out.sam");

  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 200000 --reads 20"), 0);
  ASSERT_EQ(run_cli("index " + ref + " " + index), 0);
  ASSERT_EQ(run_cli("map " + ref + " " + reads + " --index " + index + " --threads 1 > " + paf),
            0);
  ASSERT_EQ(run_cli("map " + ref + " " + reads + " --sam > " + sam), 0);

  // PAF: every line parses and respects invariants.
  const std::string paf_text = slurp(paf);
  ASSERT_FALSE(paf_text.empty());
  std::istringstream lines(paf_text);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto rec = parse_paf_line(line);
    EXPECT_LE(rec.qend, rec.qlen);
    EXPECT_LT(rec.tstart, rec.tend);
    ++n;
  }
  EXPECT_GE(n, 18);  // nearly every simulated read maps

  // SAM: header plus records.
  const std::string sam_text = slurp(sam);
  EXPECT_NE(sam_text.find("@HD"), std::string::npos);
  EXPECT_NE(sam_text.find("@SQ"), std::string::npos);
  EXPECT_NE(sam_text.find("AS:i:"), std::string::npos);

  for (const auto& p : {ref, reads, index, paf, sam}) std::remove(p.c_str());
}

TEST(Cli, UsageOnBadInvocation) {
  EXPECT_NE(run_cli(""), 0);
  EXPECT_NE(run_cli("frobnicate"), 0);
}

// Numeric option validation: zero, negative, or malformed values are
// config errors answered with the usage message (exit 2), never a silent
// clamp or a crash. One shared simulate output keeps this fast.
TEST(Cli, RejectsNonPositiveNumericOptions) {
  const std::string ref = tmp("cli_ref3.fa");
  const std::string reads = tmp("cli_reads3.fq");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 50000 --reads 3"), 0);

  // map: threads must be a positive integer.
  for (const char* bad : {"0", "-2", "1x", "huge", ""}) {
    EXPECT_NE(run_cli("map " + ref + " " + reads + " --threads '" + bad + "' > /dev/null"), 0)
        << "--threads " << bad;
  }
  // index: k and w must be positive.
  const std::string index = tmp("cli_ref3.mmi");
  EXPECT_NE(run_cli("index " + ref + " " + index + " -k 0"), 0);
  EXPECT_NE(run_cli("index " + ref + " " + index + " -w -3"), 0);
  // simulate: length/contigs/reads positive, seed non-negative.
  EXPECT_NE(run_cli("simulate " + ref + " " + reads + " --length 0"), 0);
  EXPECT_NE(run_cli("simulate " + ref + " " + reads + " --reads -1"), 0);
  EXPECT_NE(run_cli("simulate " + ref + " " + reads + " --seed -1"), 0);
  EXPECT_EQ(run_cli("simulate " + ref + " " + reads + " --length 50000 --reads 3 --seed 0"), 0);

  std::remove(ref.c_str());
  std::remove(reads.c_str());
  std::remove(index.c_str());
}

TEST(Serve, RejectsNonPositiveNumericOptions) {
  for (const char* bad :
       {"--workers 0", "--shards -1", "--batch-size 0", "--queue-capacity -4",
        "--verify-sample 0", "--mem-budget-mb 0", "--mem-budget-mb -5", "--reads 2x",
        "--length nope", "--batch-delay-us -1", "--deadline-ms -1", "--rate -0.5",
        "--seed -9"}) {
    // Bad value last so it wins over the baseline (repeated options keep
    // the final occurrence).
    EXPECT_NE(run_serve("--reads 1 --length 10000 " + std::string(bad)), 0) << bad;
  }
}

TEST(Serve, BatchDelayAcceptsZeroAsNoLinger) {
  EXPECT_EQ(run_serve("--length 20000 --reads 4 --workers 1 --batch-delay-us 0 --verify"), 0);
  EXPECT_EQ(run_serve("--length 20000 --reads 4 --workers 1 --batch-delay-us 300 --verify"), 0);
}

TEST(Serve, MemBudgetRunEndsCleanly) {
  // A tiny budget forces the dirs-streaming rung of the degradation ladder
  // end-to-end through the real binary; --verify audits the sampled
  // responses against the oracle.
  EXPECT_EQ(run_serve("--length 30000 --reads 6 --mem-budget-mb 1 --verify --workers 1"), 0);
}

TEST(Cli, LayoutAndIsaSelection) {
  const std::string ref = tmp("cli_ref2.fa");
  const std::string reads = tmp("cli_reads2.fq");
  ASSERT_EQ(run_cli("simulate " + ref + " " + reads + " --length 100000 --reads 5"), 0);
  EXPECT_EQ(run_cli("map " + ref + " " + reads + " --layout minimap2 --isa sse2 > /dev/null"),
            0);
  EXPECT_EQ(run_cli("map " + ref + " " + reads +
                    " --preset map-ont --pipeline minimap2 > /dev/null"),
            0);
  std::remove(ref.c_str());
  std::remove(reads.c_str());
}

}  // namespace
}  // namespace manymap
