// Golden answers: two seeded `manymap simulate` sets, mapped with
// Mapper::map, must reproduce the committed PAF byte for byte. Service,
// pipeline and CLI tests compare paths against each other within one
// build; this test compares the build against answers pinned in the tree,
// so a seeding, chaining or kernel change that claims "byte-identical"
// is checked against the code it replaced.
//
// The files were written by the CLI (an intentional answer change
// regenerates them the same way and says so in CHANGES.md):
//   manymap simulate ref.fa reads.fq --length 1000000 --reads 400
//       --platform pacbio --seed 41
//   manymap map ref.fa reads.fq --preset map-pb --threads 1 > map-pb.paf
// and likewise with `--platform nanopore` and `--preset map-ont`.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/mapper.hpp"
#include "core/options.hpp"
#include "core/paf.hpp"
#include "simulate/read_sim.hpp"

#ifndef MANYMAP_GOLDEN_DIR
#define MANYMAP_GOLDEN_DIR "data/golden"
#endif

namespace manymap {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// What `manymap simulate --length 1000000 --reads 400 --seed 41` followed
/// by `manymap map --threads 1` prints, computed in process.
std::string map_simulated_set(const ErrorProfile& profile, const char* preset) {
  GenomeParams g;
  g.total_length = 1'000'000;
  g.num_contigs = 2;
  g.seed = 41;
  const Reference ref = generate_genome(g);
  ReadSimParams rp;
  rp.profile = profile;
  rp.num_reads = 400;
  rp.seed = g.seed + 1;
  const auto reads = ReadSimulator(ref, rp).simulate();
  const auto opt = preset_by_name(preset);
  EXPECT_TRUE(opt.has_value()) << preset;
  const Mapper mapper(ref, *opt);
  std::string paf;
  for (const auto& r : reads) paf += to_paf_block(mapper.map(r.read));
  return paf;
}

void expect_matches_golden(const std::string& got, const std::string& file) {
  std::ifstream in(std::string(MANYMAP_GOLDEN_DIR) + "/" + file);
  ASSERT_TRUE(in.good()) << "missing golden file " << file;
  std::ostringstream want;
  want << in.rdbuf();
  const auto want_lines = lines_of(want.str());
  const auto got_lines = lines_of(got);
  EXPECT_EQ(got_lines.size(), want_lines.size()) << file << ": PAF line count";
  std::size_t differing = 0;
  for (std::size_t i = 0; i < std::min(got_lines.size(), want_lines.size()); ++i) {
    if (got_lines[i] == want_lines[i]) continue;
    if (++differing <= 3)
      ADD_FAILURE() << file << " line " << i + 1 << "\n  golden: " << want_lines[i]
                    << "\n  mapped: " << got_lines[i];
  }
  EXPECT_EQ(differing, 0u) << file << ": differing PAF lines";
  EXPECT_EQ(got, want.str()) << file << ": not byte-identical";
}

TEST(GoldenPaf, MapPbMatchesPinnedAnswers) {
  expect_matches_golden(map_simulated_set(ErrorProfile::pacbio(), "map-pb"), "map-pb.paf");
}

TEST(GoldenPaf, MapOntMatchesPinnedAnswers) {
  expect_matches_golden(map_simulated_set(ErrorProfile::nanopore(), "map-ont"), "map-ont.paf");
}

}  // namespace
}  // namespace manymap
