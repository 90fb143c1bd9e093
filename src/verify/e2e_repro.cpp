// v2 repro format: a whole end-to-end case in one self-contained text
// file. Like v1, nothing depends on a seed or RNG version at replay time —
// workload synthesis parameters are explicit, and minimized cases carry
// their read set verbatim.
//
//   manymap-verify-repro v2
//   # free-form note lines
//   kind e2e
//   seed 42
//   ref_seed 7
//   ref_len 50000
//   ref_contigs 2
//   read_seed 11
//   num_reads 6
//   read_max_len 2000
//   band 128           (optional; absent = 0 = rung skipped)
//   zdrop 200          (optional)
//   dirs_budget 32768  (optional)
//   gpu 1              (optional; absent = 0)
//   workers 1 2 8
//   shuffle_seed 3
//   svc_resident 65536     (optional)
//   svc_score_only 1       (optional)
//   verify_every 1
//   fault_seed 9           (optional)
//   fault service.worker.compute error 4 2 0
//   read ACGT...           (optional explicit read set; overrides read_seed)
#include <fstream>
#include <sstream>

#include "sequence/dna.hpp"
#include "verify/e2e.hpp"
#include "verify/fuzzer.hpp"

namespace manymap {
namespace verify {

namespace {

constexpr const char* kMagicV1 = "manymap-verify-repro v1";
constexpr const char* kMagicV2 = "manymap-verify-repro v2";

bool parse_fault_kind(const std::string& s, fault::FaultKind* out) {
  if (s == "error") *out = fault::FaultKind::kError;
  else if (s == "slow") *out = fault::FaultKind::kSlow;
  else if (s == "stall") *out = fault::FaultKind::kStall;
  else return false;
  return true;
}

}  // namespace

std::string format_e2e_repro(const E2eCase& c, const std::string& note) {
  std::ostringstream out;
  out << kMagicV2 << "\n";
  if (!note.empty()) {
    std::istringstream lines(note);
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << "\n";
  }
  const E2eConfig& g = c.cfg;
  out << "kind e2e\n";
  out << "seed " << c.seed << "\n";
  out << "ref_seed " << g.ref_seed << "\n";
  out << "ref_len " << g.ref_len << "\n";
  out << "ref_contigs " << g.ref_contigs << "\n";
  out << "read_seed " << g.read_seed << "\n";
  out << "num_reads " << g.num_reads << "\n";
  out << "read_max_len " << g.read_max_len << "\n";
  // Optional knobs follow the v1 convention: emitted only when set, so
  // minimal cases stay minimal and absent keys parse as their defaults.
  if (g.band != 0) out << "band " << g.band << "\n";
  if (g.zdrop != 0) out << "zdrop " << g.zdrop << "\n";
  if (g.dirs_budget != 0) out << "dirs_budget " << g.dirs_budget << "\n";
  if (g.gpu) out << "gpu 1\n";
  out << "workers";
  for (u32 w : g.workers) out << ' ' << w;
  out << "\n";
  out << "shuffle_seed " << g.shuffle_seed << "\n";
  if (g.svc_resident_bytes != 0) out << "svc_resident " << g.svc_resident_bytes << "\n";
  if (g.svc_score_only_bytes != 0) out << "svc_score_only " << g.svc_score_only_bytes << "\n";
  out << "verify_every " << g.verify_every << "\n";
  if (g.fault_seed != 0) out << "fault_seed " << g.fault_seed << "\n";
  for (const E2eFault& f : g.faults)
    out << "fault " << f.site << ' ' << fault::to_string(f.kind) << ' ' << f.one_in << ' '
        << f.max_fires << ' ' << f.delay_ms << "\n";
  for (const std::vector<u8>& r : c.reads) out << "read " << decode_dna(r) << "\n";
  return out.str();
}

bool parse_e2e_repro(const std::string& text, E2eCase* out, std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagicV2)
    return fail("missing or unsupported repro header");
  E2eCase c;
  c.cfg.workers.clear();  // the file's list replaces the default
  bool have_kind = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    std::string sval;
    E2eConfig& g = c.cfg;
    if (key == "kind") {
      if (!(ls >> sval) || sval != "e2e") return fail("bad kind: " + line);
      have_kind = true;
    } else if (key == "seed") {
      if (!(ls >> c.seed)) return fail("bad seed: " + line);
    } else if (key == "ref_seed") {
      if (!(ls >> g.ref_seed)) return fail("bad ref_seed: " + line);
    } else if (key == "ref_len") {
      if (!(ls >> g.ref_len) || g.ref_len == 0) return fail("bad ref_len: " + line);
    } else if (key == "ref_contigs") {
      if (!(ls >> g.ref_contigs) || g.ref_contigs == 0)
        return fail("bad ref_contigs: " + line);
    } else if (key == "read_seed") {
      if (!(ls >> g.read_seed)) return fail("bad read_seed: " + line);
    } else if (key == "num_reads") {
      if (!(ls >> g.num_reads)) return fail("bad num_reads: " + line);
    } else if (key == "read_max_len") {
      if (!(ls >> g.read_max_len) || g.read_max_len == 0)
        return fail("bad read_max_len: " + line);
    } else if (key == "band") {
      if (!(ls >> g.band) || g.band < 0) return fail("bad band: " + line);
    } else if (key == "zdrop") {
      if (!(ls >> g.zdrop) || g.zdrop < 0) return fail("bad zdrop: " + line);
    } else if (key == "dirs_budget") {
      if (!(ls >> g.dirs_budget)) return fail("bad dirs_budget: " + line);
    } else if (key == "gpu") {
      int v = 0;
      if (!(ls >> v) || (v != 0 && v != 1)) return fail("bad gpu flag: " + line);
      g.gpu = v == 1;
    } else if (key == "workers") {
      u32 w = 0;
      while (ls >> w) {
        if (w == 0) return fail("bad workers: " + line);
        g.workers.push_back(w);
      }
      if (g.workers.empty()) return fail("bad workers: " + line);
    } else if (key == "shuffle_seed") {
      if (!(ls >> g.shuffle_seed)) return fail("bad shuffle_seed: " + line);
    } else if (key == "svc_resident") {
      if (!(ls >> g.svc_resident_bytes)) return fail("bad svc_resident: " + line);
    } else if (key == "svc_score_only") {
      if (!(ls >> g.svc_score_only_bytes)) return fail("bad svc_score_only: " + line);
    } else if (key == "verify_every") {
      if (!(ls >> g.verify_every)) return fail("bad verify_every: " + line);
    } else if (key == "fault_seed") {
      if (!(ls >> g.fault_seed)) return fail("bad fault_seed: " + line);
    } else if (key == "fault") {
      E2eFault f;
      std::string kind;
      if (!(ls >> f.site >> kind >> f.one_in >> f.max_fires >> f.delay_ms) ||
          !parse_fault_kind(kind, &f.kind) || f.one_in == 0)
        return fail("bad fault: " + line);
      g.faults.push_back(std::move(f));
    } else if (key == "read") {
      if (!(ls >> sval)) return fail("bad read: " + line);
      c.reads.push_back(encode_dna(sval));
    } else {
      return fail("unknown key: " + key);
    }
  }
  if (!have_kind) return fail("repro lacks 'kind e2e'");
  if (c.cfg.workers.empty()) c.cfg.workers = {1};
  *out = std::move(c);
  return true;
}

bool load_repro_any(const std::string& path, ReproKind* kind, CaseSpec* kernel,
                    E2eCase* e2e, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::istringstream first(text);
  std::string header;
  std::getline(first, header);
  if (header == kMagicV1) {
    *kind = ReproKind::kKernel;
    return parse_repro(text, kernel, err);
  }
  if (header == kMagicV2) {
    *kind = ReproKind::kE2e;
    return parse_e2e_repro(text, e2e, err);
  }
  if (err != nullptr) *err = "missing or unsupported repro header in " + path;
  return false;
}

}  // namespace verify
}  // namespace manymap
