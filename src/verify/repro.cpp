// Self-contained text repro format for divergent cases. Everything needed
// to replay the exact kernel invocation lives in the file; no seed or RNG
// version dependence, so committed regressions stay valid forever.
//
//   manymap-verify-repro v1
//   # free-form note lines
//   family diff
//   layout minimap2
//   isa avx2
//   mode extension
//   cigar 1
//   simt_threads 64
//   band 16          (optional; absent = 0 = unbanded)
//   zdrop 100        (optional; absent = 0 = adaptive X-drop off)
//   params 2 4 4 2
//   target ACGTN...   ("-" for an empty sequence)
//   query ACGT...
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sequence/dna.hpp"
#include "verify/fuzzer.hpp"

namespace manymap {
namespace verify {

namespace {

constexpr const char* kMagic = "manymap-verify-repro v1";

std::string seq_to_text(const std::vector<u8>& s) {
  return s.empty() ? std::string("-") : decode_dna(s);
}

std::vector<u8> text_to_seq(const std::string& s) {
  return s == "-" ? std::vector<u8>{} : encode_dna(s);
}

bool parse_family(const std::string& s, Family* out) {
  if (s == "diff") *out = Family::kDiff;
  else if (s == "simt") *out = Family::kSimt;
  else if (s == "banded") *out = Family::kBanded;
  else return false;
  return true;
}

bool parse_layout(const std::string& s, Layout* out) {
  if (s == "minimap2") *out = Layout::kMinimap2;
  else if (s == "manymap") *out = Layout::kManymap;
  else return false;
  return true;
}

bool parse_isa(const std::string& s, Isa* out) {
  if (s == "scalar") *out = Isa::kScalar;
  else if (s == "sse2") *out = Isa::kSse2;
  else if (s == "avx2") *out = Isa::kAvx2;
  else if (s == "avx512") *out = Isa::kAvx512;
  else return false;
  return true;
}

bool parse_mode(const std::string& s, AlignMode* out) {
  if (s == "global") *out = AlignMode::kGlobal;
  else if (s == "extension") *out = AlignMode::kExtension;
  else return false;
  return true;
}

}  // namespace

std::string format_repro(const CaseSpec& spec, const std::string& note) {
  std::ostringstream out;
  out << kMagic << "\n";
  if (!note.empty()) {
    std::istringstream lines(note);
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << "\n";
  }
  out << "family " << to_string(spec.family) << "\n";
  out << "layout " << manymap::to_string(spec.layout) << "\n";
  out << "isa " << manymap::to_string(spec.isa) << "\n";
  out << "mode " << manymap::to_string(spec.mode) << "\n";
  out << "cigar " << (spec.with_cigar ? 1 : 0) << "\n";
  out << "simt_threads " << spec.simt_threads << "\n";
  // Band geometry: emitted only when banded so pre-band repro files and
  // fresh unbanded ones stay byte-identical (absent keys parse as 0).
  if (spec.band != 0) out << "band " << spec.band << "\n";
  if (spec.zdrop != 0) out << "zdrop " << spec.zdrop << "\n";
  out << "params " << spec.params.match << ' ' << spec.params.mismatch << ' '
      << spec.params.gap_open << ' ' << spec.params.gap_ext << "\n";
  out << "target " << seq_to_text(spec.target) << "\n";
  out << "query " << seq_to_text(spec.query) << "\n";
  return out.str();
}

bool parse_repro(const std::string& text, CaseSpec* out, std::string* err) {
  auto fail = [&](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic)
    return fail("missing or unsupported repro header");
  CaseSpec spec;
  bool have_target = false, have_query = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    std::string sval;
    if (key == "family") {
      if (!(ls >> sval) || !parse_family(sval, &spec.family))
        return fail("bad family: " + line);
    } else if (key == "layout") {
      if (!(ls >> sval) || !parse_layout(sval, &spec.layout))
        return fail("bad layout: " + line);
    } else if (key == "isa") {
      if (!(ls >> sval) || !parse_isa(sval, &spec.isa)) return fail("bad isa: " + line);
    } else if (key == "mode") {
      if (!(ls >> sval) || !parse_mode(sval, &spec.mode)) return fail("bad mode: " + line);
    } else if (key == "cigar") {
      int v = 0;
      if (!(ls >> v) || (v != 0 && v != 1)) return fail("bad cigar flag: " + line);
      spec.with_cigar = v == 1;
    } else if (key == "simt_threads") {
      if (!(ls >> spec.simt_threads)) return fail("bad simt_threads: " + line);
    } else if (key == "band") {
      if (!(ls >> spec.band) || spec.band < 0) return fail("bad band: " + line);
    } else if (key == "zdrop") {
      if (!(ls >> spec.zdrop) || spec.zdrop < 0) return fail("bad zdrop: " + line);
    } else if (key == "params") {
      auto& p = spec.params;
      if (!(ls >> p.match >> p.mismatch >> p.gap_open >> p.gap_ext))
        return fail("bad params: " + line);
    } else if (key == "target") {
      if (!(ls >> sval)) return fail("bad target: " + line);
      spec.target = text_to_seq(sval);
      have_target = true;
    } else if (key == "query") {
      if (!(ls >> sval)) return fail("bad query: " + line);
      spec.query = text_to_seq(sval);
      have_query = true;
    } else {
      return fail("unknown key: " + key);
    }
  }
  if (!have_target || !have_query) return fail("repro lacks target/query");
  *out = std::move(spec);
  return true;
}

bool load_repro_file(const std::string& path, CaseSpec* out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_repro(buf.str(), out, err);
}

}  // namespace verify
}  // namespace manymap
