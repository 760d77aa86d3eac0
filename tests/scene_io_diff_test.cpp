// Differential tests of md/scene_io against the iostream reference codec in
// scene_io_oracle.hpp:
//   - the writer's number formatting is printf("%.17g"), value for value;
//   - a seeded, fixed-budget mutation run feeds the same inputs to both
//     readers (and to both entry points of the production reader) and
//     requires them to agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "md/engine.hpp"
#include "md/scene_io.hpp"
#include "scene_io_oracle.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::string printf17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Writer: printf("%.17g") value for value ---------------------------------

TEST(SceneIoWriterTest, RealsFormatExactlyAsPrintf17g) {
  std::vector<double> values = {
      0.0,
      -0.0,
      DBL_MIN,
      -DBL_MIN,
      DBL_TRUE_MIN,
      -DBL_TRUE_MIN,
      1e-310,
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      DBL_MAX,
      -DBL_MAX,
      1.0,
      -7.0,
      123456789.0,
      9007199254740992.0,  // 2^53
      1e16,
      1e17,
      99999999999999984.0,
      0.1,
      0.3,
      0.1 + 0.2,  // 0.30000000000000004: shortest form needs 17 digits
      1.0 / 3.0,
      2.0 / 3.0,
      1.0000000000000002,  // 1 + ulp
      1e-4,                // last fixed-notation exponent
      1e-5,                // first exponent-notation one
      9.9999999999999995e-5,
      123.456,
      -0.5,
  };
  Rng rng(2024);
  while (values.size() < 6000) {
    const std::uint64_t b = rng.next();
    double v = 0.0;
    std::memcpy(&v, &b, sizeof v);
    if (std::isfinite(v)) values.push_back(v);
    values.push_back(rng.uniform(-200.0, 200.0));  // the magnitudes scenes carry
  }

  // Seven reals per atom record (x y z vx vy vz q) in a box that admits any
  // finite position.
  AtomTypeTable types;
  types.add({"X", 1.0, 0.0, 1.0});
  MolecularSystem sys(types, Box{{-DBL_MAX, -DBL_MAX, -DBL_MAX}, {DBL_MAX, DBL_MAX, DBL_MAX}});
  std::string expected = "mws 1\nbox " + printf17(-DBL_MAX) + ' ' + printf17(-DBL_MAX) + ' ' +
                         printf17(-DBL_MAX) + ' ' + printf17(DBL_MAX) + ' ' + printf17(DBL_MAX) +
                         ' ' + printf17(DBL_MAX) + "\ntype X 1 0 1\n";
  for (std::size_t k = 0; k + 7 <= values.size(); k += 7) {
    const double* f = &values[k];
    sys.add_atom(0, {f[0], f[1], f[2]}, {f[3], f[4], f[5]}, f[6], true);
    expected += "atom 0";
    for (int j = 0; j < 7; ++j) expected += ' ' + printf17(f[j]);
    expected += " 1\n";
  }
  EXPECT_EQ(format_scene(sys), expected);
  EXPECT_EQ(oracle::scene_text(sys), expected);
}

TEST(SceneIoWriterTest, OutputIgnoresStreamState) {
  const auto spec = workloads::make_benchmark("nanocar", 3);
  std::ostringstream styled;
  styled << std::fixed << std::showpos << std::setprecision(3);
  save_scene(styled, spec.system);
  EXPECT_EQ(styled.str(), format_scene(spec.system));
  EXPECT_EQ(styled.str(), oracle::scene_text(spec.system));
}

// --- Reader: differential mutation run ----------------------------------------

struct Outcome {
  bool ok = false;
  std::string error;
  std::optional<MolecularSystem> sys;
  std::vector<Vec3> refs;
};

Outcome run(const std::function<MolecularSystem(std::vector<Vec3>*)>& load) {
  Outcome o;
  try {
    o.sys.emplace(load(&o.refs));
    o.ok = true;
  } catch (const ContractError& e) {
    o.error = e.what();
  }
  return o;
}

// Empty when the two parsed documents are bit-identical, else what differs.
std::string bit_difference(const Outcome& a, const Outcome& b) {
  const MolecularSystem& x = *a.sys;
  const MolecularSystem& y = *b.sys;
  auto same3 = [](const Vec3& p, const Vec3& q) {
    return bits(p.x) == bits(q.x) && bits(p.y) == bits(q.y) && bits(p.z) == bits(q.z);
  };
  if (x.n_atoms() != y.n_atoms()) return "atom count";
  if (x.types().n() != y.types().n()) return "type count";
  for (int t = 0; t < x.types().n(); ++t) {
    const AtomType& p = x.types().at(t);
    const AtomType& q = y.types().at(t);
    if (p.name != q.name || bits(p.mass) != bits(q.mass) ||
        bits(p.lj_epsilon) != bits(q.lj_epsilon) || bits(p.lj_sigma) != bits(q.lj_sigma)) {
      return "type " + std::to_string(t);
    }
  }
  if (!same3(x.box().lo, y.box().lo) || !same3(x.box().hi, y.box().hi)) return "box";
  for (int i = 0; i < x.n_atoms(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (!same3(x.positions()[k], y.positions()[k]) ||
        !same3(x.velocities()[k], y.velocities()[k]) ||
        !same3(x.accelerations()[k], y.accelerations()[k]) ||
        bits(x.charge(i)) != bits(y.charge(i)) || x.type_of(i) != y.type_of(i) ||
        x.movable(i) != y.movable(i)) {
      return "atom " + std::to_string(i);
    }
  }
  auto bonds_equal = [](const auto& p, const auto& q, auto same) {
    if (p.size() != q.size()) return false;
    for (std::size_t k = 0; k < p.size(); ++k) {
      if (!same(p[k], q[k])) return false;
    }
    return true;
  };
  if (!bonds_equal(x.radial_bonds(), y.radial_bonds(), [](const RadialBond& p, const RadialBond& q) {
        return p.a == q.a && p.b == q.b && bits(p.k) == bits(q.k) && bits(p.r0) == bits(q.r0);
      })) {
    return "radial bonds";
  }
  if (!bonds_equal(x.angular_bonds(), y.angular_bonds(),
                   [](const AngularBond& p, const AngularBond& q) {
                     return p.a == q.a && p.b == q.b && p.c == q.c && bits(p.k) == bits(q.k) &&
                            bits(p.theta0) == bits(q.theta0);
                   })) {
    return "angular bonds";
  }
  if (!bonds_equal(x.torsion_bonds(), y.torsion_bonds(),
                   [](const TorsionBond& p, const TorsionBond& q) {
                     return p.a == q.a && p.b == q.b && p.c == q.c && p.d == q.d &&
                            bits(p.k) == bits(q.k) && p.n == q.n && bits(p.phi0) == bits(q.phi0);
                   })) {
    return "torsion bonds";
  }
  if (a.refs.size() != b.refs.size()) return "nref count";
  for (std::size_t k = 0; k < a.refs.size(); ++k) {
    if (!same3(a.refs[k], b.refs[k])) return "nref " + std::to_string(k);
  }
  return "";
}

// --- The three rejections the production reader adds -------------------------
//
// On a line the oracle accepted, md::load_scene may still reject it for:
//   extra     text after the record's last field (as a separate token, or
//             as the tail the oracle's operator>> leaves unread);
//   integer   an int field whose token is not an optionally signed run of
//             digits ("1.5", "1e3", "0x10");
//   range     a real that over- or underflows (strtod reports ERANGE and
//             returns inf or 0), or an int token outside int;
//   joined    a real field's token of which operator>> reads only a prefix:
//             in practice two numbers run together after a lost separator
//             ("12.5.5", "0.25-1"), which the oracle reads as two fields,
//             shifting every later field by one.
// This classifier looks only at the line text, not at either parser.

enum class Field { Int, Real, Word };

const std::map<std::string, std::vector<Field>, std::less<>>& schemas() {
  using F = Field;
  static const std::map<std::string, std::vector<Field>, std::less<>> table = {
      {"mws", {F::Int}},
      {"box", {F::Real, F::Real, F::Real, F::Real, F::Real, F::Real}},
      {"type", {F::Word, F::Real, F::Real, F::Real}},
      {"atom", {F::Int, F::Real, F::Real, F::Real, F::Real, F::Real, F::Real, F::Real, F::Int}},
      {"rbond", {F::Int, F::Int, F::Real, F::Real}},
      {"abond", {F::Int, F::Int, F::Int, F::Real, F::Real}},
      {"tbond", {F::Int, F::Int, F::Int, F::Int, F::Real, F::Int, F::Real}},
      {"acc", {F::Real, F::Real, F::Real}},
      {"nref", {F::Real, F::Real, F::Real}},
  };
  return table;
}

bool is_separator(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

std::vector<std::string> tokens_of(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_separator(line[i])) ++i;
    const std::size_t b = i;
    while (i < line.size() && !is_separator(line[i])) ++i;
    if (i > b) out.emplace_back(line.substr(b, i - b));
  }
  return out;
}

bool integer_token(const std::string& t) {
  std::size_t i = (!t.empty() && (t[0] == '+' || t[0] == '-')) ? 1 : 0;
  if (i == t.size()) return false;
  for (; i < t.size(); ++i) {
    if (t[i] < '0' || t[i] > '9') return false;
  }
  return true;
}

// True when operator>> reads a real from the start of `t` but not all of it.
bool joined_numbers(const std::string& t) {
  std::istringstream in(t);
  double d = 0.0;
  return static_cast<bool>(in >> d) && in.peek() != std::char_traits<char>::eof();
}

bool out_of_range(const std::string& t, Field f) {
  errno = 0;
  if (f == Field::Int) {
    const long long v = std::strtoll(t.c_str(), nullptr, 10);
    return errno == ERANGE || v < INT_MIN || v > INT_MAX;
  }
  const double v = std::strtod(t.c_str(), nullptr);
  return errno == ERANGE && (v == 0.0 || std::isinf(v));
}

// True when the oracle's operator>> reads every field of the record and then
// finds more than whitespace.
bool oracle_leaves_text(const std::string& line, const std::vector<Field>& schema) {
  std::istringstream in(line);
  std::string word;
  in >> word;
  for (Field f : schema) {
    int i = 0;
    double d = 0.0;
    if (f == Field::Int) in >> i;
    if (f == Field::Real) in >> d;
    if (f == Field::Word) in >> word;
  }
  if (!in) return false;
  in >> std::ws;
  return !in.eof();
}

bool strict_rejection_allowed(const std::string& line) {
  const std::vector<std::string> tok = tokens_of(line);
  if (tok.empty()) return false;
  const auto it = schemas().find(tok[0]);
  if (it == schemas().end()) return false;
  const std::vector<Field>& schema = it->second;
  if (tok.size() - 1 > schema.size() || oracle_leaves_text(line, schema)) return true;
  for (std::size_t f = 0; f < schema.size() && f + 1 < tok.size(); ++f) {
    const std::string& t = tok[f + 1];
    if (schema[f] == Field::Int && !integer_token(t)) return true;
    if (schema[f] == Field::Real && joined_numbers(t)) return true;
    if (schema[f] != Field::Word && out_of_range(t, schema[f])) return true;
  }
  return false;
}

// The 1-based line a "scene line N: ..." error names (0 for document-level
// errors, -1 when the message has no line).
int error_line(const std::string& error) {
  const std::string key = "scene line ";
  const std::size_t at = error.find(key);
  if (at == std::string::npos) return -1;
  return std::atoi(error.c_str() + at + key.size());
}

std::string line_of(const std::string& text, int line_no) {
  std::istringstream in(text);
  std::string line;
  for (int k = 0; k < line_no && std::getline(in, line); ++k) {
  }
  return line;
}

// --- Seed inputs --------------------------------------------------------------

// The atoms of `sys` with external IDs in `keep` (renumbered in external
// order) and the bonds among them.
MolecularSystem sub_scene(const MolecularSystem& sys, std::vector<int> keep) {
  std::sort(keep.begin(), keep.end());
  keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
  std::map<int, int> renumber;  // external ID -> new index
  MolecularSystem out(sys.types(), sys.box());
  for (int ext : keep) {
    const int i = sys.index_of_external(ext);
    renumber[ext] = out.add_atom(sys.type_of(i), sys.positions()[static_cast<std::size_t>(i)],
                                 sys.velocities()[static_cast<std::size_t>(i)], sys.charge(i),
                                 sys.movable(i));
  }
  // Maps every endpoint; false if one was not kept.
  auto map_all = [&](std::initializer_list<int*> ends) {
    for (int* e : ends) {
      const auto it = renumber.find(sys.external_id(*e));
      if (it == renumber.end()) return false;
      *e = it->second;
    }
    return true;
  };
  for (RadialBond b : sys.radial_bonds()) {
    if (map_all({&b.a, &b.b})) out.add_radial_bond(b);
  }
  for (AngularBond b : sys.angular_bonds()) {
    if (map_all({&b.a, &b.b, &b.c})) out.add_angular_bond(b);
  }
  for (TorsionBond b : sys.torsion_bonds()) {
    if (map_all({&b.a, &b.b, &b.c, &b.d})) out.add_torsion_bond(b);
  }
  return out;
}

// External IDs 0..n-1 plus every atom of the first `bonds` bonds of each kind.
std::vector<int> head_and_bonded(const MolecularSystem& sys, int n, std::size_t bonds) {
  std::vector<int> keep;
  for (int ext = 0; ext < n; ++ext) keep.push_back(ext);
  auto add = [&](std::initializer_list<int> atoms) {
    for (int i : atoms) keep.push_back(sys.external_id(i));
  };
  for (std::size_t k = 0; k < bonds; ++k) {
    const RadialBond& r = sys.radial_bonds()[k];
    const AngularBond& a = sys.angular_bonds()[k];
    const TorsionBond& t = sys.torsion_bonds()[k];
    add({r.a, r.b});
    add({a.a, a.b, a.c});
    add({t.a, t.b, t.c, t.d});
  }
  return keep;
}

std::vector<std::string> seed_inputs() {
  std::vector<std::string> out;
  out.push_back(format_scene(workloads::make_lj_coulomb_gas(24, 0.006, 300.0, 0.25, 3)));
  const MolecularSystem salt = workloads::make_salt(5).system;
  out.push_back(format_scene(sub_scene(salt, head_and_bonded(salt, 24, 0))));
  const MolecularSystem nanocar = workloads::make_nanocar(5).system;
  const MolecularSystem car = sub_scene(nanocar, head_and_bonded(nanocar, 12, 3));
  EXPECT_FALSE(car.radial_bonds().empty());
  EXPECT_FALSE(car.angular_bonds().empty());
  EXPECT_FALSE(car.torsion_bonds().empty());
  out.push_back(format_scene(car));
  EngineConfig cfg;
  cfg.n_threads = 1;
  Engine engine(workloads::make_lj_coulomb_gas(16, 0.006, 300.0, 0.25, 4), cfg);
  engine.run_inline(5);
  out.push_back(format_checkpoint(engine.system(), engine.neighbor_list().reference_positions()));
  return out;
}

// --- Mutations ----------------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t b = 0;
  for (std::size_t e; (e = text.find('\n', b)) != std::string::npos; b = e + 1) {
    lines.push_back(text.substr(b, e - b));
  }
  if (b < text.size()) lines.push_back(text.substr(b));
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

// Token spans [begin, end) of one line.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_separator(line[i])) ++i;
    const std::size_t b = i;
    while (i < line.size() && !is_separator(line[i])) ++i;
    if (i > b) out.emplace_back(b, i);
  }
  return out;
}

const char* const kOddNumbers[] = {
    "nan",      "-nan",    "inf",     "-inf",      "infinity", "1e999",     "-1e999",
    "1e-400",   "-1e-400", "0e-400",  "4.9406564584124654e-324", "5e-324",
    "2.2250738585072009e-308",        "2.4703282292062327e-324", "1e-320",
    "-0",       "+0",      "+1.5",    "+-1",       "-+1",      "++1",       "1e",
    ".",        "-",       "+",       "1.",        ".5",       "0x1p3",     "0x10",
    "1,5",      "1.5.5",   "1e5",     "1E+05",     "1.5e5.5",  "007",       "2147483648",
    "-2147483649",         "99999999999999999999", "1.5",      "3junk",     "1 2",
};

const char kOddBytes[] = {'0', '1', '9', '.', '-', '+', 'e', 'E', ' ', '\t', '\r', '\n',
                          '\v', '\f', '#', 'x', '\0', '\xff', '\xa0', ','};

std::string mutate(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = split_lines(text);
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng.below(n)); };
  std::string& line = lines[pick(lines.size())];
  const auto spans = token_spans(line);
  switch (rng.below(10)) {
    case 0: {  // byte flip anywhere
      std::string out = text;
      out[pick(out.size())] = kOddBytes[pick(sizeof kOddBytes)];
      return out;
    }
    case 1: {  // random byte
      std::string out = text;
      out[pick(out.size())] = static_cast<char>(rng.below(256));
      return out;
    }
    case 2:  // truncation mid-text
      return text.substr(0, pick(text.size()));
    case 3:  // token drop
      if (!spans.empty()) {
        const auto [b, e] = spans[pick(spans.size())];
        line.erase(b, e - b);
      }
      break;
    case 4:  // token duplicate
      if (!spans.empty()) {
        const auto [b, e] = spans[pick(spans.size())];
        line.insert(e, " " + line.substr(b, e - b));
      }
      break;
    case 5:  // odd number in place of a field
      if (spans.size() > 1) {
        const auto [b, e] = spans[1 + pick(spans.size() - 1)];
        line.replace(b, e - b, kOddNumbers[pick(std::size(kOddNumbers))]);
      }
      break;
    case 6: {  // separator variants
      static const char* const seps[] = {"\t", "  ", " \t ", "\v", "\f", "\r"};
      const std::size_t at = line.find(' ');
      if (at != std::string::npos) line.replace(at, 1, seps[pick(std::size(seps))]);
      break;
    }
    case 7: {  // CRLF line endings throughout
      std::string out;
      for (const std::string& l : lines) out += l + "\r\n";
      return out;
    }
    case 8: {  // whitespace-only, blank or comment line inserted
      static const char* const extra[] = {" ", "\t", "\r", "", "# note", " # note"};
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)),
                   extra[pick(std::size(extra))]);
      break;
    }
    default: {  // record dropped or duplicated
      const std::size_t at = pick(lines.size());
      if (rng.below(2) == 0) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      }
      break;
    }
  }
  return join_lines(lines);
}

struct Tally {
  int both_accept = 0;
  int both_reject = 0;
  int strict_only = 0;  // oracle accepts, production rejects in a listed class
  int failures = 0;
};

void check_input(const std::string& text, Tally& tally) {
  const Outcome ref = run([&](std::vector<Vec3>* r) { return oracle::load_scene(text, r); });
  const Outcome sv =
      run([&](std::vector<Vec3>* r) { return load_scene(std::string_view(text), r); });
  const Outcome st = run([&](std::vector<Vec3>* r) {
    std::istringstream is(text);
    return load_scene(is, r);
  });
  std::string problem;
  if (sv.ok != st.ok || sv.error != st.error) {
    problem = "string_view and istream readers disagree: '" + sv.error + "' vs '" + st.error + "'";
  } else if (sv.ok && st.ok && !bit_difference(sv, st).empty()) {
    problem = "string_view and istream readers differ in " + bit_difference(sv, st);
  } else if (ref.ok && sv.ok) {
    const std::string diff = bit_difference(ref, sv);
    if (diff.empty()) {
      ++tally.both_accept;
    } else {
      problem = "accepted by both, but " + diff + " differs";
    }
  } else if (!ref.ok && !sv.ok) {
    ++tally.both_reject;
  } else if (!ref.ok) {
    problem = "accepted, but the oracle rejects: " + ref.error;
  } else {
    const int line_no = error_line(sv.error);
    if (line_no > 0 && strict_rejection_allowed(line_of(text, line_no))) {
      ++tally.strict_only;
    } else {
      problem = "rejected outside the listed classes: " + sv.error;
    }
  }
  if (!problem.empty() && ++tally.failures <= 5) {
    ADD_FAILURE() << problem << "\n--- input ---\n" << text;
  }
}

TEST(SceneIoDifferential, MutatedInputsAgreeWithOracle) {
  const std::vector<std::string> seeds = seed_inputs();
  Tally tally;
  Rng rng(20101);
  for (const std::string& seed : seeds) {
    check_input(seed, tally);
    // Truncation at every record boundary.
    for (std::size_t at = seed.find('\n'); at != std::string::npos; at = seed.find('\n', at + 1)) {
      check_input(seed.substr(0, at + 1), tally);
      check_input(seed.substr(0, at), tally);
    }
    for (int k = 0; k < 600; ++k) check_input(mutate(seed, rng), tally);
  }
  EXPECT_EQ(tally.failures, 0);
  // Every verdict class is exercised.
  EXPECT_GT(tally.both_accept, 100);
  EXPECT_GT(tally.both_reject, 100);
  EXPECT_GT(tally.strict_only, 10);
}

TEST(SceneIoDifferential, StreamReaderCarriesLinesAcrossBlocks) {
  // Large enough for many reader blocks, plus one line longer than a block.
  const MolecularSystem gas = workloads::make_lj_gas(3000, 0.006, 300.0, 8);
  const std::string text = format_scene(gas);
  std::string long_name(200000, 'A');
  std::string long_text = text;
  long_text.insert(long_text.find("type ") + 5, long_name);
  for (const std::string& t : {text, long_text}) {
    const Outcome sv = run([&](std::vector<Vec3>* r) { return load_scene(std::string_view(t), r); });
    const Outcome st = run([&](std::vector<Vec3>* r) {
      std::istringstream is(t);
      return load_scene(is, r);
    });
    const Outcome ref = run([&](std::vector<Vec3>* r) { return oracle::load_scene(t, r); });
    ASSERT_TRUE(sv.ok && st.ok && ref.ok) << sv.error << st.error << ref.error;
    EXPECT_EQ(bit_difference(sv, st), "");
    EXPECT_EQ(bit_difference(ref, sv), "");
  }
}

}  // namespace
}  // namespace mwx::md
