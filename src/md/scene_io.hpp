// Scene (de)serialization — the role of MW's scene files.
//
// Molecular Workbench loads its simulations from scene documents; this
// module provides the equivalent for the reproduction: a small line-based
// text format (".mws") that round-trips a MolecularSystem exactly —
// species, box, atoms (position/velocity/charge/mobility) and all three
// bond orders.
//
//   mws 1
//   box <lo.x> <lo.y> <lo.z> <hi.x> <hi.y> <hi.z>
//   type <name> <mass> <lj_epsilon_internal> <lj_sigma>
//   atom <type_id> <x> <y> <z> <vx> <vy> <vz> <charge> <movable>
//   rbond <a> <b> <k> <r0>
//   abond <a> <b> <c> <k> <theta0>
//   tbond <a> <b> <c> <d> <k> <n> <phi0>
//
// Lines beginning with '#' are comments.
//
// Version 2 ("mws 2") is the *checkpoint* form: the same records plus one
// `acc <ax> <ay> <az>` and one `nref <x> <y> <z>` line per atom (in atom
// order).  `acc` carries the velocity-Verlet acceleration state — the
// predictor of the step after a restart consumes a(t), so restarting from
// positions and velocities alone is never bit-exact — and `nref` carries the
// neighbor list's reference-position snapshot, from which a restarted engine
// rebuilds the *exact* list (contents and row order) the checkpointed engine
// was using; rebuilding from current positions instead reorders force
// accumulation and diverges the trajectory (see Engine::restore_continuation).
// A v2 scene loaded as a plain scene (no nref receiver) is a valid ordinary
// starting point: accelerations are applied, the nref snapshot is dropped.
//
// Accepted grammar (the reader):
//   - Records end at '\n'.  A line that is empty or starts with '#' is
//     skipped; any other line, whitespace-only included, is a record.
//   - Fields are separated by runs of ' ', '\t', '\r', '\v' or '\f' (so
//     CRLF files and leading blanks are accepted).
//   - A real field is decimal floating point as strtod reads it in the C
//     locale, with an optional leading '+' and no hex form.  Values must be
//     finite: "nan", "inf" and anything that overflows (1e999) or underflows
//     to zero (1e-400) are rejected; subnormals are accepted exactly.
//   - An integer field is an optionally signed run of decimal digits that
//     fits in an int; "1.5" or "1e3" in an integer field is rejected.
//   - A type name is any run of non-separator bytes.
//   - A record must have exactly its fields: a missing field or anything
//     after the last one is rejected.
//   Every rejection is a ContractError naming the line and the reason.
//
// The writer prints every real as printf("%.17g") (round-trip precision)
// through std::to_chars and every int in decimal, one space between fields.
// Output is independent of any stream state (precision, flags, locale):
// the same system always gives the same bytes, which is what makes the text
// a SceneCache key.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "md/system.hpp"

namespace mwx::parallel {
class FixedThreadPool;
}  // namespace mwx::parallel

namespace mwx::md {

// Returns `sys` in .mws form (version 1 — no checkpoint records).  With a
// pool, the per-atom records are formatted in `n_chunks` index-contiguous
// ranges on the pool and joined in order; a record's bytes depend only on
// its own fields, so the text is byte-identical to the serial call.
[[nodiscard]] std::string format_scene(const MolecularSystem& sys,
                                       parallel::FixedThreadPool* pool = nullptr,
                                       int n_chunks = 1);

// Returns `sys` as an "mws 2" checkpoint: version-1 records plus per-atom
// acc/nref lines.  `nlist_ref` is the neighbor list's reference-position
// snapshot in *internal* index order (NeighborList::reference_positions());
// like every per-atom record it is written in external-ID order, so the
// checkpoint text is byte-stable across Morton reorders.  Pool and chunks
// as for format_scene (acc and nref records fan out too).
[[nodiscard]] std::string format_checkpoint(const MolecularSystem& sys,
                                            std::span<const Vec3> nlist_ref,
                                            parallel::FixedThreadPool* pool = nullptr,
                                            int n_chunks = 1);

// Stream forms of the two writers above.
void save_scene(std::ostream& os, const MolecularSystem& sys);
void save_checkpoint_scene(std::ostream& os, const MolecularSystem& sys,
                           std::span<const Vec3> nlist_ref);

// Parses an .mws document (version 1 or 2); throws ContractError with a
// line number on malformed input.  When `nlist_ref` is non-null it receives
// the v2 nref snapshot (empty for v1 / plain v2 scenes); checkpoints written
// by format_checkpoint always carry exactly one acc and one nref per atom.
MolecularSystem load_scene(std::string_view text, std::vector<Vec3>* nlist_ref = nullptr);

// The same parser fed from `is` in fixed-size blocks (an unfinished line is
// carried into the next block), so the reader never holds more than a block
// and the longest line, not a copy of the whole text.
MolecularSystem load_scene(std::istream& is, std::vector<Vec3>* nlist_ref = nullptr);

// File-path conveniences.
void save_scene_file(const std::string& path, const MolecularSystem& sys);
MolecularSystem load_scene_file(const std::string& path);

}  // namespace mwx::md
