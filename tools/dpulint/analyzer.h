// dpulint cross-file analysis: the file set, the symbol index built over it,
// and the rule passes. See DESIGN.md §14 for the architecture and the rule
// catalogue; tools/dpulint/rules.cc documents each rule's exact semantics.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace dpulint {

struct Finding {
  std::string file;  // repo-relative, '/' separators
  int line = 0;
  std::string rule;
  std::string message;
};

/// One scanned file plus its lexed form and path-derived scope facts.
struct FileUnit {
  std::string abs;    // absolute path (diagnostics only)
  std::string rel;    // repo-relative, '/' separators
  std::string top;    // "src", "tests", "bench", "examples", "tools"
  std::string layer;  // for src files: the directory under src/, else ""
  LexedFile lx;
};

/// A wire-message struct: any struct in src/offload/protocol.h declaring a
/// `static constexpr MsgKind kKind = MsgKind::<enumerator>;` member. The tag
/// is what makes "wire message" machine-recognizable — no name heuristics.
struct WireStruct {
  std::string name;
  int line = 0;       // struct declaration line
  std::string enumerator;
  std::vector<int> ref_member_lines;     // reference members alias state
  std::vector<int> static_member_lines;  // mutable statics are cross-instance
};

struct Index {
  std::string root;
  std::vector<FileUnit> files;

  // ---- protocol registry (src/offload/protocol.h) -------------------------
  std::vector<WireStruct> wire_structs;
  const FileUnit* protocol_file = nullptr;

  // ---- await-status symbol tables -----------------------------------------
  /// Method names with at least one `Task<...Status>`-returning declaration.
  std::set<std::string> status_methods;
  /// Subset of status_methods that ALSO have a non-Status declaration
  /// somewhere (e.g. `wait`: offload returns Status, mpi returns void) —
  /// these need receiver evidence before a discard is flagged.
  std::set<std::string> ambiguous_methods;
  /// Classes declaring a Status-returning method.
  std::set<std::string> status_classes;
  /// Identifiers declared anywhere with a status-class type (members,
  /// locals, parameters): `OffloadEndpoint* off`, `GroupAlltoall a2a(...)`.
  std::set<std::string> status_vars;
  /// Functions declared to return a status class (`OffloadEndpoint&
  /// endpoint(int)`), so `endpoint(r).finalize()` resolves.
  std::set<std::string> status_producers;
};

/// Walks root/{src,tests,bench,examples,tools}, lexes every C++ file
/// (skipping tests/lint_fixtures), and builds the symbol index.
Index build_index(const std::string& root);

/// Runs every rule pass; findings come back sorted by (file, line, rule).
std::vector<Finding> run_rules(const Index& idx);

/// True when a `// lint: <rule> ok: <reason>` comment sits on `line` or the
/// five lines above it.
bool waived(const FileUnit& f, int line, const std::string& rule);

}  // namespace dpulint
