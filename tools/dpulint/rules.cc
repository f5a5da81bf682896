// The rule catalogue. Token rules (wall-clock, raw-post, thread,
// fallback-ctx, nodiscard) run on the token stream, so string/comment false
// positives are structurally impossible. The cross-file rules (proto-field,
// layer-dag, await-status) need the symbol index and are the reason this
// tool exists — no single-line regex can express them.
#include <algorithm>
#include <cctype>
#include <map>
#include <tuple>
#include <utility>

#include "analyzer.h"

namespace dpulint {

namespace {

bool is_ident(const Token& t) { return t.kind == Tok::kIdent; }
bool is_ident(const Token& t, const char* s) {
  return t.kind == Tok::kIdent && t.text == s;
}
bool is_punct(const Token& t, const char* s) {
  return t.kind == Tok::kPunct && t.text == s;
}

std::size_t match_paren_back(const std::vector<Token>& t, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is_punct(t[i], ")")) ++depth;
    else if (is_punct(t[i], "(") && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Layering levels: a layer may include itself and any strictly lower
/// level. Same-level cross-includes (sim <-> machine) are violations too.
///   common(0) -> {sim, machine}(1) -> {analysis, fabric}(2) -> verbs(3)
///   -> mpi(4) -> {offload, baselines}(5) -> harness(6) -> apps(7)
const std::map<std::string, int>& layer_levels() {
  static const std::map<std::string, int> kLevels = {
      {"common", 0},  {"sim", 1},     {"machine", 1},   {"analysis", 2},
      {"fabric", 2},  {"verbs", 3},   {"mpi", 4},       {"offload", 5},
      {"baselines", 5}, {"harness", 6}, {"apps", 7},
  };
  return kLevels;
}

bool thread_header(const std::string& p) {
  return p == "thread" || p == "mutex" || p == "condition_variable" ||
         p == "shared_mutex";
}

bool thread_prim(const std::string& id) {
  return id == "jthread" || id == "thread" || id == "mutex" ||
         id == "timed_mutex" || id == "recursive_mutex" ||
         id == "shared_mutex" || id == "condition_variable" ||
         id == "condition_variable_any";
}

std::string digits_prefix(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  return s.substr(0, i);
}

struct Ctx {
  const Index& idx;
  std::vector<Finding>& out;

  void add(const FileUnit& f, int line, const char* rule, std::string msg) {
    if (!waived(f, line, rule))
      out.push_back(Finding{f.rel, line, rule, std::move(msg)});
  }
};

// ---------------------------------------------------------------------------
// Per-file token rules.
// ---------------------------------------------------------------------------

void token_rules(Ctx& c, const FileUnit& f) {
  const auto& t = f.lx.tokens;
  const bool in_src = f.top == "src";
  const bool raw_post_exempt =
      f.rel.rfind("src/verbs/", 0) == 0 ||
      f.rel == "src/offload/reliable.cpp" || f.rel == "src/offload/reliable.h";
  const bool fallback_exempt = f.rel == "src/offload/protocol.h";

  for (const IncludeRef& inc : f.lx.includes)
    if (inc.system && thread_header(inc.path))
      c.add(f, inc.line, "thread",
            "#include <" + inc.path +
                ">: the simulator is single-threaded; add "
                "'// lint: thread ok: <reason>' if truly needed");

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    const bool std_qual = i >= 2 && is_punct(t[i - 1], "::") &&
                          is_ident(t[i - 2], "std");
    const bool member_access =
        i >= 1 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->") ||
                   is_punct(t[i - 1], "::"));
    auto next_is = [&](std::size_t d, const char* s) {
      return i + d < t.size() && is_punct(t[i + d], s);
    };

    // ---- wall-clock (src only) ----------------------------------------------
    if (in_src && is_ident(tok)) {
      if ((tok.text == "system_clock" || tok.text == "steady_clock" ||
           tok.text == "high_resolution_clock") &&
          i >= 2 && is_punct(t[i - 1], "::") && is_ident(t[i - 2], "chrono"))
        c.add(f, tok.line, "wall-clock", "wall-clock time in simulator code");
      if ((tok.text == "rand" || tok.text == "srand") &&
          (std_qual ||
           (!member_access && next_is(1, "(") &&
            (tok.text == "srand" || next_is(2, ")")))))
        c.add(f, tok.line, "wall-clock",
              "libc randomness (use common/rng.h SplitMix64)");
      if ((tok.text == "gettimeofday" || tok.text == "clock_gettime") &&
          next_is(1, "("))
        c.add(f, tok.line, "wall-clock", "wall-clock time in simulator code");
      if (tok.text == "time" && !member_access && next_is(1, "(") &&
          i + 2 < t.size() &&
          (is_ident(t[i + 2], "NULL") || is_ident(t[i + 2], "nullptr") ||
           (t[i + 2].kind == Tok::kNumber && t[i + 2].text == "0")) &&
          next_is(3, ")"))
        c.add(f, tok.line, "wall-clock", "wall-clock time in simulator code");
    }

    // ---- raw-post (src only, verbs/reliable exempt) -------------------------
    if (in_src && !raw_post_exempt && is_ident(tok) &&
        (tok.text == "post_ctrl_raw" || tok.text == "post_flag_write_raw"))
      c.add(f, tok.line, "raw-post",
            "raw control-plane post outside verbs/reliable needs a "
            "'// lint: raw-post ok: <reason>' comment");

    // ---- thread (everywhere) -----------------------------------------------
    if (is_ident(tok) && thread_prim(tok.text) && std_qual)
      c.add(f, tok.line, "thread",
            "raw threading primitive: the simulator is single-threaded; add "
            "'// lint: thread ok: <reason>' if truly needed");

    // ---- nodiscard (src only) -----------------------------------------------
    // `enum [class] [[attrs]] Status`: the completion status must carry
    // [[nodiscard]] so -Werror=unused-result rejects every ignored result.
    if (in_src && is_ident(tok, "enum")) {
      std::size_t j = i + 1;
      if (j < t.size() && (is_ident(t[j], "class") || is_ident(t[j], "struct"))) ++j;
      bool nodiscard = false;
      while (j + 1 < t.size() && is_punct(t[j], "[") && is_punct(t[j + 1], "[")) {
        for (j += 2; j < t.size() && !is_punct(t[j], "]"); ++j)
          nodiscard = nodiscard || is_ident(t[j], "nodiscard");
        j += 2;  // "]]"
      }
      if (j < t.size() && is_ident(t[j], "Status") && !nodiscard)
        c.add(f, tok.line, "nodiscard",
              "'enum class Status' must be declared "
              "'enum class [[nodiscard]] Status': an ignored completion status "
              "is a silent-failover bug");
    }

    // ---- fallback-ctx (everywhere, protocol.h exempt) -----------------------
    if (!fallback_exempt && tok.kind == Tok::kNumber && i >= 1 &&
        is_punct(t[i - 1], "-")) {
      std::string d = digits_prefix(tok.text);
      if ((d == "7777" || d == "7778") && d.size() == tok.text.size())
        c.add(f, tok.line, "fallback-ctx",
              "raw failover-context literal: derive it via "
              "failover_basic_context() / failover_group_context() "
              "(src/offload/protocol.h), or add "
              "'// lint: fallback-ctx ok: <reason>'");
    }
  }
}

// ---------------------------------------------------------------------------
// await-status: discarded co_await of a Status-returning method.
// ---------------------------------------------------------------------------

void await_status(Ctx& c, const FileUnit& f) {
  const auto& t = f.lx.tokens;
  const Index& idx = c.idx;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i], "co_await")) continue;

    // Explicit discard `(void)co_await ...` — product code must document
    // the why (in tests/benches the cast itself is the documentation).
    if (f.top == "src" && i >= 3 && is_punct(t[i - 1], ")") &&
        is_ident(t[i - 2], "void") && is_punct(t[i - 3], "(")) {
      c.add(f, t[i].line, "await-status",
            "explicitly discarded co_await result in src/: check the "
            "Status, or add '// lint: await-status ok: <reason>'");
      continue;
    }

    // Statement-position co_await (the discarded-bare form)?
    bool boundary = i == 0;
    if (!boundary) {
      const Token& p = t[i - 1];
      if (is_punct(p, ";") || is_punct(p, "{") || is_punct(p, "}") ||
          is_ident(p, "else") || is_ident(p, "do") || p.pp_id != t[i].pp_id) {
        boundary = true;
      } else if (is_punct(p, ")")) {
        std::size_t open = match_paren_back(t, i - 1);
        if (open != std::string::npos && open >= 1 && is_ident(t[open - 1])) {
          const std::string& h = t[open - 1].text;
          if (h == "for" || h == "while" || h == "if") boundary = true;
          // Function-like macro body: `#define NAME(...) co_await ...`
          if (open >= 3 && is_ident(t[open - 2], "define") &&
              is_punct(t[open - 3], "#"))
            boundary = true;
        }
      } else if (is_ident(p) && i >= 3 && is_ident(t[i - 2], "define") &&
                 is_punct(t[i - 3], "#")) {
        boundary = true;  // object-like macro body
      }
    }
    if (!boundary) continue;

    // Expression runs to the next ';' at depth 0 (or directive end). Find
    // the final `.m(` / `->m(` call at depth 0 — that is what's discarded.
    int depth = 0;
    std::size_t callee = std::string::npos;
    for (std::size_t k = i + 1; k < t.size(); ++k) {
      if (t[k].pp_id != t[i].pp_id) break;
      if (is_punct(t[k], "(") || is_punct(t[k], "[")) ++depth;
      else if (is_punct(t[k], ")") || is_punct(t[k], "]")) --depth;
      else if (depth == 0 && is_punct(t[k], ";")) break;
      else if (depth == 0 && is_ident(t[k]) && k + 1 < t.size() &&
               is_punct(t[k + 1], "(") && k >= 1 &&
               (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->")))
        callee = k;
    }
    if (callee == std::string::npos) continue;
    const std::string& m = t[callee].text;
    if (!idx.status_methods.count(m)) continue;

    bool flag = !idx.ambiguous_methods.count(m);
    if (!flag && callee >= 2) {
      const Token& r = t[callee - 2];  // receiver before '.'/'->'
      if (is_ident(r) && idx.status_vars.count(r.text)) {
        flag = true;
      } else if (is_punct(r, ")")) {
        std::size_t open = match_paren_back(t, callee - 2);
        if (open != std::string::npos && open >= 1 && is_ident(t[open - 1]) &&
            idx.status_producers.count(t[open - 1].text))
          flag = true;
      }
    }
    if (flag)
      c.add(f, t[i].line, "await-status",
            "discarded offload Status from '" + m +
                "' (declared Task<Status>): check it, or add "
                "'// lint: await-status ok: <reason>'");
  }
}

// ---------------------------------------------------------------------------
// layer-dag: include-graph layering over src/.
// ---------------------------------------------------------------------------

void layer_dag(Ctx& c, const FileUnit& f) {
  if (f.top != "src" || f.layer.empty()) return;
  const auto& levels = layer_levels();
  auto self = levels.find(f.layer);
  if (self == levels.end()) {
    c.add(f, 1, "layer-dag",
          "unknown layer 'src/" + f.layer +
              "': add it to the layer DAG in tools/dpulint/rules.cc (and "
              "DESIGN.md §14) so its dependencies are checked");
    return;
  }
  for (const IncludeRef& inc : f.lx.includes) {
    if (inc.system) continue;
    auto slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    std::string dep = inc.path.substr(0, slash);
    auto it = levels.find(dep);
    if (it == levels.end()) continue;  // not a src layer (e.g. tool headers)
    if (dep != f.layer && it->second >= self->second)
      c.add(f, inc.line, "layer-dag",
            "layer 'src/" + f.layer + "' (level " +
                std::to_string(self->second) + ") must not include '" +
                inc.path + "' (level " + std::to_string(it->second) +
                "): the DAG is common -> {sim, machine} -> {analysis, "
                "fabric} -> verbs -> mpi -> {offload, baselines} -> "
                "harness -> apps");
  }
}

// ---------------------------------------------------------------------------
// Cross-file rules over the index.
// ---------------------------------------------------------------------------

void proto_field(Ctx& c) {
  const Index& idx = c.idx;
  if (!idx.protocol_file) return;
  const FileUnit& pf = *idx.protocol_file;
  for (const WireStruct& ws : idx.wire_structs) {
    if (ws.enumerator.empty()) continue;  // not a wire message (no kKind tag)
    for (int line : ws.ref_member_lines)
      c.add(pf, line, "proto-field",
            "wire message '" + ws.name +
                "' has a reference member: wire messages must own their "
                "payload by value (a reference aliases sender state across "
                "the simulated wire)");
    for (int line : ws.static_member_lines)
      c.add(pf, line, "proto-field",
            "wire message '" + ws.name +
                "' has a mutable static member: statics are shared across "
                "instances, so one message's state leaks into every other");
  }
}

}  // namespace

std::vector<Finding> run_rules(const Index& idx) {
  std::vector<Finding> out;
  Ctx c{idx, out};
  for (const FileUnit& f : idx.files) {
    token_rules(c, f);
    await_status(c, f);
    layer_dag(c, f);
  }
  proto_field(c);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

}  // namespace dpulint
