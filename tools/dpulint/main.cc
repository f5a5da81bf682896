// dpulint CLI.
//
//   dpulint --root DIR            lint DIR/{src,tests,bench,examples,tools}
//   dpulint --root DIR --json     emit findings as a JSON array on stdout
//   dpulint --root DIR --json-out FILE   also write the JSON to FILE
//   dpulint --root DIR --self-test       run the planted-violation fixture
//
// Text findings print as `file:line: [rule] message` (the shape editors and
// CI annotations parse). Exit code is 0 when clean, 1 on findings or a
// self-test mismatch, 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.h"

namespace fs = std::filesystem;
using dpulint::Finding;
using dpulint::Index;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_json(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "  {\"file\": \"" << json_escape(f.file) << "\", \"line\": "
       << f.line << ", \"rule\": \"" << json_escape(f.rule)
       << "\", \"message\": \"" << json_escape(f.message) << "\"}"
       << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "]\n";
  return os.str();
}

std::string trim(std::string s) {
  auto notspace = [](unsigned char c) { return !std::isspace(c); };
  s.erase(s.begin(), std::find_if(s.begin(), s.end(), notspace));
  s.erase(std::find_if(s.rbegin(), s.rend(), notspace).base(), s.end());
  return s;
}

/// Self-test: lint the fixture mini-repo under tests/lint_fixtures/dpulint
/// and require the finding set to EXACTLY match the `// expect: rule[, ...]`
/// comments planted in it. A missed plant and a false positive on a waived
/// or clean site are both failures — the fixture pins precision and recall.
int self_test(const std::string& repo_root) {
  fs::path fixture =
      fs::path(repo_root) / "tests" / "lint_fixtures" / "dpulint";
  if (!fs::is_directory(fixture)) {
    std::cerr << "dpulint: fixture tree not found: " << fixture.string()
              << "\n";
    return 2;
  }
  Index idx = dpulint::build_index(fixture.string());
  std::vector<Finding> got = dpulint::run_rules(idx);

  // (file, line, rule) triples expected from the fixture's own comments.
  std::set<std::tuple<std::string, int, std::string>> expected;
  for (const auto& f : idx.files) {
    for (const auto& cm : f.lx.comments) {
      auto pos = cm.text.find("expect:");
      if (pos == std::string::npos) continue;
      std::stringstream rules(cm.text.substr(pos + 7));
      std::string rule;
      while (std::getline(rules, rule, ','))
        if (!(rule = trim(rule)).empty())
          expected.insert({f.rel, cm.line, rule});
    }
  }

  std::set<std::tuple<std::string, int, std::string>> found;
  for (const Finding& f : got) found.insert({f.file, f.line, f.rule});

  int bad = 0;
  for (const auto& [file, line, rule] : expected)
    if (!found.count({file, line, rule})) {
      std::cerr << "MISSED  " << file << ":" << line << ": [" << rule
                << "] planted violation not detected\n";
      ++bad;
    }
  for (const Finding& f : got)
    if (!expected.count({f.file, f.line, f.rule})) {
      std::cerr << "FALSE+  " << f.file << ":" << f.line << ": [" << f.rule
                << "] " << f.message << "\n";
      ++bad;
    }
  if (bad) {
    std::cerr << "dpulint self-test: FAIL (" << bad << " mismatch"
              << (bad == 1 ? "" : "es") << ", " << expected.size()
              << " expectations, " << got.size() << " findings)\n";
    return 1;
  }
  std::cout << "dpulint self-test: OK (" << expected.size()
            << " planted violations detected, 0 false positives across "
            << idx.files.size() << " fixture files)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool json = false;
  bool run_self_test = false;
  std::string json_out;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (a == "--json") {
      json = true;
    } else if (a == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (a == "--self-test") {
      run_self_test = true;
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: dpulint [--root DIR] [--json] [--json-out FILE] "
                   "[--self-test]\n";
      return 0;
    } else {
      std::cerr << "dpulint: unknown argument '" << a << "'\n";
      return 2;
    }
  }

  std::error_code ec;
  fs::path rootp = fs::canonical(root, ec);
  if (ec) {
    std::cerr << "dpulint: cannot resolve --root '" << root
              << "': " << ec.message() << "\n";
    return 2;
  }

  if (run_self_test) return self_test(rootp.string());

  Index idx = dpulint::build_index(rootp.string());
  if (idx.files.empty()) {
    std::cerr << "dpulint: no C++ files under " << rootp.string()
              << " (expected src/, tests/, bench/, examples/, tools/)\n";
    return 2;
  }
  std::vector<Finding> findings = dpulint::run_rules(idx);

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::cerr << "dpulint: cannot write " << json_out << "\n";
      return 2;
    }
    os << to_json(findings);
  }
  if (json) {
    std::cout << to_json(findings);
  } else {
    for (const Finding& f : findings)
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    if (findings.empty()) {
      std::size_t tagged = 0;
      for (const auto& ws : idx.wire_structs)
        if (!ws.enumerator.empty()) ++tagged;
      std::cout << "dpulint: OK (" << idx.files.size() << " files, " << tagged
                << " wire messages)\n";
    }
    else
      std::cout << "dpulint: " << findings.size() << " finding"
                << (findings.size() == 1 ? "" : "s") << "\n";
  }
  return findings.empty() ? 0 : 1;
}
