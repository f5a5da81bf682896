// dpulint self-test fixture: lexer edge cases. Everything in strings,
// comments, and raw strings must stay invisible to the rules — and real
// code sitting AFTER a tricky literal on the same line must still be seen.
// Never compiled — only lexed.
#include <string>

namespace fixture {

// std::mutex, rand(), post_ctrl_raw(), -7777: none of this is code.
/* Block comments hide srand(1); and #include <thread> just as well,
   even across lines. */

void string_negatives() {
  const char* a = "std::mutex inside a string literal";
  const char* b = "// not a comment, and rand() is not a call";
  const char* c = "/* not a block comment: post_ctrl_raw() */";
  const char* d = "escaped \" quote then srand(9)";
  const char* e = R"(raw string with "quotes" and std::thread inside)";
  const char* f = R"delim(rand() behind a custom )" delimiter)delim";
  char g = '"';
  char h = '\'';
  const char* u = u8"encoded std::mutex prefix form";
  consume(a, b, c, d, e, f, g, h, u);
}

// The old line-based linter stripped from the first `//` it found — code
// after a string containing `//` was invisible to every rule. dpulint must
// still see it.
void after_string_positive() {
  const char* url = "http://example.invalid/x";  std::mutex seen;  // expect: thread
  consume(url, seen);
}

// A line comment at end of a code line must not hide the code before it,
// and a waiver comment inside a string must not waive anything.
void fake_waiver_string() {
  const char* w = "lint: thread ok: strings cannot grant waivers";
  std::mutex real;  // expect: thread
  consume(w, real);
}

// Code sharing a line with a comment or literal, one case per way the
// lexer could swallow it: each plant must still be seen, at its own line.
void code_beside_literals(int a) {
  int x = 0;  // std::mutex in a trailing comment is not code
  /* rand() */ std::mutex after_block;  // expect: thread
  /* multi
     line rand() */ std::mutex after_multiline_block;  // expect: thread
  const char* s = "// not a comment"; srand(1);  // expect: wall-clock
  auto r = R"(std::thread inside)"; std::mutex after_raw;  // expect: thread
  char q = '"'; long t = time(0);  // expect: wall-clock
  const char* e = "esc \" quote"; clock_gettime(a);  // expect: wall-clock
  consume(x, after_block, after_multiline_block, s, r, after_raw, q, t, e);
}

}  // namespace fixture
