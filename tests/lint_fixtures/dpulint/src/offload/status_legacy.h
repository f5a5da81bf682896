// dpulint self-test fixture: the nodiscard pin. A Status enum without
// [[nodiscard]] lets a discarded completion status compile silently; a
// comment or string spelling the attribute does not count. Never compiled
// — only lexed.
#pragma once

namespace fixture {

// enum class [[nodiscard]] Status — a comment cannot satisfy the pin.
enum class Status { kOk, kFailed };  // expect: nodiscard

const char* spelled = "enum class [[nodiscard]] Status";
enum [[deprecated]] Status { kOld };  // expect: nodiscard

// Other attributes may ride along with nodiscard; other enums are exempt.
enum class [[nodiscard, deprecated]] Status : int { kNew };
enum class Verdict { kHold, kFail };

}  // namespace fixture
