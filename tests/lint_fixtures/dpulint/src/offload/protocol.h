// dpulint self-test fixture: a miniature protocol header with planted
// proto-field and nodiscard violations. Never compiled — only lexed by
// `dpulint --self-test`. An expect-comment (rule names after the colon)
// marks a line the analyzer MUST flag; unmarked lines must be clean.
#pragma once

namespace fixture {

/// Clean twin of the planted nodiscard violation in status_legacy.h.
enum class [[nodiscard]] Status { kOk, kDegraded };

enum class MsgKind {
  kPing,
  kBadMember,
};

/// Fully conforming wire message: tagged, plain by-value members.
struct PingMsg {
  static constexpr MsgKind kKind = MsgKind::kPing;
  int src_rank = -1;
};

/// Planted: an aliasing reference member and a mutable static member — two
/// distinct proto-field findings.
struct BadMemberMsg {
  static constexpr MsgKind kKind = MsgKind::kBadMember;
  int& aliased;  // expect: proto-field
  static int live_count;  // expect: proto-field
};

/// Untagged helper struct: not a wire message, exempt from proto-field
/// even though it holds a reference.
struct ScratchState {
  int slots = 0;
  int& scratch_ref;
};

}  // namespace fixture
