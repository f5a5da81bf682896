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
  kPong,
  kBadTenant,
  kWaivedTenant,
};

/// Fully conforming wire message: tagged and tenant-scoped.
struct PingMsg {
  static constexpr MsgKind kKind = MsgKind::kPing;
  int src_rank = -1;
  int tenant = 0;
};

/// Planted: tagged wire message with no tenant field and no waiver.
struct PongMsg {  // expect: proto-field
  static constexpr MsgKind kKind = MsgKind::kPong;
  int dst_rank = -1;
};

/// Planted: wrong tenant declaration shape, an aliasing reference member,
/// and a mutable static member — three distinct proto-field findings.
struct BadTenantMsg {
  static constexpr MsgKind kKind = MsgKind::kBadTenant;
  long tenant = 0;  // expect: proto-field
  int& aliased;  // expect: proto-field
  static int live_count;  // expect: proto-field
};

/// Waived: structurally tenant-free, with the reason on record.
// lint: proto-field ok: fixture message keyed by globally unique rank
struct WaivedTenantMsg {
  static constexpr MsgKind kKind = MsgKind::kWaivedTenant;
  int host_rank = -1;
};

/// Untagged helper struct: not a wire message, exempt from proto-field
/// even though it has no tenant and holds a reference.
struct ScratchState {
  int slots = 0;
  int& scratch_ref;
};

}  // namespace fixture
