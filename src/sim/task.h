// Lazily-started coroutine task with continuation chaining.
//
// `Task<T>` is the return type of every simulated subroutine. A task does
// not run until awaited; when it finishes, control transfers symmetrically
// to its awaiter. Exceptions propagate through `co_await`.
//
// Lifetime rules: a Task owns its coroutine frame. Once awaited it must run
// to completion before the awaiting frame is destroyed; there is no
// cancellation (simulated processes run to completion or the Engine tears
// everything down at destruction).
//
// TOOLCHAIN PITFALLS (GCC 12, verified by minimal repro in this repo's
// history; both miscompile silently):
//  1. Never materialize a NON-TRIVIAL TEMPORARY in an awaited coroutine
//     call's argument list (e.g. `co_await f(Msg{...})` where the param is
//     a message variant or a std::function). The temporary is destroyed too
//     early and shared_ptr members underflow their refcount. Bind to a
//     named local of the parameter's type and std::move it instead.
//  2. Never put co_await inside a conditional expression
//     (`c ? co_await a : co_await b`) — the branches clobber temporaries.
//     Use if/else.
//  3. A lambda coroutine's frame references the closure object; the lambda
//     must outlive the coroutine. Prefer free/static coroutines taking the
//     callable as a by-value parameter.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "common/check.h"

namespace dpu::sim {

namespace detail {

template <typename T>
struct TaskPromise;

struct TaskFinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct TaskPromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  std::suspend_always initial_suspend() noexcept { return {}; }
  TaskFinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    require(handle_ != nullptr, "awaiting an empty Task");
    handle_.promise().continuation = cont;
    return handle_;
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.error) std::rethrow_exception(p.error);
    if constexpr (!std::is_void_v<T>) return std::move(p.value());
  }

  /// Releases ownership of the coroutine frame (used by Engine::spawn
  /// drivers that manage the frame manually).
  Handle release() { return std::exchange(handle_, {}); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_{};
};

namespace detail {

template <typename T>
struct TaskPromise : TaskPromiseBase {
  alignas(T) unsigned char storage[sizeof(T)];
  bool has_value = false;

  Task<T> get_return_object() {
    return Task<T>(std::coroutine_handle<TaskPromise>::from_promise(*this));
  }
  template <typename U>
  void return_value(U&& v) {
    ::new (static_cast<void*>(storage)) T(std::forward<U>(v));
    has_value = true;
  }
  T& value() { return *reinterpret_cast<T*>(storage); }
  ~TaskPromise() {
    if (has_value) value().~T();
  }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
  Task<void> get_return_object() {
    return Task<void>(std::coroutine_handle<TaskPromise>::from_promise(*this));
  }
  void return_void() noexcept {}
};

}  // namespace detail

}  // namespace dpu::sim
