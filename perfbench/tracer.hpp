// In-memory span recorder for the benchmark's traced runs.
//
// Two kinds of record, both kept in memory until the run ends:
//
//   * call-site timers — a Scope around one call into a layer (one
//     IEngine::step, one shim.step(), one oracle check ...).  Scopes nest on
//     a stack; each site aggregates its call count, total time and self time
//     (total minus the time its child scopes cover), which is what the
//     per-layer report renders;
//   * interval spans — one record per wave or episode, with a start, an end
//     and the id of the enclosing phase span.  Waves are not nested scopes
//     (a wave opens and closes between steps), so they are recorded as
//     explicit intervals.
//
// A null Tracer* turns every Scope into one predictable branch, which is how
// the untraced runs call the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  struct Site {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = none
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  /// Registers a call site; the returned handle indexes sites().
  [[nodiscard]] int site(std::string_view name) {
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (sites_[i].name == name) {
        return static_cast<int>(i);
      }
    }
    sites_.push_back(Site{std::string(name)});
    return static_cast<int>(sites_.size() - 1);
  }

  void enter(int site) { stack_.push_back(Frame{site, now_ns(), 0}); }

  void leave() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = now_ns() - f.start_ns;
    Site& s = sites_[static_cast<std::size_t>(f.site)];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - f.child_ns;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    }
  }

  /// Records a finished interval span and returns its id.
  std::uint64_t record(std::string_view name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent = 0) {
    spans_.push_back(Span{std::string(name), spans_.size() + 1, parent,
                          start_ns, end_ns});
    return spans_.back().id;
  }

  /// Opens an interval span whose end is not known yet (a phase that
  /// parents the waves recorded inside it); close it with end_span().
  std::uint64_t begin_span(std::string_view name, std::uint64_t start_ns) {
    return record(name, start_ns, start_ns);
  }
  void end_span(std::uint64_t id, std::uint64_t end_ns) {
    spans_[id - 1].end_ns = end_ns;
  }

  [[nodiscard]] const std::vector<Site>& sites() const noexcept {
    return sites_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const Site* find(std::string_view name) const {
    for (const Site& s : sites_) {
      if (s.name == name) {
        return &s;
      }
    }
    return nullptr;
  }

  /// RAII call-site timer; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, int site) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        tracer_->enter(site);
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->leave();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

 private:
  struct Frame {
    int site;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  std::vector<Site> sites_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
