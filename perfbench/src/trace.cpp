#include "trace.hpp"

#include <cstring>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < name_ptrs_.size(); ++i) {
    if (name_ptrs_[i] == name || std::strcmp(name_ptrs_[i], name) == 0) {
      return static_cast<std::uint32_t>(i);
    }
  }
  name_ptrs_.push_back(name);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t session) {
  Span s;
  s.parent = open_.empty() ? kNoParent : open_.back();
  s.name = intern(name);
  s.session = session;
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  s.start_ns = now_ns();  // last, so interning is not charged to the span
  spans_.push_back(s);
  return id;
}

void Tracer::end(std::uint32_t id) {
  const std::uint64_t t = now_ns();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  open_.pop_back();
  spans_[id].end_ns = t;
}

void Tracer::write(graphene::obs::json::Writer& w) const {
  w.begin_object();
  w.key("names");
  w.begin_array();
  for (const std::string& n : names_) w.string(n);
  w.end_array();
  // [id, parent (-1 for a root), session, name index, start_ns, end_ns]
  w.key("spans");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_array();
    w.number(static_cast<std::uint64_t>(i));
    if (s.parent == kNoParent) {
      w.number(-1.0);
    } else {
      w.number(static_cast<std::uint64_t>(s.parent));
    }
    w.number(s.session);
    w.number(static_cast<std::uint64_t>(s.name));
    w.number(s.start_ns);
    w.number(s.end_ns);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

void write_trace(graphene::obs::json::Writer& w, std::uint64_t sessions, const char* root,
                 const std::vector<std::uint64_t>& untraced_ns,
                 const std::vector<std::uint64_t>& e2e_wall_ns, const Counters& counters,
                 const Tracer& tracer) {
  const auto array = [&w](const char* key, const std::vector<std::uint64_t>& values) {
    w.key(key);
    w.begin_array();
    for (const std::uint64_t v : values) w.number(v);
    w.end_array();
  };
  w.key("trace");
  w.begin_object();
  w.key("format");
  w.string("perfbench.trace.v1");
  w.key("sessions");
  w.number(sessions);
  w.key("root");
  w.string(root);
  array("untraced_ns", untraced_ns);
  if (!e2e_wall_ns.empty()) array("e2e_wall_ns", e2e_wall_ns);
  w.key("counters");
  write_counters(w, counters);
  w.key("tracer");
  tracer.write(w);
  w.end_object();
}

}  // namespace perfbench
