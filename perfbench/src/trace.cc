#include "trace.h"

namespace perfbench {

DpCounters& ThreadDp() {
  thread_local DpCounters counters;
  return counters;
}

std::int32_t SpanLog::Open(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = current_;
  dp_at_open_.push_back(ThreadDp().ns);
  s.start_ns = NowNs();
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void SpanLog::Close(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = NowNs();
  s.dp_ns = ThreadDp().ns - dp_at_open_[static_cast<std::size_t>(id)];
  current_ = s.parent;
}

std::map<std::string, SpanTotals> Summarize(
    const std::vector<SpanLog>& logs) {
  std::map<std::string, SpanTotals> out;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    // Children's duration and kernel time, per parent.
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    std::vector<std::int64_t> child_dp(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      child_dp[static_cast<std::size_t>(s.parent)] += s.dp_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      const std::int64_t own_dp = s.dp_ns - child_dp[i];
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_ms += static_cast<double>(dur) * 1e-6;
      t.self_ms += static_cast<double>(dur - child_ns[i] - own_dp) * 1e-6;
      t.dp_ms += static_cast<double>(s.dp_ns) * 1e-6;
    }
  }
  return out;
}

void WriteSpans(const std::vector<SpanLog>& logs, std::ostream& out) {
  out << "thread\top\tname\tparent\tstart_ns\tend_ns\tdp_ns\n";
  for (std::size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t].spans()) {
      out << t << '\t' << s.op << '\t' << s.name << '\t' << s.parent << '\t'
          << s.start_ns << '\t' << s.end_ns << '\t' << s.dp_ns << '\n';
    }
  }
}

}  // namespace perfbench
